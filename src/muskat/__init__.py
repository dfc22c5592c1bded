"""Pseudo-spectral simulation and verification suite for elastic
porous-media interface models on the periodic line."""

from .config import PACKAGE_VERSION as __version__
from .config import ConfigError, SolverConfig, load_config, make_initial_condition
from .diagnostics import (
    EnergyRecord,
    RecordTable,
    check_exponential_decay,
    check_monotone_decay,
    check_operator_bounds,
    energy,
)
from .elliptic import (
    FixedPointReport,
    MaxIterationsError,
    NotContractingError,
    RoundoffStallError,
    SolverError,
    certify_smallness,
    dense_solve,
    solve_quasilinear,
)
from .integrate import IntegratorState, StepSizeUnderflowError, Trajectory, run, step
from .models import (
    apply_quasilinear,
    commutator,
    commutator_sign_split,
    forcing,
    invert_base,
    leading_velocity_wnl2,
    linear_decay_rate,
    rhs_wnl2,
)
from .params import ModelParams, nondimensionalize
from .spectral import (
    GridMismatchError,
    SpectralField,
    apply_multiplier,
    depth_symbol,
    derivative_symbol,
    load_spectrum_csv,
    random_decay_field,
    save_spectrum_csv,
    wiener_norm,
)
from .strip import (
    DegenerateLiftError,
    StripGrid,
    StripSolution,
    dtn_apply,
    solve_strip,
    verify_dtn_expansion,
    verify_lub_flux,
)
