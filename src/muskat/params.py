"""Dimensionless model parameters and the nondimensionalization map."""

import math
from dataclasses import asdict, dataclass

MODELS = ("wnl1", "wnl2", "lubrication")
DEPTHS = ("finite", "infinite")

THETA_REQUIREMENT = "theta must be > 0 (every well-posedness regime assumes it)"

# attribute -> key in config files and meta.json, where the two differ
KEY_NAMES = {"lam": "lambda", "ic": "initial_condition"}


def keyed_dict(record):
    """``dataclasses.asdict`` of a parameter or config record, keyed as in
    config files and meta.json."""
    return {KEY_NAMES.get(k, k): v for k, v in asdict(record).items()}


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless constants shared by all model operators.

    chi     : +1 gravitationally stable stratification, -1 unstable
    lam     : bending-force coefficient (>= 0)
    theta   : interface-diffusion coefficient (> 0, strictly)
    sigma   : steepness (amplitude over horizontal scale)
    delta   : squared depth-to-length aspect ratio (> 0)
    epsilon : amplitude-to-depth ratio; for the thin-film model
              sigma = epsilon * sqrt(delta) must hold to 1e-12
    depth   : 'finite' (bounded strip) or 'infinite'
    model   : 'wnl1' | 'wnl2' | 'lubrication'
    """

    chi: int = 1
    lam: float = 0.0
    theta: float = 1.0
    sigma: float = 0.0
    delta: float = 1.0
    epsilon: float = 0.0
    depth: str = "finite"
    model: str = "wnl1"

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError(THETA_REQUIREMENT)
        if self.chi not in (1, -1):
            raise ValueError("chi must be +1 or -1")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.epsilon < 0 or self.sigma < 0:
            raise ValueError("epsilon and sigma must be nonnegative")
        # every comparison above is false for nan, and none bounds inf
        for name in ("lam", "theta", "sigma", "delta", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.depth not in DEPTHS:
            raise ValueError(f"depth must be one of {DEPTHS}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.model == "lubrication":
            derived = self.epsilon * math.sqrt(self.delta)
            if abs(self.sigma - derived) > 1e-12 * max(1.0, derived):
                raise ValueError(
                    "lubrication requires sigma = epsilon*sqrt(delta); "
                    f"got sigma={self.sigma}, epsilon*sqrt(delta)={derived}"
                )

    @classmethod
    def lubrication(cls, chi=1, lam=0.0, theta=1.0, delta=1.0, epsilon=0.0):
        return cls(chi=chi, lam=lam, theta=theta,
                   sigma=epsilon * math.sqrt(delta), delta=delta,
                   epsilon=epsilon, model="lubrication")

    as_dict = keyed_dict


def nondimensionalize(
    mu, kappa, rho, G, gamma, tau, d, L, H, chi=1, depth="finite", model="wnl1"
):
    """Physical constants -> ModelParams plus the evolution time scale.

    mu viscosity, kappa permeability, rho density, G gravity, gamma bending
    stiffness, tau interface diffusion, d depth, L horizontal scale, H
    amplitude scale.  gamma and tau may be zero; everything else must be
    strictly positive.  The returned time scale mu*L/(rho*kappa*G) is the
    unit in which dimensionless trajectories are reported.
    """
    for name, v in [
        ("mu", mu), ("kappa", kappa), ("rho", rho), ("G", G),
        ("d", d), ("L", L), ("H", H),
    ]:
        if v <= 0:
            raise ValueError(f"{name} must be strictly positive, got {v}")
    if gamma < 0 or tau < 0:
        raise ValueError("gamma and tau must be nonnegative")

    delta = d**2 / L**2
    epsilon = H / d
    sigma = H / L
    lam = gamma / (2.0 * rho * G * L**4)
    theta = tau * kappa / (mu * L**3)
    time_scale = mu * L / (rho * kappa * G)
    params = ModelParams(chi=chi, lam=lam, theta=theta, sigma=sigma,
                         delta=delta, epsilon=epsilon, depth=depth, model=model)
    return params, time_scale
