"""Flat key-value run configuration with dotted sections.

The format is one `key = value` per line, `#` comments, keys dotted for
nesting (`initial_condition.k = 1`, `verify.dtn.n_z = 256`).  Flat text
diffs cleanly across sweep matrices, hence no nested format.  Only
``read_config`` reads a config file.  See README for the full schema.
"""

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np
import numpy.random  # np.random: loaded here, not at its first use

from .params import KEY_NAMES, ModelParams, keyed_dict
from .spectral import SpectralField, load_spectrum_csv, random_decay_field

PACKAGE_VERSION = "0.1.0"

# the time-stepping schemes of ``integrate``, whose state checks this too
SCHEMES = ("euler", "rk4")


class ConfigError(ValueError):
    pass


def parse_config_text(text):
    """Config text -> flat {dotted key: string value}."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def read_config(path):
    """The flat dict of the config file at path; ConfigError naming path."""
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except (OSError, ValueError) as exc:  # UnicodeDecodeError, ConfigError
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _as_float(key, v):
    try:
        f = float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {v!r}")
    if not math.isfinite(f):
        raise ConfigError(f"{key}: expected a finite number, got {v!r}")
    return f


def _as_int(key, v):
    try:
        return int(str(v))  # exact, also past 2**53 where floats are not
    except ValueError:
        f = _as_float(key, v)
    if f != int(f):
        raise ConfigError(f"{key}: expected an integer, got {v!r}")
    return int(f)


def _as_float_list(key, v):
    if isinstance(v, (list, tuple)):
        return [_as_float(key, x) for x in v]
    return [_as_float(key, part) for part in str(v).split(",") if part.strip()]


def _as_str(key, v):
    return "" if v is None else str(v)


# the parser of each scalar SolverConfig field, by its annotated type
_PARSERS = {int: _as_int, float: _as_float, float | None: _as_float, str: _as_str}

# initial_condition kinds -> their keys and defaults (None: required);
# random_decay draws from rng_seed
_IC_KINDS = {
    "single_mode": {"k": 1, "amplitude": 1e-3},
    "random_decay": {"p": 3, "amplitude": 1e-3},
    "from_file": {"path": None},
}

# verify.<suite>.<key> -> its default; None where `muskat verify` derives it
# (dtn's n_modes from n_x; flux without h_mode: a flat h).  Others are
# rejected; flux takes every mode its n_x resolves, so it has no n_modes.
VERIFY_DEFAULTS = {
    "bounds": {"samples": 500, "n_modes": 64},
    "dtn": {"n_x": 512, "n_z": 256, "sigmas": "0.2,0.1,0.05", "n_modes": None,
            "h_mode": 1, "psi_mode": 2},
    "flux": {"n_x": 256, "n_z": 65, "deltas": "0.04,0.02,0.01",
             "f_mode": 1, "h_mode": None},
}
_VERIFY_KEYS = {f"{suite}.{key}" for suite, keys in VERIFY_DEFAULTS.items()
                for key in keys}

# the parser of each initial_condition.* and verify.* key, by its name
_KEY_PARSERS = {"k": _as_int, "amplitude": _as_float, "p": _as_float,
                "path": _as_str, "samples": _as_int, "n_modes": _as_int,
                "n_x": _as_int, "n_z": _as_int, "sigmas": _as_float_list,
                "deltas": _as_float_list, "h_mode": _as_int,
                "psi_mode": _as_int, "f_mode": _as_int}


def verify_settings(verify, suite):
    """suite's {key: parsed value}, each from verify or VERIFY_DEFAULTS."""
    settings = {}
    for key, default in VERIFY_DEFAULTS[suite].items():
        value = verify.get(f"{suite}.{key}", default)
        if value is not None:
            value = _KEY_PARSERS[key](f"verify.{suite}.{key}", value)
        settings[key] = value
    return settings


def _initial_condition(ic):
    """The initial_condition section {key: value} -> its normalized dict:
    the kind, and each key of that kind parsed or defaulted.  A key of
    another kind is rejected like a misspelled one."""
    kind = ic.get("kind", "single_mode")
    if kind not in _IC_KINDS:
        raise ConfigError(f"unknown initial_condition {kind!r}")
    unknown = set(ic) - {"kind", *_IC_KINDS[kind]}
    if unknown:
        raise ConfigError(f"unknown initial_condition keys for {kind}: "
                          f"{sorted(unknown)}")
    out = {"kind": kind}
    for key, default in _IC_KINDS[kind].items():
        if key not in ic and default is None:
            raise ConfigError(f"initial_condition = {kind} requires "
                              f"initial_condition.{key}")
        out[key] = _KEY_PARSERS[key](f"initial_condition.{key}",
                                     ic.get(key, default))
    return out


@dataclass
class SolverConfig:
    """Everything one trajectory or verification needs, plus output control."""

    model: str = "wnl1"
    depth: str = "finite"
    chi: int = 1
    lam: float = 0.0
    theta: float = 1.0
    sigma: float = 0.0
    delta: float = 1.0
    epsilon: float = 0.0
    n_modes: int = 64
    dt: float = 1e-3
    t_end: float = 1.0
    output_cadence: int = 10
    snapshot_cadence: int = 10
    scheme: str = "rk4"
    tol: float | None = None
    max_iter: int = 200
    rng_seed: int = 0
    output_dir: str = ""
    ic: dict = field(default_factory=lambda: _initial_condition({}))
    verify: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.n_modes
        if n < 32 or (n & (n - 1)) != 0:
            raise ConfigError(f"n_modes must be a power of two >= 32, got {n}")
        # a nan dt halves forever on rejection; an infinite t_end never ends
        if not 0 < self.dt < math.inf:
            raise ConfigError("dt must be positive and finite")
        if not 0 <= self.t_end < math.inf:
            raise ConfigError("t_end must be nonnegative and finite")
        if self.output_cadence < 1 or self.snapshot_cadence < 0:
            raise ConfigError("cadences must be positive")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be {' or '.join(SCHEMES)}")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")

    as_dict = keyed_dict


# verify is a section, never a top-level value
_KNOWN_TOP = {KEY_NAMES.get(f.name, f.name) for f in fields(SolverConfig)} \
    - {"verify"}
# top-level key -> (SolverConfig field, parser), for the scalar fields
_TOP_PARSERS = {KEY_NAMES.get(f.name, f.name): (f.name, _PARSERS[f.type])
                for f in fields(SolverConfig) if f.type in _PARSERS}
# top-level values that stand for the default (sigma derived, tol auto)
_DEFAULTED = {"sigma": ("",), "tol": ("", "auto")}


def load_config(source):
    """Path, text-parsed dict, or meta-style dict -> (SolverConfig, ModelParams)."""
    if isinstance(source, (str, os.PathLike)):
        raw = read_config(source)
    elif isinstance(source, dict):
        raw = dict(source)
    else:
        raise ConfigError(f"unsupported config source {type(source)!r}")

    # meta.json style: nested initial_condition / verify dicts
    ic = raw.pop("initial_condition", None)
    if not isinstance(ic, dict):
        ic = {} if ic is None else {"kind": str(ic)}
    ic = dict(ic)
    verify = dict(raw.pop("verify")) if isinstance(raw.get("verify"), dict) else {}
    for key in list(raw):
        if key.startswith("initial_condition."):
            ic[key.split(".", 1)[1]] = raw.pop(key)
        elif key.startswith("verify."):
            verify[key.split(".", 1)[1]] = raw.pop(key)

    unknown = set(raw) - _KNOWN_TOP
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    unknown = set(verify) - _VERIFY_KEYS
    if unknown:
        raise ConfigError("unknown verify keys: "
                          f"{sorted('verify.' + k for k in unknown)}")
    for suite in VERIFY_DEFAULTS:
        verify_settings(verify, suite)

    # an empty sigma is derived below, an empty or "auto" tol is the default
    for key, empty in _DEFAULTED.items():
        if raw.get(key) in (None, *empty):
            raw.pop(key, None)
    scalars = {name: parse(key, raw[key])
               for key, (name, parse) in _TOP_PARSERS.items() if key in raw}
    cfg = SolverConfig(**scalars, ic=_initial_condition(ic), verify=verify)
    if "sigma" not in raw and cfg.model == "lubrication":
        cfg.sigma = cfg.epsilon * math.sqrt(cfg.delta)
    try:
        params = ModelParams(**{f.name: getattr(cfg, f.name)
                                for f in fields(ModelParams)})
    except ValueError as exc:
        raise ConfigError(str(exc))
    return cfg, params


def make_initial_condition(config):
    """Build the configured mean-zero initial interface."""
    ic = config.ic
    if ic["kind"] == "single_mode":
        if not 1 <= ic["k"] <= config.n_modes:
            raise ConfigError(
                f"initial_condition.k = {ic['k']} outside 1..{config.n_modes}")
        return SpectralField.cosine(ic["k"], ic["amplitude"], config.n_modes)
    if ic["kind"] == "random_decay":
        rng = np.random.default_rng(config.rng_seed)
        return random_decay_field(config.n_modes, ic["p"], rng, ic["amplitude"])
    h = load_spectrum_csv(ic["path"])
    if h.n_modes != config.n_modes:
        raise ConfigError(
            f"{ic['path']}: file has {h.n_modes} modes, config wants "
            f"{config.n_modes}")
    h.coeffs[0] = 0.0
    return h

