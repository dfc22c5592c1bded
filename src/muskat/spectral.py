"""Periodic Fourier representation on the 2*pi torus.

Fields are real, represented by the half spectrum ``coeffs[k]``, k = 0..N,
under the symmetric convention

    f(x) = sum_k fhat(k) e^{ikx} / sqrt(2*pi),
    fhat(k) = integral f(x) e^{-ikx} / sqrt(2*pi) dx,

so a unit cosine mode ``cos(kx)`` has ``|fhat(+-k)| = sqrt(pi/2)``.  Negative
modes are implied by Hermitian symmetry and never stored; realness is
therefore structural.  Quadratic products are evaluated on a 4N zero-padded
grid, which keeps every retained mode |k| <= N free of aliasing (the padded
grid exceeds the 3N+1 points needed for an exact truncated convolution).

Everything here is value-semantic: no operation mutates its inputs, so all
operations are safe to call concurrently.
"""

import math

import numpy as np
import scipy.fft as _fft

SQRT_2PI = math.sqrt(2.0 * math.pi)
COS_MODE = math.sqrt(math.pi / 2.0)  # |fhat(+-k)| of a unit cosine
TANH_SATURATION = 20  # tanh(|k|) is 1.0 to double precision beyond this


class GridMismatchError(ValueError):
    """Two fields (or a field and a grid) have incompatible resolutions."""


def tanh_clamped(k):
    """tanh(|k|), evaluated directly and clamped to 1 for |k| > 20."""
    k = np.abs(np.asarray(k, dtype=float))
    return np.where(k > TANH_SATURATION, 1.0,
                    np.tanh(np.minimum(k, float(TANH_SATURATION))))


class SpectralField:
    """Mean-zero-capable real periodic function stored as Fourier coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, copy=True):
        arr = np.array(coeffs, dtype=complex, copy=copy)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("coeffs must be a 1-D array with at least modes k=0,1")
        if not np.isfinite(arr).all():
            raise ValueError("coeffs must be finite")
        self.coeffs = arr

    @classmethod
    def _checked(cls, coeffs):
        """Wrap a 1-D complex array the caller has already found finite,
        without the copy and the re-scan of the constructor."""
        field = cls.__new__(cls)
        field.coeffs = coeffs
        return field

    @property
    def n_modes(self):
        return self.coeffs.size - 1

    @classmethod
    def zeros(cls, n_modes):
        return cls(np.zeros(n_modes + 1, dtype=complex), copy=False)

    @classmethod
    def from_values(cls, values, n_modes=None):
        """Field from samples on the uniform grid x_j = 2*pi*j/m."""
        values = np.asarray(values, dtype=float)
        m = values.size
        if n_modes is None:
            n_modes = (m - 1) // 2
        if n_modes > m // 2:
            raise GridMismatchError(f"{m} samples resolve at most {m // 2} modes")
        c = _fft.rfft(values)[: n_modes + 1] * (SQRT_2PI / m)
        return cls(c, copy=False)

    @classmethod
    def from_function(cls, fn, n_modes):
        x = grid_points(4 * n_modes)
        return cls.from_values(fn(x), n_modes)

    @classmethod
    def cosine(cls, k, amplitude, n_modes):
        """amplitude * cos(k x)."""
        if not 1 <= k <= n_modes:
            raise ValueError(f"mode {k} outside 1..{n_modes}")
        c = np.zeros(n_modes + 1, dtype=complex)
        c[k] = amplitude * COS_MODE
        return cls(c, copy=False)

    def values(self, n_points=None):
        """Samples on x_j = 2*pi*j/n_points (default: the 4N dealiasing grid)."""
        n = self.n_modes
        if n_points is None:
            n_points = 4 * n
        if n_points < 2 * n + 1:
            raise GridMismatchError(f"{n_points} points cannot carry {n} modes")
        buf = np.zeros(n_points // 2 + 1, dtype=complex)
        buf[: n + 1] = self.coeffs
        return _fft.irfft(buf, n=n_points) * (n_points / SQRT_2PI)

    def copy(self):
        return SpectralField(self.coeffs, copy=True)

    def __repr__(self):
        return f"SpectralField(n_modes={self.n_modes})"


def random_decay_field(n_modes, p, rng, amplitude=1.0):
    """Mean-zero field with |hhat(k)| = amplitude * |k|^{-p} * U(1/2, 1) and
    uniform random phases, drawn from the numpy Generator rng."""
    k = np.arange(1, n_modes + 1, dtype=float)
    mag = amplitude * k ** (-float(p)) * rng.uniform(0.5, 1.0, size=n_modes)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    c = np.zeros(n_modes + 1, dtype=complex)
    c[1:] = mag * np.exp(1j * phase)
    return SpectralField(c, copy=False)


# Fourier multipliers are callables k -> m(k) on k >= 0; realness needs
# m(-k) = conj(m(k)), true of |k|-functions and of (ik)^j.

def identity_symbol():
    return np.ones_like


def depth_symbol(depth):
    """The flat-interface normal-derivative symbol: |k| tanh|k| for a
    bounded strip, |k| for the unbounded one."""
    if depth == "finite":
        return lambda k: np.abs(k) * tanh_clamped(k)
    if depth == "infinite":
        return np.abs
    raise ValueError(f"unknown depth {depth!r}")


def derivative_symbol(j):
    return lambda k: (1j * k) ** j


def apply_multiplier(f, symbol):
    k = np.arange(f.n_modes + 1, dtype=float)
    return SpectralField(symbol(k) * f.coeffs, copy=False)


def wiener_norm(f, s):
    """sum over k != 0 of |k|^s |fhat(k)|.  The k=0 term is always excluded."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    k = np.arange(1, f.n_modes + 1, dtype=float)
    return 2.0 * float(np.sum(k**s * np.abs(f.coeffs[1:])))


def project_mean_zero(f):
    c = f.coeffs.copy()
    c[0] = 0.0
    return SpectralField(c, copy=False)


def galerkin_project(f, m):
    """Zero all modes with k > m.  Idempotent; identity when m >= n_modes."""
    if m <= 0:
        raise ValueError("projection cutoff must be positive")
    c = f.coeffs.copy()
    c[m + 1 :] = 0.0
    return SpectralField(c, copy=False)


def check_same_grid(f, g):
    if f.n_modes != g.n_modes:
        raise GridMismatchError(f"n_modes mismatch: {f.n_modes} vs {g.n_modes}")


def pointwise_product(f, g):
    """Dealiased spectral product of two fields on the same grid.

    Computed on the 4N padded grid, so the retained coefficients equal the
    exact truncated convolution; the mean mode is kept (callers project it
    when an operator requires mean-zero input).
    """
    check_same_grid(f, g)
    n = f.n_modes
    m = 4 * n
    fv = f.values(m)
    gv = g.values(m)
    c = _fft.rfft(fv * gv)[: n + 1] * (SQRT_2PI / m)
    return SpectralField(c, copy=False)


def grid_points(n_points):
    return 2.0 * np.pi * np.arange(n_points) / n_points


# ---------------------------------------------------------------------------
# spectrum snapshot files
# ---------------------------------------------------------------------------

def save_spectrum_csv(f, path):
    """Write `k,re,im` rows for k = 0..N with 17 significant digits.

    The %.17g format round-trips float64 exactly, so a read-back reproduces
    the coefficients bit for bit.  Negative modes are implied by symmetry.
    """
    lines = ["k,re,im"]
    for k, c in enumerate(f.coeffs):
        lines.append(f"{k},{c.real:.17g},{c.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_spectrum_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "k,re,im":
            raise ValueError(f"{path}: expected header 'k,re,im', got {header!r}")
        coeffs = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}: row {lineno}: expected 3 columns")
            k, re, im = int(parts[0]), float(parts[1]), float(parts[2])
            if k != len(coeffs):
                raise ValueError(f"{path}: row {lineno}: modes out of order")
            coeffs.append(complex(re, im))
    return SpectralField(np.asarray(coeffs, dtype=complex), copy=False)
