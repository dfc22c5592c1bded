"""Periodic Fourier representation on the 2*pi torus.

Fields are real, represented by the half spectrum ``coeffs[k]``, k = 0..N,
under the symmetric convention

    f(x) = sum_k fhat(k) e^{ikx} / sqrt(2*pi),
    fhat(k) = integral f(x) e^{-ikx} / sqrt(2*pi) dx,

so a unit cosine mode ``cos(kx)`` has ``|fhat(+-k)| = sqrt(pi/2)``.  Negative
modes are implied by Hermitian symmetry and never stored; realness is
therefore structural.  Quadratic products (``models``) are evaluated on a 4N
zero-padded grid, which keeps every retained mode |k| <= N free of aliasing
(the padded grid exceeds the 3N+1 points needed for an exact truncated
convolution).

Everything here is value-semantic: no operation mutates its inputs, so all
operations are safe to call concurrently.

Transforms.  Every FFT of the package goes through one module, ``pocketfft``:
pocketfft's pybind11 binding ``pypocketfft``, loaded from its file in
scipy's directory.  Importing ``scipy.fft`` would also run that package's
init, which loads ``scipy.special``, ``numpy.f2py`` and ``numpy.testing``,
about 0.3 s that every CLI call, sweep worker and benchmark body would pay
for three functions.  ``rfft``/``irfft``/``dct`` pass the binding the
arguments that ``scipy.fft.rfft``/``irfft``/``dct`` pass, so they return
the same bits (``tests/test_spectral.py`` checks this against scipy).
"""

import importlib.machinery
import importlib.util
import math
import os

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)
COS_MODE = math.sqrt(math.pi / 2.0)  # |fhat(+-k)| of a unit cosine


def _load_pocketfft():
    """scipy's ``fft/_pocketfft/pypocketfft`` extension, loaded from its file
    without importing any scipy package.

    ``find_spec`` locates scipy without importing it.  The module takes its
    own qualified name, so a later ``import scipy.fft`` reuses this same
    module object; it is not entered in ``sys.modules``.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("muskat needs scipy's pocketfft binding; "
                          "scipy is not installed")
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = os.path.join(scipy_spec.submodule_search_locations[0], "fft",
                        "_pocketfft", "pypocketfft" + suffix)
    if not os.path.isfile(path):
        raise ImportError(f"pocketfft binding not found at {path}")
    spec = importlib.util.spec_from_file_location(
        "scipy.fft._pocketfft.pypocketfft", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pocketfft = _load_pocketfft()


# The arguments are positional, r2c(a, axes, forward, inorm, out, nthreads)
# c2r(a, axes, lastsize, forward, inorm, out, nthreads) and
# dct(a, type, axes, inorm, out, nthreads, ortho); inorm = 2 divides by the
# transform length, 0 does not scale.  Called with keywords,
# the binding holds an allocation that grows to about 2 MB over the first
# 1e5 calls.

def rfft(x, axis=-1, out=None):
    """Unnormalized forward real FFT along ``axis``: the bits of
    ``scipy.fft.rfft(x, axis=axis)`` for a float64 array x.  Written into
    ``out`` (complex128, not overlapping x) when given, which is returned."""
    return pocketfft.r2c(x, (axis,), True, 0, out, 1)


def irfft(F, n, axis=-1, out=None):
    """Inverse real FFT of length n along ``axis``, divided by n: the bits
    of ``scipy.fft.irfft(F, n=n, axis=axis)`` for a complex128 array F
    with n // 2 + 1 entries along ``axis``.  Written into ``out`` (float64,
    not overlapping F) when given, which is returned."""
    return pocketfft.c2r(F, (axis,), n, False, 2, out, 1)


def dct(x, type, axis=-1):
    """Unnormalized discrete cosine transform of ``type`` along ``axis``:
    the bits of ``scipy.fft.dct(x, type=type, axis=axis)`` for a float64
    array x."""
    return pocketfft.dct(x, type, (axis,), 0, None, 1, False)


class GridMismatchError(ValueError):
    """Two fields (or a field and a grid) have incompatible resolutions."""


def tanh_clamped(k):
    """tanh(|k|); exactly 1.0 to double precision for |k| > 20."""
    return np.tanh(np.abs(k))


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
        """Field from samples on the uniform grid x_j = 2*pi*j/m.

        m samples resolve n_modes only when m >= 2*n_modes + 1, the rule of
        ``values``: at m = 2*n_modes the coefficient of mode m/2 would sum
        the modes +-m/2.
        """
        values = np.asarray(values, dtype=float)
        m = values.size
        if n_modes is None:
            n_modes = (m - 1) // 2
        if m < 2 * n_modes + 1:
            raise GridMismatchError(
                f"{m} samples resolve at most {(m - 1) // 2} modes")
        c = rfft(values)[: n_modes + 1] * (SQRT_2PI / m)
        return cls(c, copy=False)

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
        return irfft(buf, n_points) * (n_points / SQRT_2PI)

    def copy(self):
        return SpectralField(self.coeffs, copy=True)

    def __repr__(self):
        return f"SpectralField(n_modes={self.n_modes})"


def random_decay_coeffs(n_modes, powers, rng, amplitude=1.0):
    """Half spectra, shape (len(powers), n_modes + 1), of mean-zero fields:
    row r has |hhat(k)| = amplitude * |k|^{-powers[r]} * U(1/2, 1) and
    uniform random phases, from one ``rng.random((R, 2, n_modes))`` of the
    numpy Generator rng, taken row by row, the moduli then the phases."""
    k = np.arange(1, n_modes + 1, dtype=float)
    decay = {p: amplitude * k ** (-float(p)) for p in set(powers)}
    u = rng.random((len(powers), 2, n_modes))
    c = np.zeros((len(powers), n_modes + 1), dtype=complex)
    c[:, 1:] = (np.array([decay[p] for p in powers]) * (0.5 + 0.5 * u[:, 0])
                * np.exp(1j * ((2.0 * np.pi) * u[:, 1])))
    return c


def random_decay_field(n_modes, p, rng, amplitude=1.0):
    """The one field of ``random_decay_coeffs`` at the power p: R calls on
    one Generator draw what one call on R powers draws."""
    return SpectralField(random_decay_coeffs(n_modes, (p,), rng, amplitude)[0],
                         copy=False)


# Fourier multipliers are callables k -> m(k) on k >= 0; realness needs
# m(-k) = conj(m(k)), true of |k|-functions and of (ik)^j.

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
    return float(wiener_norms(f.coeffs, s))


def wiener_norms(c, s):
    """``wiener_norm`` of each half spectrum along the last axis of the
    coefficient array c, with the same bits."""
    k = np.arange(1, c.shape[-1], dtype=float)
    return 2.0 * np.add.reduce(k**s * np.abs(c[..., 1:]), axis=-1)


def check_same_grid(f, g):
    if f.n_modes != g.n_modes:
        raise GridMismatchError(f"n_modes mismatch: {f.n_modes} vs {g.n_modes}")


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
    """The field of a ``save_spectrum_csv`` file.  ValueError, naming the
    file and, where there is one, the row, for a wrong header, a row that
    is malformed, unparsable, non-finite or out of order, or a file without
    the rows of modes 0 and 1.  A byte that is not UTF-8 fails its row."""
    with open(path, errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if header != "k,re,im":
            raise ValueError(f"{path}: expected header 'k,re,im', got {header!r}")
        coeffs = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) != 3:
                    raise ValueError("expected 3 columns")
                k, re, im = int(parts[0]), float(parts[1]), float(parts[2])
                if k != len(coeffs):
                    raise ValueError("modes out of order")
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise ValueError("non-finite coefficient")
            except ValueError as exc:
                raise ValueError(f"{path}: row {lineno}: {exc}") from None
            coeffs.append(complex(re, im))
    if len(coeffs) < 2:
        raise ValueError(f"{path}: {len(coeffs)} rows, modes 0 and 1 need 2")
    return SpectralField(np.asarray(coeffs, dtype=complex), copy=False)
