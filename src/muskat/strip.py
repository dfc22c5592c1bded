"""Independent elliptic solver on the flattened strip, and the order checks
it enables.

The moving fluid domain -1 < z < eps*h(x) is pulled back to the fixed strip
T x (-1, 0) through the affine lifting z -> z + eps*(1+z)*h(x), turning the
anisotropic Laplace problem into a variable-coefficient divergence-form
equation div(P grad phi) = 0 with

    P = [[delta*(1+eps*h),            -delta*eps*(1+z)*h_x              ],
         [-delta*eps*(1+z)*h_x,  (1 + delta*eps^2 (1+z)^2 h_x^2)/(1+eps*h)]],

Dirichlet datum at z = 0 and a no-flux bottom at z = -1 (where the
off-diagonal vanishes, so the co-normal and vertical derivatives agree).

Discretization: bilinear elements on the structured grid with P sampled at
cell midpoints.  The assembled operator is symmetric by construction, the
scheme is conservative and second order, and the bottom condition is the
natural boundary condition of the quadratic form.  This route never touches
the Fourier-side model operators; it exists to validate them.

Linear solve: conjugate gradients on the unknown (non-Dirichlet) nodes,
preconditioned by the exact flat operator (h = 0, eps = 0),
delta*(Kx (x) Mz) + (Mx (x) Kz) with the Dirichlet row removed.  The 1-D
x-blocks Kx, Mx are circulant, so one real FFT along x splits that
operator into one symmetric positive definite tridiagonal system in z per
wavenumber, all solved by one batched Thomas sweep.  On a flat interface
the preconditioner is the operator and CG stops after one iteration; the
iteration count grows slowly with the steepness eps*h.

All checks here are stationary: the surface datum is prescribed, never
coupled back through the time derivative.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft
import scipy.sparse as sp

from .spectral import GridMismatchError, SpectralField, tanh_clamped

DEGENERACY_FLOOR = 0.05
# CG stops once ||r|| <= CG_RTOL * ||rhs||, and fails after CG_MAXITER steps
CG_RTOL = 1e-13
CG_MAXITER = 500


class DegenerateLiftError(ValueError):
    """min(1 + eps*h) fell at or below the non-degeneracy floor."""


class LinearSolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class StripGrid:
    """Horizontal points on the torus and uniform vertical points on [-1,0]."""

    n_x: int
    n_z: int

    def __post_init__(self):
        if self.n_z < 16:
            raise ValueError("n_z must be at least 16")
        if self.n_x < 8 or self.n_x % 2:
            raise ValueError("n_x must be even and at least 8")

    @property
    def dz(self):
        return 1.0 / (self.n_z - 1)

    @property
    def dx(self):
        return 2.0 * math.pi / self.n_x

    @property
    def z(self):
        return -1.0 + self.dz * np.arange(self.n_z)

    @property
    def x(self):
        return self.dx * np.arange(self.n_x)


class StripSolution:
    """Discrete pullback potential with its solve diagnostics."""

    __slots__ = ("phi", "residual_norm", "iterations", "grid", "delta",
                 "epsilon")

    def __init__(self, phi, residual_norm, iterations, grid, delta, epsilon):
        self.phi = phi
        self.residual_norm = residual_norm
        self.iterations = iterations
        self.grid = grid
        self.delta = delta
        self.epsilon = epsilon


def _field_values(field, n_x):
    if n_x < 2 * field.n_modes + 2:
        raise GridMismatchError(
            f"strip n_x={n_x} cannot resolve a field with {field.n_modes} modes"
        )
    return field.values(n_x)


def _dx_values(vals, order=1):
    """Spectral x-derivative of grid samples (periodic), along axis 0."""
    n = vals.shape[0]
    F = _fft.rfft(vals, axis=0)
    kk = (1j * np.arange(F.shape[0])) ** order
    F = F * (kk[:, None] if vals.ndim > 1 else kk)
    return _fft.irfft(F, n=n, axis=0)


def coefficient_fields(h_vals, hx_vals, z, delta, epsilon):
    """(a, b, c) entries of P at the outer product of x-samples and z."""
    H = h_vals[:, None]
    Hx = hx_vals[:, None]
    Z = np.asarray(z)[None, :]
    opz = 1.0 + epsilon * H
    a = delta * opz * np.ones_like(Z)
    b = -delta * epsilon * (1.0 + Z) * Hx
    c = (1.0 + delta * epsilon**2 * (1.0 + Z) ** 2 * Hx**2) / opz
    return a, b, c


def _check_degeneracy(h_vals, epsilon):
    m = float((1.0 + epsilon * h_vals).min())
    if m <= DEGENERACY_FLOOR:
        raise DegenerateLiftError(
            f"min(1 + eps*h) = {m:.4g} <= {DEGENERACY_FLOOR}; lifting degenerate"
        )


def assemble_P_delta(h, grid, params):
    """Node-sampled coefficient matrix field, shape (n_x, n_z, 2, 2)."""
    hv = _field_values(h, grid.n_x)
    _check_degeneracy(hv, params.epsilon)
    hx = _dx_values(hv)
    a, b, c = coefficient_fields(hv, hx, grid.z, params.delta, params.epsilon)
    out = np.empty((grid.n_x, grid.n_z, 2, 2))
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = b
    out[..., 1, 1] = c
    return out


# Local bilinear-element matrices on a dx-by-dz cell, node order
# (ix, iz) in {0,1}^2 flattened x-major; from the 1-D blocks
#   k1 = [[1,-1],[-1,1]]/L,  m1 = L*[[2,1],[1,2]]/6,  c1[i,j] = int n_i' n_j.
_C1 = np.array([[-0.5, -0.5], [0.5, 0.5]])


def _blocks_1d(L):
    """1-D linear-element stiffness and mass blocks (k1, m1) of length L."""
    k1 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / L
    m1 = L * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    return k1, m1


def _local_blocks(dx, dz):
    k1x, m1x = _blocks_1d(dx)
    k1z, m1z = _blocks_1d(dz)
    kxx = np.kron(k1x, m1z)
    kzz = np.kron(m1x, k1z)
    kxz = np.kron(_C1.T, _C1) + np.kron(_C1, _C1.T)
    return kxx, kzz, kxz


def assemble_system(h, grid, params):
    """Full symmetric stiffness matrix over all nodes (z-fastest ordering)."""
    nx, nz = grid.n_x, grid.n_z
    hv = _field_values(h, nx)
    _check_degeneracy(hv, params.epsilon)
    hx = _dx_values(hv)
    # cell midpoints
    hm = 0.5 * (hv + np.roll(hv, -1))
    hxm = 0.5 * (hx + np.roll(hx, -1))
    zm = -1.0 + grid.dz * (np.arange(nz - 1) + 0.5)
    a, b, c = coefficient_fields(hm, hxm, zm, params.delta, params.epsilon)
    kxx, kzz, kxz = _local_blocks(grid.dx, grid.dz)
    kloc = (
        a[..., None, None] * kxx
        + c[..., None, None] * kzz
        + b[..., None, None] * kxz
    )
    idx = np.arange(nx * nz).reshape(nx, nz)
    i0 = np.arange(nx)
    i1 = (i0 + 1) % nx
    jj = np.arange(nz - 1)
    corners = np.empty((nx, nz - 1, 4), dtype=np.int64)
    corners[:, :, 0] = idx[i0][:, jj]
    corners[:, :, 1] = idx[i0][:, jj + 1]
    corners[:, :, 2] = idx[i1][:, jj]
    corners[:, :, 3] = idx[i1][:, jj + 1]
    rows = np.repeat(corners[..., :, None], 4, axis=3).ravel()
    cols = np.repeat(corners[..., None, :], 4, axis=2).ravel()
    n = nx * nz
    return sp.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def flat_preconditioner(grid, delta):
    """Inverse of the flat (h = 0, eps = 0) operator on the unknown nodes,
    as a function of a flat (n_x * (n_z - 1)) vector in z-fastest order.

    The operator is delta*(Kx (x) Mz) + (Mx (x) Kz), assembled from the
    1-D blocks.  Kx and Mx are circulant with the symbols
    (2 - 2 cos(k dx)) / dx and dx (4 + 2 cos(k dx)) / 6, so after an rfft
    along x, wavenumber k solves the tridiagonal system
    delta*Kx(k) Mz + Mx(k) Kz in z (Dirichlet node dropped, no-flux bottom
    node carrying half an element).  The Thomas factors of every
    wavenumber are computed once here; each application is one rfft, one
    batched forward and back substitution, and one irfft.
    """
    nx, nu = grid.n_x, grid.n_z - 1
    cos_k = np.cos(grid.dx * np.arange(nx // 2 + 1))

    def symbol(b):  # circulant 1-D block in x
        return b[0, 0] + b[1, 1] + 2.0 * b[0, 1] * cos_k

    def tridiag(b):  # 1-D block in z on the unknown nodes: (main, off)
        main = np.full(nu, b[0, 0] + b[1, 1])
        main[0] = b[0, 0]
        return main[:, None], np.full((nu - 1, 1), b[0, 1])

    k1x, m1x = _blocks_1d(grid.dx)
    k1z, m1z = _blocks_1d(grid.dz)
    (mz, mz_off), (kz, kz_off) = tridiag(m1z), tridiag(k1z)
    kx, mx = delta * symbol(k1x), symbol(m1x)
    # rows: z index, columns: wavenumber
    diag = mz * kx + kz * mx
    off = mz_off * kx + kz_off * mx
    lower = np.empty_like(off)
    inv_piv = np.empty_like(diag)
    inv_piv[0] = 1.0 / diag[0]
    for i in range(1, nu):
        lower[i - 1] = off[i - 1] * inv_piv[i - 1]
        inv_piv[i] = 1.0 / (diag[i] - lower[i - 1] * off[i - 1])

    def apply(r):
        y = _fft.rfft(r.reshape(nx, nu).T, axis=1)
        for i in range(1, nu):
            y[i] -= lower[i - 1] * y[i - 1]
        y[nu - 1] *= inv_piv[nu - 1]
        for i in range(nu - 2, -1, -1):
            y[i] = (y[i] - off[i] * y[i + 1]) * inv_piv[i]
        return _fft.irfft(y, n=nx, axis=1).T.ravel()

    return apply


def _pcg(A, b, precond):
    """Preconditioned CG for the SPD matrix A; returns (x, iterations)."""
    x = np.zeros_like(b)
    r = b.copy()
    rnorm = b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x, 0
    z = precond(r)
    p = z
    rz = r @ z
    for it in range(1, CG_MAXITER + 1):
        q = A @ p
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        rnorm = np.linalg.norm(r)
        if not math.isfinite(rnorm):
            raise LinearSolveError("sparse solve failed: non-finite residual "
                                   f"at CG iteration {it}")
        if rnorm <= CG_RTOL * b_norm:
            return x, it
        z = precond(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    raise LinearSolveError(
        f"sparse solve failed: CG did not reach ||r|| <= {CG_RTOL:g}*||rhs|| "
        f"in {CG_MAXITER} iterations (||r|| / ||rhs|| = "
        f"{rnorm / b_norm:.3g})"
    )


def solve_strip(h, psi, grid, params):
    """Solve the flattened problem for the prescribed surface datum psi.

    The unknown nodes are solved by conjugate gradients preconditioned with
    the flat-strip operator (``flat_preconditioner``) to a relative
    residual of CG_RTOL; no factorization is formed.  The Dirichlet row of
    the returned solution equals the supplied datum exactly; the bottom
    no-flux condition is built into the operator.  ``residual_norm`` is the
    true residual ||Auu phi_u - rhs|| of the returned solution.  Raises
    LinearSolveError when CG does not converge within CG_MAXITER
    iterations or produces non-finite values.
    """
    nx, nz = grid.n_x, grid.n_z
    A = assemble_system(h, grid, params)
    psi_vals = _field_values(psi, nx)
    idx = np.arange(nx * nz).reshape(nx, nz)
    d_ids = idx[:, nz - 1].ravel()
    u_ids = idx[:, : nz - 1].ravel()
    Au = A[u_ids]
    Auu = Au[:, u_ids]
    rhs = -(Au[:, d_ids] @ psi_vals)
    phi_u, iterations = _pcg(Auu, rhs, flat_preconditioner(grid, params.delta))
    residual = float(np.linalg.norm(Auu @ phi_u - rhs))
    phi = np.empty((nx, nz))
    phi[:, : nz - 1] = phi_u.reshape(nx, nz - 1)
    phi[:, nz - 1] = psi_vals
    return StripSolution(
        phi, residual, iterations, grid, params.delta, params.epsilon
    )


def surface_normal_velocity(sol, h, grid, params, sigma):
    """(1/sqrt(delta)) dz(Phi) - sigma h_x dx(Phi) at the surface, on x-grid.

    Chain rule through the lifting; 3-point one-sided z-derivative at z=0.
    """
    nz = grid.n_z
    dz = grid.dz
    phi = sol.phi
    hv = _field_values(h, grid.n_x)
    hx = _dx_values(hv)
    phiz = (3.0 * phi[:, nz - 1] - 4.0 * phi[:, nz - 2] + phi[:, nz - 3]) / (2.0 * dz)
    phix = _dx_values(phi[:, nz - 1])
    opz = 1.0 + params.epsilon * hv
    dz_big = phiz / opz
    dx_big = phix - params.epsilon * hx / opz * phiz
    return dz_big / math.sqrt(params.delta) - sigma * hx * dx_big


def dtn_apply(h, psi, grid, params, sigma=None):
    """Surface-data-to-normal-velocity map, mean-projected spectral output."""
    if sigma is None:
        sigma = params.sigma
    sol = solve_strip(h, psi, grid, params)
    vals = surface_normal_velocity(sol, h, grid, params, sigma)
    out = SpectralField.from_values(vals, n_modes=psi.n_modes)
    out.coeffs[0] = 0.0
    return out


def flat_dtn_symbol(delta):
    """Exact flat-interface map per mode: k tanh(sqrt(delta) k)."""
    sd = math.sqrt(delta)
    return lambda k: np.abs(k) * tanh_clamped(sd * np.abs(k)) / 1.0


# ---------------------------------------------------------------------------
# order-verification reports
# ---------------------------------------------------------------------------

class OrderReport:
    """Remainder-vs-parameter fit: log-log slope and correlation."""

    def __init__(self, parameter, values, remainders, expected_slope,
                 floor=None, grid_limited=False, extra=None):
        self.parameter = parameter
        self.values = list(values)
        self.remainders = [float(r) for r in remainders]
        if all(r > 0.0 for r in self.remainders) and len(self.remainders) >= 2:
            lv = np.log(self.values)
            lr = np.log(self.remainders)
            self.slope = float(np.polyfit(lv, lr, 1)[0])
            if np.ptp(lr) > 1e-12:
                self.correlation = float(np.corrcoef(lv, lr)[0, 1])
            else:  # flat remainders: no order information in the fit
                self.correlation = float("nan")
        else:  # vanishing remainders carry no order information
            self.slope = float("nan")
            self.correlation = float("nan")
        self.expected_slope = expected_slope
        self.floor = floor
        self.grid_limited = grid_limited
        self.extra = extra or {}

    def as_dict(self):
        return {
            "parameter": self.parameter,
            "values": self.values,
            "remainders": self.remainders,
            "slope": self.slope,
            "correlation": self.correlation,
            "expected_slope": self.expected_slope,
            "discretization_floor": self.floor,
            "grid_limited": self.grid_limited,
            **self.extra,
        }


def _a0_of_values(vals):
    F = _fft.rfft(vals)
    return 2.0 * float(np.abs(F[1:]).sum()) / len(vals)


def verify_dtn_expansion(h, psi, sigmas, grid, params):
    """Remainder order of the small-steepness expansion of the surface map.

    Compares the solved map against  G0 psi - sigma (G0(h G0 psi) +
    dx(h dx psi))  for each steepness, with the flat-interface solve used to
    estimate the discretization floor; requires delta = 1 (the order-one
    depth regime, where the interface height is sigma*h).
    """
    if abs(params.delta - 1.0) > 1e-12:
        raise ValueError("the steepness expansion check runs at delta = 1")
    from dataclasses import replace

    nx = grid.n_x
    hv = _field_values(h, nx)
    psiv = _field_values(psi, nx)
    g0 = flat_dtn_symbol(1.0)

    def g0_vals(vals):
        F = _fft.rfft(vals)
        kk = np.arange(F.shape[0])
        return _fft.irfft(F * g0(kk), n=nx)

    taylor1 = -(g0_vals(hv * g0_vals(psiv)) + _dx_values(hv * _dx_values(psiv)))
    flat = replace(params, epsilon=0.0, sigma=0.0)
    sol0 = solve_strip(SpectralField.zeros(h.n_modes), psi, grid, flat)
    out0 = surface_normal_velocity(
        sol0, SpectralField.zeros(h.n_modes), grid, flat, 0.0
    )
    floor = _a0_of_values(out0 - g0_vals(psiv))

    remainders = []
    first_order_errors = []
    for s in sorted(sigmas, reverse=True):
        p_s = replace(params, epsilon=float(s), sigma=float(s))
        sol = solve_strip(h, psi, grid, p_s)
        out = surface_normal_velocity(sol, h, grid, p_s, float(s))
        remainders.append(_a0_of_values(out - (g0_vals(psiv) + s * taylor1)))
        first_order_errors.append(_a0_of_values((out - out0) / s - taylor1))
    sig = sorted(sigmas, reverse=True)
    grid_limited = floor > 0.1 * min(remainders)
    return OrderReport(
        "sigma",
        sig,
        remainders,
        expected_slope=2.0,
        floor=floor,
        grid_limited=grid_limited,
        extra={"first_order_errors": first_order_errors},
    )


def _simpson(y, dx):
    """Composite Simpson's rule along axis 1 of samples spaced by dx.

    The arithmetic of scipy 1.17's ``simpson(y, dx=dx, axis=1)``, in its
    operation order: pairs of intervals for an odd number of samples; for
    an even number, pairs up to the third-to-last sample plus Cartwright's
    correction for the last interval.  The package does not import scipy's
    integration subpackage, whose start-up every process would pay.
    """
    n = y.shape[1]
    last = n - 2 if n % 2 else n - 3
    out = np.sum(y[:, 0:last:2] + 4.0 * y[:, 1:last + 1:2]
                 + y[:, 2:last + 2:2], axis=1)
    out *= dx / 3.0
    if n % 2 == 0:
        h = np.float64(dx)
        alpha = (2 * h**2 + 3 * h * h) / (6 * (h + h))
        beta = (h**2 + 3.0 * h * h) / (6 * h)
        eta = h**3 / (6 * h * (h + h))
        out += alpha * y[:, -1] + beta * y[:, -2] - eta * y[:, -3]
    return out


def verify_lub_flux(h, f, deltas, grid, params):
    """Remainder order of the long-wave flux and potential expansions.

    The exact discrete horizontal flux integral
        q = int_{-1}^{0} (1+eps*h) dx(phi) - eps (1+z) h_x dz(phi) dz
    is compared with its first-order expansion

        (1+eps*h) dx(f) + (delta/3) dx((1+eps*h)^3 dxx(f)),

    and the solved potential with  f + delta*phi1,
    phi1 = -z(z+2)/2 (1+eps*h)^2 dxx(f).  Both expansions reduce to the
    flat-mobility forms dx f + (delta/3) dxxx f and -z(z+2)/2 dxx f when
    h = 0, and both remainders are second order in delta.
    """
    from dataclasses import replace

    nx, nz = grid.n_x, grid.n_z
    eps = params.epsilon
    hv = _field_values(h, nx)
    hx = _dx_values(hv)
    fv = _field_values(f, nx)
    fx = _dx_values(fv)
    fxx = _dx_values(fv, 2)
    mob = 1.0 + eps * hv
    z = grid.z
    flux_rem, phi_rem = [], []
    dts = sorted(deltas, reverse=True)
    for d in dts:
        p_d = replace(
            params, delta=float(d), sigma=eps * math.sqrt(float(d)),
            model=params.model,
        )
        sol = solve_strip(h, f, grid, p_d)
        phi = sol.phi
        phix = _dx_values(phi)
        phiz = np.empty_like(phi)
        dz = grid.dz
        phiz[:, 1:-1] = (phi[:, 2:] - phi[:, :-2]) / (2.0 * dz)
        phiz[:, 0] = (-3.0 * phi[:, 0] + 4.0 * phi[:, 1] - phi[:, 2]) / (2.0 * dz)
        phiz[:, -1] = (3.0 * phi[:, -1] - 4.0 * phi[:, -2] + phi[:, -3]) / (2.0 * dz)
        integrand = mob[:, None] * phix - eps * (1.0 + z)[None, :] * hx[:, None] * phiz
        q = _simpson(integrand, dz)
        asym_flux = mob * fx + (d / 3.0) * _dx_values(mob**3 * fxx)
        flux_rem.append(_a0_of_values(q - asym_flux))
        phi1 = -0.5 * z[None, :] * (z[None, :] + 2.0) * (mob**2 * fxx)[:, None]
        phi_rem.append(float(np.abs(phi - (fv[:, None] + d * phi1)).max()))
    flux_report = OrderReport("delta", dts, flux_rem, expected_slope=2.0)
    phi_report = OrderReport("delta", dts, phi_rem, expected_slope=2.0)
    return flux_report, phi_report
