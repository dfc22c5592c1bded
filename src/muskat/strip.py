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
cell midpoints.  The stiffness matrix couples each node to its eight
neighbours only; its rows of the unknown (non-Dirichlet) nodes are kept
as a 9-point stencil on the grid (periodic in x) and the top row's
couplings to the datum as three x-arrays, summed from the 4x4 cell
matrices one entry at a time (no cell-matrix tensor, no sparse matrix).
The operator is exactly symmetric, bit for bit, so the stencil stores
only its 5 independent planes, each with an x-wrap pad, and reads the 4
mirrored ones from them at the neighbour's offset.  The scheme is
conservative and second order, and the bottom condition is the natural
boundary condition of the quadratic form.  The solve never touches the
Fourier-side model operators; the surface-map check holds it against the
models' own B(h, psi).

Linear solve: conjugate gradients on the unknown nodes, with the stencil
as operator and minus the datum's couplings as right-hand side,
preconditioned by the exact inverse of the flat operator
(h = 0, eps = 0), delta*(Kx (x) Mz) + (Mx (x) Kz) with the Dirichlet row
removed.  The 1-D x-blocks Kx, Mx are circulant, so a real FFT along x
diagonalizes them; the z-blocks Kz, Mz share the cosine eigenbasis of the
half-cell-Neumann/Dirichlet second difference, so a DCT along z
diagonalizes them (``flat_preconditioner``).  On a flat interface the
preconditioner is the operator's inverse and CG stops after one
iteration; the iteration count grows slowly with the steepness eps*h.

All checks here are stationary: the surface datum is prescribed, never
coupled back through the time derivative.
"""

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .elliptic import SolverError
from .models import _bilinear_form
from .spectral import (SpectralField, check_same_grid, dct, depth_symbol,
                       derivative_symbol, irfft, rfft)

DEGENERACY_FLOOR = 0.05
# CG stops once ||r|| <= CG_RTOL * ||rhs||, and fails after CG_MAXITER steps
CG_RTOL = 1e-13
CG_MAXITER = 500
# elements per chunk of the stencil product: its output and term slices
# (256 kB each) stay in cache across the 9 terms.  At 512x256 a product
# took 3.4 ms in one pass, 2.8 ms in chunks of 8,192 and 2.4 ms in chunks
# of 32,768; 256x65 (17k elements, one chunk) is unchanged
STENCIL_CHUNK = 32768


class DegenerateLiftError(ValueError):
    """min(1 + eps*h) fell at or below the non-degeneracy floor."""


class LinearSolveError(SolverError):
    """CG did not converge on the strip; a SolverError (CLI exit code 2)."""


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


@dataclass(slots=True)
class StripSolution:
    """Discrete pullback potential with its solve diagnostics."""

    phi: np.ndarray
    residual_norm: float
    iterations: int


def _x_multiplier(vals, symbol):
    """The Fourier multiplier ``symbol`` (a callable k -> m(k), as in
    ``spectral``) applied to periodic grid samples along axis 0."""
    F = rfft(vals, axis=0)
    m = symbol(np.arange(F.shape[0], dtype=float))
    return irfft(F * (m[:, None] if vals.ndim > 1 else m), vals.shape[0],
                 axis=0)


DX, G0 = derivative_symbol(1), depth_symbol("finite")  # d/dx, flat map


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


def _add_cells(dst, src, ax):
    """dst += src, with node i taking cell i - ax (periodic in x): for
    ax = 1 the rolled cells as two slice additions, not an np.roll copy."""
    if ax:
        dst[1:] += src[:-1]
        dst[:1] += src[-1:]
    else:
        dst += src


def assemble_system(h, grid, params):
    """The stiffness matrix's rows of the unknown nodes as the 5 independent
    planes of a 9-point stencil, and their couplings to the datum.

    Plane d = 3 (1 + dx) + 1 + dz couples node (i, j), at the flat
    z-fastest index n = i m + j (m = n_z - 1), to its neighbour
    ((i + dx) mod n_x, j + dz), at the flat offset dx m + dz, and is 0
    where j + dz leaves the unknown rows [0, m).  Returns (C, top): C
    holds the planes d = 0..4 as 5 flat arrays of n_x m + m + 1 entries,
    each plane followed by an x-wrap pad that repeats its first m + 1
    entries; top[1 + dx, i] couples node (i, m - 1) to the datum at
    (i + dx) mod n_x.  Plane d >= 5 at n is plane 8 - d at the
    neighbour, n + dx m + dz, which the pads reach across the x wrap, so
    it is not stored.

    Node (i, j) is corner (ax, az) of cell (i - ax, j - az).  Each
    cell-matrix entry that reaches a stored plane or the datum is formed
    as one (n_x, m) array in a reused buffer and added into its slice, so
    a stencil entry adds the cells that hold both nodes in ascending cell
    order, the order a COO-to-CSR conversion sums them in (away from the x
    wrap).  That order is the same for plane d at n as for plane 8 - d at
    the neighbour, so the two are equal bit for bit.
    """
    nx, nu = grid.n_x, grid.n_z - 1
    n, w = nx * nu, nu + 1
    hv = h.values(nx)
    _check_degeneracy(hv, params.epsilon)
    hx = _x_multiplier(hv, DX)
    # cell midpoints
    hm = 0.5 * (hv + np.roll(hv, -1))
    hxm = 0.5 * (hx + np.roll(hx, -1))
    zm = -1.0 + grid.dz * (np.arange(nu) + 0.5)
    a, b, c = coefficient_fields(hm, hxm, zm, params.delta, params.epsilon)
    kxx, kzz, kxz = _local_blocks(grid.dx, grid.dz)
    # 5 arrays, not one (5, n + w) block: each is the size of a solve
    # vector, so a later solve reuses their freed heap space
    C = [np.zeros(n + w) for _ in range(5)]
    planes = [plane[:n].reshape(nx, nu) for plane in C]
    top = np.zeros((3, nx))
    entry, term = np.empty((nx, nu)), np.empty((nx, nu))
    for ax in (1, 0):
        for az in (1, 0):
            for bx in (0, 1):
                for bz in (0, 1):
                    d = 3 * (1 + bx - ax) + 1 + bz - az
                    if d > 4 and bz <= az:  # mirrored, no datum coupling
                        continue
                    p, q = 2 * ax + az, 2 * bx + bz
                    np.multiply(a, kxx[p, q], out=entry)
                    entry += np.multiply(c, kzz[p, q], out=term)
                    entry += np.multiply(b, kxz[p, q], out=term)
                    if d < 5:  # the cells whose two nodes are unknown
                        m = nu - (az or bz)
                        _add_cells(planes[d][:, az:az + m], entry[:, :m], ax)
                    if bz > az:  # the top cell's corner (., nu) is the datum
                        _add_cells(top[1 + bx - ax], entry[:, -1], ax)
    for plane in C:
        plane[n:] = plane[:w]
    return C, top


def stencil_apply(C, x):
    """y(n) = sum over the 9 planes d of C[d](n) x(n + dx m + dz) on the flat
    z-fastest index n of x, shape (n_x, m), for the 5 stored planes C of
    ``assemble_system`` (0 where j + dz leaves [0, m)).

    The neighbour's offset wraps in x.  A coefficient that reaches past a
    z boundary is 0, so the value it would read does not matter.  The
    terms run in plane order 0..8; plane d >= 5 is plane 8 - d read at the
    neighbour's offset, in its pad past the x wrap.  The sum runs over
    chunks of STENCIL_CHUNK elements that stay in cache, in the same
    per-element order as one pass over the whole array (the same bits).
    """
    nx, m = x.shape
    n = nx * m
    w = m + 1
    flat = x.ravel()
    padded = np.concatenate((flat[n - w:], flat, flat[:w]))
    y = np.empty(n)
    term = np.empty(min(n, STENCIL_CHUNK))
    for lo in range(0, n, STENCIL_CHUNK):
        hi = min(lo + STENCIL_CHUNK, n)
        out = y[lo:hi]
        t = term[: hi - lo]
        np.multiply(C[0][lo:hi], padded[lo:hi], out=out)
        for d in range(1, 9):
            start = (d // 3) * m + d % 3 + lo  # lo + offset + w
            coeff = (C[d][lo:hi] if d < 5
                     else C[8 - d][start - w:start - w + hi - lo])
            np.multiply(coeff, padded[start:start + hi - lo], out=t)
            out += t
    return y.reshape(nx, m)


def flat_preconditioner(grid, delta):
    """Inverse of the flat (h = 0, eps = 0) operator on the unknown nodes,
    as a function of a flat (n_x * (n_z - 1)) vector in z-fastest order.

    The operator is delta*(Kx (x) Mz) + (Mx (x) Kz).  Kx, Mx are circulant
    with the symbols kx = (2 - 2 cos(k dx))/dx, mx = dx (4 + 2 cos(k dx))/6.
    On the nu = n_z - 1 unknown z nodes (no-flux bottom node carrying half
    an element), Kz = A/dz and Mz = (dz/6)(6E - A), with A = tridiag(-1, 2,
    -1) but A[0, 0] = 1 and E = diag(1/2, 1, ..., 1).  The cosines
    v_m(i) = cos(w_m i), w_m = (2m + 1) pi / (2 nu), solve A v_m =
    lam_m E v_m, lam_m = 2 - 2 cos w_m (the last row as cos(w_m nu) = 0),
    and V^T E V = (nu/2) I.  So per wavenumber the inverse is
    (2/nu) V diag(1/s) V^T, s = delta kx (dz/6)(6 - lam_m) + mx lam_m/dz;
    the unnormalized DCT-III of r with row 0 doubled is 2 V^T r, and the
    DCT-II of y is 2 V y.
    """
    nx, nu, dx, dz = grid.n_x, grid.n_z - 1, grid.dx, grid.dz
    cos_k = np.cos(dx * np.arange(nx // 2 + 1))[:, None]
    kx = (2.0 - 2.0 * cos_k) / dx
    mx = dx * (4.0 + 2.0 * cos_k) / 6.0
    lam = 2.0 - 2.0 * np.cos((2 * np.arange(nu) + 1) * math.pi / (2 * nu))
    s = delta * kx * (dz / 6.0) * (6.0 - lam) + mx * lam / dz
    scale = 1.0 / (2 * nu * s)
    row0 = np.ones(nu)
    row0[0] = 2.0

    def apply(r):
        y = rfft(dct(r.reshape(nx, nu) * row0, 3, axis=1), axis=0)
        y *= scale
        return dct(irfft(y, nx, axis=0), 2, axis=1).ravel()

    return apply


def _pcg(A, b, precond):
    """Preconditioned CG for the SPD operator A (a function of a vector
    returning a new array; precond too); returns (x, iterations).  The
    updates run in place, in the bits of the textbook expressions."""
    x = np.zeros_like(b)
    r = b.copy()
    rnorm = b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x, 0
    z = precond(r)
    p = z
    rz = r @ z
    for it in range(1, CG_MAXITER + 1):
        q = A(p)
        alpha = rz / (p @ q)
        r -= np.multiply(q, alpha, out=q)
        x += np.multiply(p, alpha, out=q)
        del q  # freed before the next product
        rnorm = np.linalg.norm(r)
        if not math.isfinite(rnorm):
            raise LinearSolveError("strip CG solve failed: non-finite "
                                   f"residual at CG iteration {it}")
        if rnorm <= CG_RTOL * b_norm:
            return x, it
        z = precond(r)
        rz, rz_old = r @ z, rz
        p *= rz / rz_old
        p += z
    raise LinearSolveError(
        f"strip CG solve failed: CG did not reach ||r|| <= {CG_RTOL:g}"
        f"*||rhs|| in {CG_MAXITER} iterations (||r|| / ||rhs|| = "
        f"{rnorm / b_norm:.3g})"
    )


def solve_strip(h, psi, grid, params):
    """Solve the flattened problem for the prescribed surface datum psi.

    The unknown nodes are solved by conjugate gradients on the stencil of
    ``assemble_system`` (right-hand side: minus its couplings times the
    datum), preconditioned with the flat-strip operator
    (``flat_preconditioner``), to a relative residual of CG_RTOL; no
    factorization is formed.  The Dirichlet row of the returned solution
    equals the supplied datum exactly; the bottom no-flux condition is
    built into the operator.  ``residual_norm`` is the true residual
    ||Auu phi_u - rhs|| of the returned solution.  Raises LinearSolveError
    when CG does not converge within CG_MAXITER iterations or produces
    non-finite values.
    """
    nx, nu = grid.n_x, grid.n_z - 1
    C, top = assemble_system(h, grid, params)
    psi_vals = psi.values(nx)
    # rhs: minus the couplings of the top unknown row to the datum
    rhs = np.zeros((nx, nu))
    rhs[:, nu - 1] = -(top[0] * np.roll(psi_vals, 1) + top[1] * psi_vals
                       + top[2] * np.roll(psi_vals, -1))
    rhs = rhs.ravel()

    def Auu(p):
        return stencil_apply(C, p.reshape(nx, nu)).ravel()

    phi_u, iterations = _pcg(Auu, rhs, flat_preconditioner(grid, params.delta))
    residual = Auu(phi_u)
    residual -= rhs
    residual = float(np.linalg.norm(residual))
    phi = np.empty((nx, nu + 1))
    phi[:, :nu] = phi_u.reshape(nx, nu)
    phi[:, nu] = psi_vals
    return StripSolution(phi, residual, iterations)


def surface_normal_velocity(h, psi, grid, params):
    """(1/sqrt(delta)) dz(Phi) - sigma h_x dx(Phi) at the surface, on the
    x-grid, of the strip solution for the datum psi (``solve_strip``).

    Chain rule through the lifting; 3-point one-sided z-derivative at z=0.
    """
    phi = solve_strip(h, psi, grid, params).phi
    hv = h.values(grid.n_x)
    hx = _x_multiplier(hv, DX)
    phiz = (3.0 * phi[:, -1] - 4.0 * phi[:, -2] + phi[:, -3]) / (2.0 * grid.dz)
    phix = _x_multiplier(phi[:, -1], DX)
    opz = 1.0 + params.epsilon * hv
    dz_big = phiz / opz
    dx_big = phix - params.epsilon * hx / opz * phiz
    return dz_big / math.sqrt(params.delta) - params.sigma * hx * dx_big


def dtn_apply(h, psi, grid, params):
    """Surface-data-to-normal-velocity map, mean-projected spectral output."""
    out = SpectralField.from_values(
        surface_normal_velocity(h, psi, grid, params), n_modes=psi.n_modes)
    out.coeffs[0] = 0.0
    return out


# ---------------------------------------------------------------------------
# order-verification reports
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class OrderReport:
    """Remainder-vs-parameter fit: log-log slope and correlation.  The
    surface-map and flux remainders (dtn's floor and first-order errors too)
    are 2 sum_{k>=1} |F_k| / m over the rfft of m samples (``_a0_of_values``):
    A0 / sqrt(2 pi), the Nyquist bin twice (cos x: 1); phi's a max norm."""

    parameter: str
    values: list
    remainders: list
    expected_slope: float
    floor: float | None = None
    grid_limited: bool = False
    extra: dict = field(default_factory=dict)
    slope: float = field(init=False)
    correlation: float = field(init=False)

    def __post_init__(self):
        # vanishing remainders carry no order information, nor do flat ones
        # in the correlation
        self.slope = self.correlation = float("nan")
        if all(r > 0.0 for r in self.remainders) and len(self.remainders) >= 2:
            lv = np.log(self.values)
            lr = np.log(self.remainders)
            self.slope = float(np.polyfit(lv, lr, 1)[0])
            if np.ptp(lr) > 1e-12:
                self.correlation = float(np.corrcoef(lv, lr)[0, 1])

    @property
    def passed(self):
        """The fitted slope lies within 0.2 of the expected order."""
        return (self.expected_slope - 0.2 <= self.slope
                <= self.expected_slope + 0.2)

    def as_dict(self):
        d = asdict(self)
        d["discretization_floor"] = d.pop("floor")
        d.update(d.pop("extra"))
        return d


def _a0_of_values(vals):
    F = rfft(vals)
    return 2.0 * float(np.abs(F[1:]).sum()) / len(vals)


def _order_values(values, name):
    """The parameter values of an order check as floats, largest first;
    raises ValueError unless they are positive and at least two differ."""
    vals = sorted((float(v) for v in values), reverse=True)
    if not all(v > 0.0 for v in vals) or len(set(vals)) < 2:
        raise ValueError(f"{name} must hold at least two distinct positive "
                         f"values, got {list(values)}")
    return vals


def verify_dtn_expansion(h, psi, sigmas, grid, params):
    """Remainder order of the small-steepness expansion of the surface map.

    Compares the solved map against  G0 psi - sigma B(h, psi)  for each
    steepness, with the flat-interface solve used to estimate the
    discretization floor; requires delta = 1 (the order-one depth regime,
    where the interface height is sigma*h).  B is the models' finite-depth
    form (``models._bilinear_form``), truncated at n_modes, so h's highest
    mode plus psi's must not exceed n_modes (ValueError before any solve).
    """
    if abs(params.delta - 1.0) > 1e-12:
        raise ValueError("the steepness expansion check runs at delta = 1")
    sig = _order_values(sigmas, "sigmas")
    check_same_grid(h, psi)
    top = sum(int(np.flatnonzero(f.coeffs).max(initial=0)) for f in (h, psi))
    if top > h.n_modes:
        raise ValueError(f"h's top mode plus psi's, {top}, exceeds n_modes")
    nx = grid.n_x
    g0_psi = _x_multiplier(psi.values(nx), G0)
    taylor1 = -SpectralField(_bilinear_form(h.coeffs, psi.coeffs, "finite"),
                             copy=False).values(nx)
    h0 = SpectralField.zeros(h.n_modes)
    flat = replace(params, epsilon=0.0, sigma=0.0)
    out0 = surface_normal_velocity(h0, psi, grid, flat)
    floor = _a0_of_values(out0 - g0_psi)

    def errors(s):
        """The remainder and first-order error at sigma = s; one sigma's
        solution is freed before the next one's solve."""
        p_s = replace(params, epsilon=s, sigma=s)
        out = surface_normal_velocity(h, psi, grid, p_s)
        return (_a0_of_values(out - (g0_psi + s * taylor1)),
                _a0_of_values((out - out0) / s - taylor1))

    remainders, first_order_errors = map(list, zip(*map(errors, sig)))
    return OrderReport("sigma", sig, remainders, expected_slope=2.0,
                       floor=floor, grid_limited=floor > 0.1 * min(remainders),
                       extra={"first_order_errors": first_order_errors})


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
    dts = _order_values(deltas, "deltas")
    nx, dz, z = grid.n_x, grid.dz, grid.z
    eps = params.epsilon
    hv = h.values(nx)
    hx = _x_multiplier(hv, DX)
    fv = f.values(nx)
    fx = _x_multiplier(fv, DX)
    fxx = _x_multiplier(fv, derivative_symbol(2))
    mob = 1.0 + eps * hv

    def remainders(d):
        """The flux and potential remainders at delta = d; the arrays of
        one delta are freed before the next one's solve."""
        p_d = replace(params, delta=d, sigma=eps * math.sqrt(d))
        phi = solve_strip(h, f, grid, p_d).phi
        phix = _x_multiplier(phi, DX)
        phiz = np.empty_like(phi)
        np.subtract(phi[:, 2:], phi[:, :-2], out=phiz[:, 1:-1])
        phiz[:, 0] = -3.0 * phi[:, 0] + 4.0 * phi[:, 1] - phi[:, 2]
        phiz[:, -1] = 3.0 * phi[:, -1] - 4.0 * phi[:, -2] + phi[:, -3]
        phiz /= 2.0 * dz
        # the integrand mob dx(phi) - eps (1+z) h_x dz(phi), built in phix
        phix *= mob[:, None]
        phiz *= eps * (1.0 + z)[None, :] * hx[:, None]
        phix -= phiz
        q = _simpson(phix, dz)
        asym_flux = mob * fx + (d / 3.0) * _x_multiplier(mob**3 * fxx, DX)
        # phi - (f + d phi1), built in phi1
        phi1 = -0.5 * z[None, :] * (z[None, :] + 2.0) * (mob**2 * fxx)[:, None]
        phi1 *= d
        phi1 += fv[:, None]
        np.subtract(phi, phi1, out=phi1)
        np.abs(phi1, out=phi1)
        return _a0_of_values(q - asym_flux), float(phi1.max())

    flux_rem, phi_rem = map(list, zip(*map(remainders, dts)))
    flux_report = OrderReport("delta", dts, flux_rem, expected_slope=2.0)
    phi_report = OrderReport("delta", dts, phi_rem, expected_slope=2.0)
    return flux_report, phi_report
