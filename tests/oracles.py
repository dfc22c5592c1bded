"""Reference routes the tests hold the program against.

The spectral ones work on coefficient arrays, through numpy alone, and
share no code with ``muskat``:

* ``pointwise_product`` is the dealiased product of two half spectra on
  the 4N padded grid, through ``numpy.fft``;
* ``convolve_truncated`` is the same product as a literal truncated
  convolution of full spectra, with ``full_spectrum``/``half_spectrum``
  converting between the layouts;
* ``naive_commutator`` composes I(h, V) term by term from
  ``pointwise_product``, the reference for the small-slope perturbation
  (the program takes it from the sweep it steps with).

Half spectra are ``c[k]``, k = 0..N, of a real field under the package's
symmetric convention; full spectra are ``f[m + N]``, m = -N..N.

The strip ones form every cell's bilinear-element matrix at once
(``cell_matrices``: P sampled at the cell midpoints by the program's
``coefficient_fields``, a (4, 4, n_x, n_z - 1) tensor) and hold the
program's streamed 9-point stencil against it:

* ``full_stencil`` scatters the cell matrices into all 9 planes of a
  stencil over all nodes, Dirichlet row included, in the program's
  summation order, so its unknown rows and its couplings to the datum
  must equal ``strip.assemble_system``'s bit for bit;
* ``unfold_stencil`` rebuilds the 9 planes from the 5 that
  ``strip.assemble_system`` stores, by the mirror relation alone;
* ``csr_system`` scatters every cell matrix into a scipy CSR matrix over
  all nodes (z-fastest node order), summing the shared entries;
* ``lu_strip_solve`` solves its unknown block by a sparse LU.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from muskat import strip

SQRT_2PI = math.sqrt(2.0 * math.pi)


def pointwise_product(a, b):
    """Half spectrum of the product of the fields with half spectra a, b.

    Both are sampled on the 4N grid, so the retained coefficients equal the
    exact truncated convolution; the mean mode is kept.
    """
    n = len(a) - 1
    m = 4 * n
    av = np.fft.irfft(a, n=m) * (m / SQRT_2PI)
    bv = np.fft.irfft(b, n=m) * (m / SQRT_2PI)
    return np.fft.rfft(av * bv)[: n + 1] * (SQRT_2PI / m)


def naive_commutator(h, v, depth):
    """I(h, V) = G(h G dxx V) + dx(h dxxx V) of the half spectra h, v, with
    G = |k| tanh|k| (finite depth) or |k|; the mean mode is set to 0."""
    k = np.arange(len(h), dtype=float)
    G = k * np.tanh(k) if depth == "finite" else k
    ik = 1j * k
    out = (G * pointwise_product(h, G * ik**2 * v)
           + ik * pointwise_product(h, ik**3 * v))
    out[0] = 0.0
    return out


def full_spectrum(half):
    """Half spectrum c[k], k=0..N (real field) -> full spectrum f[m+N], m=-N..N."""
    half = np.asarray(half, dtype=complex)
    neg = np.conj(half[1:][::-1])
    return np.concatenate([neg, half])


def half_spectrum(full):
    """Full spectrum f[m+N] -> half spectrum c[k], k=0..N."""
    n = (len(full) - 1) // 2
    return np.asarray(full[n:], dtype=complex).copy()


def convolve_truncated(af, bf):
    """Truncated convolution sum_m a(m) b(k-m) for |k|,|m|,|k-m| <= N.

    Unnormalized: the sqrt(2*pi) product convention is applied by callers.
    """
    af = np.ascontiguousarray(af, dtype=complex)
    bf = np.ascontiguousarray(bf, dtype=complex)
    # np.convolve gives modes -2N..2N at positions k+2N; keep |k| <= N
    n = (len(af) - 1) // 2
    return np.convolve(af, bf)[n : 3 * n + 1]


def cell_matrices(h, grid, params):
    """The 4x4 bilinear-element matrix of every cell, shape (4, 4, n_x,
    n_z - 1): cell (i, j) has the corners (i, j), (i, j+1), (i+1, j),
    (i+1, j+1) (x periodic), local index 2*ix + iz, and each entry is one
    contiguous (n_x, n_z - 1) array."""
    nx, nz = grid.n_x, grid.n_z
    hv = h.values(nx)
    hx = strip._x_multiplier(hv, strip.DX)
    hm = 0.5 * (hv + np.roll(hv, -1))
    hxm = 0.5 * (hx + np.roll(hx, -1))
    zm = -1.0 + grid.dz * (np.arange(nz - 1) + 0.5)
    a, b, c = strip.coefficient_fields(hm, hxm, zm, params.delta,
                                       params.epsilon)
    kxx, kzz, kxz = (blk[:, :, None, None]
                     for blk in strip._local_blocks(grid.dx, grid.dz))
    return kxx * a + kzz * c + kxz * b


def full_stencil(h, grid, params):
    """The stiffness matrix over all nodes as a 9-point stencil, shape (3,
    3, n_x, n_z): C[1 + dx, 1 + dz, i, j] couples node (i, j) to node
    ((i + dx) mod n_x, j + dz), and is 0 where j + dz leaves [0, n_z).
    Node (i, j) is corner (ax, az) of cell (i - ax, j - az); each entry
    adds the cells that hold both nodes in ascending cell order."""
    nx, nz = grid.n_x, grid.n_z
    kloc = cell_matrices(h, grid, params)
    C = np.zeros((3, 3, nx, nz))
    for ax in (1, 0):
        for az in (1, 0):
            nodes = slice(az, nz - 1 + az)  # node rows j = cell row + az
            for bx in (0, 1):
                for bz in (0, 1):
                    entry = kloc[2 * ax + az, 2 * bx + bz]
                    if ax:  # cell i - 1 of node i
                        entry = np.roll(entry, 1, axis=0)
                    C[1 + bx - ax, 1 + bz - az, :, nodes] += entry
    return C


def unfold_stencil(C, nx, m):
    """The 9 planes, shape (3, 3, n_x, m), of a stencil stored as its
    planes d = 0..4, flat arrays on the z-fastest index
    (``strip.assemble_system``): plane d >= 5 at n is plane 8 - d at
    n + dx m + dz, d = 3 (1 + dx) + 1 + dz, taken modulo n_x m by
    ``np.roll``, not from the stored pads."""
    n = nx * m
    planes = [C[d][:n] for d in range(5)]
    for d in range(5, 9):
        planes.append(np.roll(C[8 - d][:n], -((d // 3 - 1) * m + d % 3 - 1)))
    return np.array(planes).reshape(3, 3, nx, m)


def csr_system(h, grid, params):
    """The strip's stiffness matrix over all nodes as a CSR matrix."""
    nx, nz = grid.n_x, grid.n_z
    kloc = cell_matrices(h, grid, params).transpose(2, 3, 0, 1)
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


def lu_strip_solve(h, psi, grid, params):
    """The unknown rows of the strip solution, shape (n_x, n_z - 1), from a
    sparse LU of ``csr_system``'s unknown block."""
    nx, nz = grid.n_x, grid.n_z
    A = csr_system(h, grid, params)
    idx = np.arange(nx * nz).reshape(nx, nz)
    u_ids, d_ids = idx[:, :-1].ravel(), idx[:, -1]
    rhs = -(A[u_ids][:, d_ids] @ psi.values(nx))
    return spla.splu(A[u_ids][:, u_ids].tocsc()).solve(rhs).reshape(nx, nz - 1)
