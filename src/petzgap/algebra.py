"""Finite-dimensional von Neumann subalgebras and their trace-preserving
conditional expectations.

A subalgebra of M_d is described in a canonical block form: after rotating by
the spec's basis unitary V (columns = canonical basis), the algebra is a
direct sum over blocks (n, m) of M_n (x) 1_m. The conditional expectation
averages each block over its multiplicity factor:

    E(X) block = (1/m) * (partial trace over the multiplicity factor) (x) 1_m

which is the unique trace-preserving projection onto the algebra. The n x n
averages are the block cores of E(X), formed in one place (block_cores), so
E(X) = V ((+) core (x) 1_m) V^H and its spectrum is the spectra of the
cores: expectation_eigh diagonalizes E(X) through them, with no eigh of a
d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SpecInconsistent
from .linalg import SpectralDecomposition, as_matrix, fill, kept, value
from .states import swap_factors_unitary, trace_slots

UNITARY_TOL = 1e-10


@dataclass(eq=False)
class SubalgebraSpec:
    """dim, blocks [(n, m), ...] with sum n*m = dim, optional basis unitary.

    basis=None means the identity rotation.
    """

    dim: int
    blocks: list
    basis: np.ndarray | None = None

    def __post_init__(self):
        blocks = [(int(n), int(m)) for n, m in self.blocks]
        if any(n < 1 or m < 1 for n, m in blocks):
            raise SpecInconsistent("block sizes must be positive")
        if sum(n * m for n, m in blocks) != self.dim:
            raise SpecInconsistent(
                f"blocks {blocks} do not fill dimension {self.dim}")
        self.blocks = blocks
        if self.basis is not None:
            v = as_matrix(self.basis)
            if v.shape != (self.dim, self.dim):
                raise SpecInconsistent("basis has wrong shape")
            if np.abs(v.conj().T @ v - np.eye(self.dim)).max() > UNITARY_TOL:
                raise SpecInconsistent("basis is not unitary to tolerance")
            self.basis = v


def trivial_spec(dim: int) -> SubalgebraSpec:
    """C * identity: one (1, dim) block."""
    return SubalgebraSpec(dim=dim, blocks=[(1, dim)])


def full_spec(dim: int) -> SubalgebraSpec:
    """All of M_d: one (dim, 1) block; E is the identity map."""
    return SubalgebraSpec(dim=dim, blocks=[(dim, 1)])


def pinching_spec(dim: int, sizes) -> SubalgebraSpec:
    """Block-diagonal algebra (+) M_{s}: E keeps diagonal blocks."""
    return SubalgebraSpec(dim=dim, blocks=[(int(s), 1) for s in sizes])


def factor_spec(n1: int, n2: int) -> SubalgebraSpec:
    """1_{n1} (x) M_{n2} acting on C^{n1} (x) C^{n2}."""
    if n1 == 1:
        return full_spec(n2)
    basis = swap_factors_unitary(n1, n2).conj().T
    return SubalgebraSpec(dim=n1 * n2, blocks=[(n2, n1)], basis=basis)


def block_cores(spec: SubalgebraSpec, x) -> list:
    """The block cores of E(x), one per block (n, m) of the spec: the n x n
    average over the multiplicity factor of that diagonal block of
    V^H x V. x is one d x d matrix or a stack of shape (..., d, d), and so
    is each core, (..., n, n); a core of multiplicity 1 is that block, a
    view of x (or of V^H x V) that no caller writes into."""
    m = as_matrix(x) if np.ndim(x) == 2 else np.asarray(x, dtype=complex)
    if m.shape[-2:] != (spec.dim, spec.dim):
        raise InvalidInput("matrix dimension does not match spec")
    y = m if spec.basis is None else spec.basis.conj().T @ m @ spec.basis
    batch = y.shape[:-2]
    cores = []
    off = 0
    for n, mult in spec.blocks:
        sz = n * mult
        blk = y[..., off:off + sz, off:off + sz]
        cores.append(blk if mult == 1 else np.einsum(
            "...iaja->...ij", blk.reshape(batch + (n, mult, n, mult))) / mult)
        off += sz
    return cores


def conditional_expectation(spec: SubalgebraSpec, x) -> np.ndarray:
    """Trace-preserving conditional expectation onto the subalgebra.

    x is one d x d matrix or a stack of shape (..., d, d); E acts on the last
    two axes, matrix by matrix, with the same bits as separate calls.
    """
    cores = block_cores(spec, x)
    batch = cores[0].shape[:-2]
    out = np.zeros(batch + (spec.dim, spec.dim), dtype=complex)
    off = 0
    for core, (n, mult) in zip(cores, spec.blocks):
        sz = n * mult
        # core (x) 1_mult, as the entrywise products np.kron would form
        out[..., off:off + sz, off:off + sz] = core if mult == 1 else (
            core[..., :, None, :, None] * np.eye(mult)[:, None, :]
        ).reshape(batch + (sz, sz))
        off += sz
    return out if spec.basis is None else spec.basis @ out @ spec.basis.conj().T


def expectation_eigh(spec: SubalgebraSpec, x):
    """Spectral decomposition of E(x) / Tr E(x) for one Hermitian d x d x,
    or the slots of an (n, d, d) stack (see linalg), from the block cores,
    each divided by the trace (states.trace_slots checks it). An eigenpair
    (w, W) of the core of block (n, m) is the eigenvalue w, m times over,
    with eigenvectors V (W (x) 1_m) in that block's columns of the basis V.
    Cores of one size, of every block and every x, share one stacked
    LAPACK eigh and a 1 x 1 core is its own eigenvalue, so the largest
    matrix diagonalized is n x n. The eigenvalues merge in descending
    order, ties kept in block order, under linalg's zero threshold."""
    m = np.asarray(x, dtype=complex)
    cores = block_cores(spec, m if m.ndim == 3 else as_matrix(m)[None])
    tr = sum(core.trace(0, 1, 2).real * mult
             for core, (_, mult) in zip(cores, spec.blocks))
    slots = trace_slots(tr)
    keep = kept(slots)
    if len(keep) < len(tr):
        cores, tr = [core[keep] for core in cores], tr[keep]
    count, sizes = len(keep), [n for n, _ in spec.blocks]
    scale = tr[:, None, None]
    by_size = {}
    for n in dict.fromkeys(sizes):
        same = [core / scale for core, k in zip(cores, sizes) if k == n]
        same = same[0] if len(same) == 1 else np.concatenate(same)
        w, v = np.linalg.eigh(same) if n > 1 else (same.real[:, 0], None)
        parts = sizes.count(n)
        by_size[n] = iter(zip(w.reshape(parts, count, n), [None] * parts
                              if v is None else v.reshape(parts, count, n, n)))
    spectra = [next(by_size[n]) for n in sizes]
    d = spec.dim
    basis = np.eye(d, dtype=complex) if spec.basis is None else spec.basis
    decs = []
    for k in range(count):
        vals, vecs = [], []
        off = 0
        for (w, v), (n, mult) in zip(spectra, spec.blocks):
            cols = basis[:, off:off + n * mult]
            if v is not None:
                # column (k, a) of V (W (x) 1_m) is sum_i V[:, (i, a)] W_ik:
                # one (d m) x n by n x n product, all views when m = 1
                cols = (cols.reshape(d, n, mult).transpose(0, 2, 1)
                        .reshape(d * mult, n) @ v[k]).reshape(d, mult, n) \
                    .transpose(0, 2, 1).reshape(d, n * mult)
            vals.append(w[k].repeat(mult))
            vecs.append(cols)
            off += n * mult
        w = np.concatenate(vals)
        order = (-w).argsort(kind="stable")
        decs.append(SpectralDecomposition(
            w[order], np.concatenate(vecs, axis=1)[:, order]))
    slots = fill(slots, decs)
    return slots if m.ndim == 3 else value(slots[0])
