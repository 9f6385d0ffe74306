"""Finite-dimensional von Neumann subalgebras and their trace-preserving
conditional expectations.

A subalgebra of M_d is described in a canonical block form: after rotating by
the spec's basis unitary V (columns = canonical basis), the algebra is a
direct sum over blocks (n, m) of M_n (x) 1_m. The conditional expectation
averages each block over its multiplicity factor:

    E(X) block = (1/m) * (partial trace over the multiplicity factor) (x) 1_m

which is the unique trace-preserving projection onto the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SpecInconsistent
from .linalg import as_matrix
from .states import swap_factors_unitary

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


def conditional_expectation(spec: SubalgebraSpec, x) -> np.ndarray:
    """Trace-preserving conditional expectation onto the subalgebra.

    x is one d x d matrix or a stack of shape (..., d, d); E acts on the last
    two axes, matrix by matrix, with the same bits as separate calls.
    """
    m = as_matrix(x) if np.ndim(x) == 2 else np.asarray(x, dtype=complex)
    if m.shape[-2:] != (spec.dim, spec.dim):
        raise InvalidInput("matrix dimension does not match spec")
    y = m if spec.basis is None else spec.basis.conj().T @ m @ spec.basis
    batch = y.shape[:-2]
    out = np.zeros_like(y)
    off = 0
    for n, mult in spec.blocks:
        sz = n * mult
        blk = y[..., off:off + sz, off:off + sz].reshape(
            batch + (n, mult, n, mult))
        core = np.einsum("...iaja->...ij", blk) / mult
        # core (x) 1_mult, as the entrywise products np.kron would form
        out[..., off:off + sz, off:off + sz] = (
            core[..., :, None, :, None] * np.eye(mult)[:, None, :]
        ).reshape(batch + (sz, sz))
        off += sz
    return out if spec.basis is None else spec.basis @ out @ spec.basis.conj().T
