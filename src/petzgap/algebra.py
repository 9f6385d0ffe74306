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
from .linalg import as_matrix, matrix_from_json, matrix_to_json
from .states import swap_factors_unitary

UNITARY_TOL = 1e-10
VALIDATE_TOL = 1e-10
CHOI_TOL = -1e-10


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

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "blocks": [[n, m] for n, m in self.blocks],
            "basis": "identity" if self.basis is None else matrix_to_json(self.basis),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SubalgebraSpec":
        try:
            dim = int(obj["dim"])
            blocks = [tuple(b) for b in obj["blocks"]]
            raw = obj.get("basis", "identity")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"bad subalgebra JSON: {exc}") from exc
        basis = None if raw == "identity" else matrix_from_json(raw)
        return cls(dim=dim, blocks=blocks, basis=basis)


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


def partial_trace_view(spec: SubalgebraSpec, x) -> np.ndarray:
    """For a single-block (n, m) spec: trace over the multiplicity factor.

    Returns the n x n matrix P with E(X) = (1/m) * P (x) 1_m up to the basis
    rotation. Specs with more than one block have no single such view.
    """
    if len(spec.blocks) != 1:
        raise InvalidInput("partial_trace_view needs exactly one block")
    m = as_matrix(x)
    if m.shape != (spec.dim, spec.dim):
        raise InvalidInput("matrix dimension does not match spec")
    n, mult = spec.blocks[0]
    y = m if spec.basis is None else spec.basis.conj().T @ m @ spec.basis
    return np.einsum("iaja->ij", y.reshape(n, mult, n, mult))


def validate_expectation(spec: SubalgebraSpec) -> None:
    """Check E is an idempotent, self-adjoint, unital, trace-preserving
    positive projection; raises SpecInconsistent naming the failing property.

    Linear-map properties are checked on a matrix-unit basis (exact, not
    sampled); positivity via the Choi matrix of E.
    """
    d = spec.dim
    ident = np.eye(d, dtype=complex)
    e_of_1 = conditional_expectation(spec, ident)
    if np.abs(e_of_1 - ident).max() > VALIDATE_TOL:
        raise SpecInconsistent("unitality fails")
    # the d^2 matrix units E_ab, stacked at index a * d + b
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    images = conditional_expectation(spec, units)
    twice = conditional_expectation(spec, images)
    for e, img, img2 in zip(units, images, twice):
        if abs(np.trace(img) - np.trace(e)) > VALIDATE_TOL:
            raise SpecInconsistent("trace preservation fails")
        if np.abs(img2 - img).max() > VALIDATE_TOL:
            raise SpecInconsistent("idempotence fails")
    for i, e in enumerate(units):
        for k in range(i, len(units)):
            lhs = np.trace(images[i].conj().T @ units[k])
            rhs = np.trace(e.conj().T @ images[k])
            if abs(lhs - rhs) > VALIDATE_TOL:
                raise SpecInconsistent("self-adjointness fails")
    choi = sum(np.kron(img, e) for e, img in zip(units, images))
    w = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
    if w.min() < CHOI_TOL:
        raise SpecInconsistent("complete positivity fails (Choi not PSD)")
