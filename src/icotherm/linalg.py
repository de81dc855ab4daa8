"""Small dense complex linear algebra for multi-qubit density matrices.

Everything in this package runs on matrices of dimension <= 16, and every
state is validated.  Positivity is certified by one Cholesky factorization
of the state (or stack) shifted by just under ``TOL``; only when that fails
does ``eigvalsh`` run, and it then decides exactly as it would alone.
States are carried by :class:`DensityMatrix`, a validated, immutable
wrapper around a numpy array together with its tensor-factor dimensions;
besides the state checks the module holds only what the verification path
needs: tensor products, the partial trace and random states.

Conventions
-----------
Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of a
basis index.  ``kron(a, b)`` therefore puts ``a`` on the high bits.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TOL",
    "ValidationError",
    "dagger",
    "symmetrize",
    "kron",
    "DensityMatrix",
    "validate_states",
    "partial_trace",
    "random_density_matrix",
]


# Bound on every defect the verification path checks: a state's Hermiticity,
# trace and negative eigenvalue, CPTP completeness, unitarity and diagonality.
TOL = 1e-10


class ValidationError(Exception):
    """A numerical invariant (Hermiticity, positivity, CPTP, ...) was violated."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2 — suppresses Hermiticity drift after long operator products.

    A stack of matrices is symmetrized matrix by matrix.
    """
    m = np.asarray(m)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the standard row-major layout (left factor on high bits)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def validate_states(states: np.ndarray) -> np.ndarray:
    """Check one density matrix or an ``(m, d, d)`` stack; return it symmetrized.

    Every state must be finite, Hermitian, of unit trace and positive
    semidefinite, checked in that order within :data:`TOL`; this is
    the check :class:`DensityMatrix` runs on its state.  A stack that fails
    is checked again state by state, so the error raised is the one a loop
    over the states raises first.

    A real stack stays real (the circuit's states are real symmetric), and
    any other stack is checked as complex.  Each check then gives the
    verdict and message it gives on the stack cast to complex: the
    non-finite, Hermiticity and trace defects of a real matrix equal those
    of its complex copy, and :func:`_check_states` casts before ``eigvalsh``.

    A float64 or complex128 input that is already exactly Hermitian equals
    its symmetrized copy and is returned as it is, not copied.
    """
    a = np.asarray(states, dtype=complex if np.iscomplexobj(states) else float)
    try:
        return _check_states(a)
    except (ValueError, ValidationError):
        if a.ndim == 3:
            for state in a:
                _check_states(state)
        raise


@functools.cache
def _shift(d: int) -> np.ndarray:
    """Read-only ``(TOL - 1e-12) * I`` of dimension ``d``: the certificate's shift."""
    s = (TOL - 1e-12) * np.eye(d)
    s.flags.writeable = False
    return s


def _check_states(a: np.ndarray) -> np.ndarray:
    """The checks of :func:`validate_states`, reporting the worst state's defect.

    Positivity is first certified: if ``cholesky(a + (TOL - 1e-12) I)``
    succeeds, every state is accepted without ``eigvalsh``.  Cholesky is
    backward stable, so success proves the exact factorization of a nearby
    matrix, and lambda_min(a) > -TOL + 1e-12 - O(d^2 eps ||a||).  A state
    that passed the trace check and the certificate has ||a|| <= 1 + d TOL,
    so for d <= 16 that error is about 3e-14, and ``eigvalsh`` (error
    O(d eps ||a||)) would have accepted it too.  Real Cholesky is backward
    stable in the same way, so a real stack is certified in real arithmetic.
    When the factorization fails, ``eigvalsh`` decides on the stack cast to
    complex, so a real stack gets the verdict and message of its complex
    copy.  It runs on a/4 and the eigenvalues are multiplied back by 4:
    scaling by a power of two is exact outside underflow, and it keeps the
    modulus of every finite complex entry in range.

    ``symmetrize`` runs only where it can change the stack.  Where the
    Hermiticity defect is exactly 0, entry (j, i) is the conjugate of entry
    (i, j), so (a + a†)/2 computes each component as (x + x)/2, which is x
    unless x + x overflows: every entry is kept, apart from the sign of a
    zero, and every later check gives the same verdict and message.  The
    largest |entry| is non-finite where some entry is, and also where the
    modulus of a finite complex entry overflows; only then are the entries
    tested one by one.

    No valid state has an entry of modulus 2**1023 or more: a state that
    passes the trace check and is positive semidefinite has every |entry|
    at most 1 + TOL.  At that size (x + x)/2 and the Cholesky factor
    overflow, and ``eigvalsh`` of a complex entry whose modulus overflows is
    NaN.  Such a stack is therefore not symmetrized, which keeps its trace
    and moves the eigenvalues of its lower triangle by at most d TOL/2, and
    it skips the certificate.  A negative eigenvalue beyond the float range
    reads ``-inf``.
    """
    top = float(np.abs(a).max())
    if not math.isfinite(top) and not np.isfinite(a).all():
        raise ValueError("density matrix contains non-finite entries")
    herm_defect = float(np.abs(a - a.conj().swapaxes(-1, -2)).max())
    if herm_defect > TOL:
        raise ValidationError(
            f"state not Hermitian: max|M - M†| = {herm_defect:.3e}"
        )
    huge = top >= 2.0 ** 1023
    if herm_defect and not huge:
        a = symmetrize(a)
    trace_defect = float(np.abs(a.trace(axis1=-2, axis2=-1).real - 1.0).max())
    if trace_defect > TOL:
        raise ValidationError(f"state trace off by {trace_defect:.3e}")
    if not huge:
        try:
            np.linalg.cholesky(a + _shift(a.shape[-1]))
            return a
        except np.linalg.LinAlgError:
            pass
    min_eig = 4.0 * float(np.linalg.eigvalsh(a.astype(complex) / 4.0).min())
    if not min_eig >= -TOL:
        raise ValidationError(f"state has negative eigenvalue {min_eig:.3e}")
    return a


class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive semidefinite.

    Parameters
    ----------
    mat:
        Square complex matrix.  Stored as a symmetrized, read-only copy.
    dims:
        Ordered subsystem dimensions whose product equals the matrix dimension.
        Defaults to the all-qubit factorization ``(2, 2, ...)`` when the
        dimension is a power of two, else the single factor ``(dim,)``.
    """

    __slots__ = ("mat", "dims")

    def __init__(self, mat, dims: Sequence[int] | None = None):
        a = np.array(mat, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {a.shape}")
        dim = a.shape[0]
        if dims is None:
            n = dim.bit_length() - 1
            dims = (2,) * n if dim == (1 << n) else (dim,)
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims) or math.prod(dims) != dim:
            raise ValueError(f"dims {dims} do not factor dimension {dim}")
        a = validate_states(a)
        a.flags.writeable = False
        object.__setattr__(self, "mat", a)
        object.__setattr__(self, "dims", dims)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, dims={self.dims})"


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out all tensor factors not listed in ``keep``.

    ``keep`` is a nonempty set of factor indices into ``rho.dims``; the result
    keeps those factors in their original order and preserves the trace.
    """
    keep_sorted = sorted(set(int(k) for k in keep))
    n = len(rho.dims)
    if not keep_sorted:
        raise ValueError("keep must be a nonempty set of factor indices")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError(f"keep {keep_sorted} out of range for {n} factors")
    return DensityMatrix(_trace_out(rho.mat, rho.dims, keep_sorted),
                         dims=[rho.dims[k] for k in keep_sorted])


def _trace_out(a: np.ndarray, dims: Sequence[int],
               keep: Iterable[int]) -> np.ndarray:
    """The factors of ``dims`` not in ``keep`` traced out of one matrix or of
    an ``(m, d, d)`` stack, the last factor first; not validated."""
    lead, dims = a.shape[:-2], list(dims)
    a = a.reshape(*lead, *dims, *dims)
    for idx in sorted(set(range(len(dims))) - set(keep), reverse=True):
        a = np.trace(a, axis1=idx - 2 * len(dims), axis2=idx - len(dims))
        dims.pop(idx)
    d = math.prod(dims)
    return a.reshape(*lead, d, d)


def random_density_matrix(dim: int, rng: np.random.Generator,
                          dims: Sequence[int] | None = None) -> DensityMatrix:
    """Random full-rank state from the Ginibre ensemble (AA†, normalized)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims=dims)
