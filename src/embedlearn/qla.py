"""Dense complex linear algebra for small composite quantum systems.

Conventions, used consistently by every module that builds on this one:

* Matrices are ``numpy`` arrays of ``complex128``; ``CMatrix`` is the alias.
* Composite indices are row-major over the listed subsystems: basis state
  ``|i,j>`` of subsystem dims ``[dA, dB]`` sits at flat index ``i*dB + j``.
* Vectorization is column-stacking, ``vec(X) = X.T.ravel()``, so that
  ``vec(A X B) = kron(B.T, A) vec(X)``.

Everything here is dense LAPACK territory (sides up to ~2000); no sparse or
structured paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .errors import BranchCutError, IllConditionedError, NumericalError

CMatrix = npt.NDArray[np.complex128]

HERM_TOL = 1e-10
COND_CAP = 1e10
BRANCH_TOL = 1e-10


@dataclass(frozen=True)
class DimSpec:
    """Dimensions of the system / effective-reservoir split.

    The ancilla dimension ``d_a`` is not free: the dilation ancilla has
    dimension ``(d_s * d_er)**2`` so an arbitrary channel on the joint
    system-reservoir space is reachable.
    """

    d_s: int
    d_er: int

    def __post_init__(self):
        if self.d_s < 1 or self.d_er < 1:
            raise ValueError(f"dimensions must be >= 1, got {self}")

    @property
    def d_a(self) -> int:
        """Ancilla dimension, (d_s*d_er)**2."""
        return self.d ** 2

    @property
    def d(self) -> int:
        """Joint system + effective-reservoir dimension."""
        return self.d_s * self.d_er

    @property
    def d_total(self) -> int:
        """Full dilation dimension including the ancilla."""
        return self.d * self.d_a


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` has the matching
    orthonormal eigenvectors as columns.
    """

    eigenvalues: npt.NDArray[np.float64]
    eigenvectors: CMatrix = field(repr=False)


def dagger(m: CMatrix) -> CMatrix:
    return m.conj().T


def hermitianize(m: CMatrix) -> CMatrix:
    """Nearest Hermitian matrix, (M + M†)/2, of a matrix or of each matrix
    in a stack."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def hermitian_deviation(m: CMatrix) -> float:
    """Largest entry of |M - M†| for a matrix or over a stack, NaN if an
    entry is not finite; 0 for an empty one.  The difference is the one
    temporary formed."""
    if not m.size:
        return 0.0
    diff = np.conjugate(m).swapaxes(-1, -2)
    np.subtract(m, diff, out=diff)
    np.abs(diff, out=diff)
    return np.max(diff.real)


def vec(m: CMatrix) -> CMatrix:
    """Column-stacking vectorization of a matrix, or of each matrix in a
    stack: (..., n, n) -> (..., n*n)."""
    m = np.asarray(m)
    return m.swapaxes(-1, -2).reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],))


def unvec(v: CMatrix) -> CMatrix:
    """Inverse of :func:`vec` for square matrices: (..., n*n) -> (..., n, n)."""
    v = np.asarray(v)
    side = int(round(np.sqrt(v.shape[-1])))
    if side * side != v.shape[-1]:
        raise ValueError(f"cannot reshape length-{v.shape[-1]} vector to a square matrix")
    return v.reshape(v.shape[:-1] + (side, side)).swapaxes(-1, -2)


def kron(*ms: CMatrix) -> CMatrix:
    """Kronecker product of one or more matrices, left factor most significant."""
    if not ms:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(ms[0])
    for m in ms[1:]:
        out = np.kron(out, m)
    return out


def ptrace(rho: CMatrix, dims: list[int], keep: list[int]) -> CMatrix:
    """Partial trace over the subsystems not listed in ``keep``.

    :param rho: square matrix on the tensor product of ``dims``, or a stack
        of them along leading axes.
    :param dims: subsystem dimensions, row-major order.
    :param keep: indices (into ``dims``) of the subsystems to retain,
        strictly increasing.  Their relative order is preserved in the output.
    :return: reduced matrix (or stack) on the kept subsystems.
    """
    rho = np.asarray(rho)
    dims = list(dims)
    total = int(np.prod(dims))
    if rho.ndim < 2 or rho.shape[-2:] != (total, total):
        raise ValueError(f"shape {rho.shape} does not match dims {dims}")
    keep = list(keep)
    if keep != sorted(set(keep)) or any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep {keep} must be strictly increasing indices into dims")
    k = len(dims)
    lead = rho.shape[:-2]
    t = rho.reshape(lead + tuple(dims + dims))
    # Trace each dropped subsystem against its primed copy.
    row = list(range(k))
    col = list(range(k, 2 * k))
    for i in range(k):
        if i not in keep:
            col[i] = row[i]
    out_axes = [row[i] for i in keep] + [col[i] for i in keep]
    reduced = np.einsum(t, [...] + row + col, [...] + out_axes)
    side = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(lead + (side, side))


def herm_eig(m: CMatrix, tol: float = HERM_TOL) -> SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, or of each matrix in a stack, via
    LAPACK ``eigh``, which decomposes a stack one matrix at a time.

    Hermiticity is checked to ``tol`` in max-abs deviation, so a non-finite
    entry fails too; the symmetrized matrix is what gets decomposed.
    """
    m = np.asarray(m, dtype=np.complex128)
    dev = hermitian_deviation(m)
    if not dev <= tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")
    mh = m.conj().swapaxes(-1, -2)
    # hermitianize(m), written into M† in place.
    np.add(m, mh, out=mh)
    np.multiply(0.5, mh, out=mh)
    w, v = np.linalg.eigh(mh)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def spectral_unitary(dec: SpectralDecomposition, t: float) -> CMatrix:
    """exp(-i t H) from the eigensystem of a Hermitian H (or of a stack)."""
    phases = np.exp(-1j * t * dec.eigenvalues)
    v = dec.eigenvectors
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


def expm_unitary(h: CMatrix, t: float) -> CMatrix:
    """exp(-i t H) for Hermitian H, through the eigendecomposition."""
    return spectral_unitary(herm_eig(h), t)


def logm_principal(m: CMatrix) -> tuple[npt.NDArray[np.complex128], CMatrix, CMatrix]:
    """Principal matrix logarithm of a diagonalizable matrix, in factored
    form ``(log_w, V, V⁻¹)`` with log(m) = V diag(log_w) V⁻¹: ``log_w`` holds
    the principal logarithms of the eigenvalues w of ``m`` and V their
    eigenvectors, so any function of ``m`` can reuse this one eigensystem.

    Fails loudly instead of silently picking a branch: an eigenvalue within
    ``1e-10`` of the closed negative real axis raises :class:`BranchCutError`,
    and an eigenvector matrix with condition number above ``1e10`` raises
    :class:`IllConditionedError`.  It is :func:`logm_principal_stack` of a
    stack of one.
    """
    (failure,), *factors = logm_principal_stack(np.asarray(m)[None])
    if failure is not None:
        raise failure
    return tuple(f[0] for f in factors)


def logm_principal_stack(m: CMatrix) -> tuple[list[NumericalError | None],
                                              npt.NDArray[np.complex128], CMatrix, CMatrix]:
    """:func:`logm_principal` of each matrix of a stack (n, D, D), without
    raising: per matrix None, or the error :func:`logm_principal` raises for
    it, and the factors of the accepted matrices, stacked in order.  LAPACK
    decomposes a stack one matrix at a time, so each accepted entry is
    bitwise what that matrix alone gives."""
    w, v = np.linalg.eig(np.asarray(m, dtype=np.complex128))
    near = _branch_distance(w) < BRANCH_TOL
    # A condition number that is not <= the cap is too large, inf or NaN.
    failures = [BranchCutError(complex(wj[np.argmax(nj)])) if nj.any()
                else None if cj <= COND_CAP else IllConditionedError(float(cj))
                for wj, nj, cj in zip(w, near, np.linalg.cond(v))]
    ok = np.array([f is None for f in failures], dtype=bool)
    # Principal branch, Im in (-pi, pi].
    return failures, np.log(w[ok]), v[ok], np.linalg.inv(v[ok])


def _branch_distance(w: np.ndarray) -> np.ndarray:
    """Distance of each eigenvalue to the closed negative real axis."""
    return np.where(w.real <= 0.0, np.abs(w.imag), np.abs(w))


def trace_norm(m: CMatrix) -> float | np.ndarray:
    """Sum of singular values of a matrix (a float), or of each matrix in a
    stack (an array of the leading shape)."""
    norms = np.linalg.svd(np.asarray(m), compute_uv=False).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def haar_random_pure_state(dim: int, rng: np.random.Generator) -> CMatrix:
    """Density matrix of a Haar-random pure state on ``dim`` levels."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


# Pauli matrices; shared by data generation, assessment, and tests.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def bloch_vector(rho: CMatrix) -> npt.NDArray[np.float64]:
    """(x, y, z) expectation triple of a qubit state, or (..., 3) for a
    stack of them."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"expected a qubit state, got shape {rho.shape}")
    return np.stack([np.trace(rho @ p, axis1=-2, axis2=-1).real
                     for p in (SIGMA_X, SIGMA_Y, SIGMA_Z)], axis=-1)
