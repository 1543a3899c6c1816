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

from .errors import BranchCutError, IllConditionedError

CMatrix = npt.NDArray[np.complex128]

HERM_TOL = 1e-10
COND_CAP = 1e10
BRANCH_TOL = 1e-10


@dataclass(frozen=True)
class DimSpec:
    """Dimensions of the system / effective-reservoir / ancilla split.

    ``d_a`` is determined by the other two: the dilation ancilla must have
    dimension ``(d_s * d_er)**2`` so an arbitrary channel on the joint
    system-reservoir space is reachable.  Passing ``d_a=0`` (the default)
    fills it in.
    """

    d_s: int
    d_er: int
    d_a: int = 0

    def __post_init__(self):
        if self.d_s < 1 or self.d_er < 1:
            raise ValueError(f"dimensions must be >= 1, got {self}")
        required = (self.d_s * self.d_er) ** 2
        if self.d_a == 0:
            object.__setattr__(self, "d_a", required)
        elif self.d_a != required:
            raise ValueError(f"d_a must equal (d_s*d_er)**2 = {required}, got {self.d_a}")

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


def vec(m: CMatrix) -> CMatrix:
    """Column-stacking vectorization."""
    return np.asarray(m).T.ravel()


def unvec(v: CMatrix, side: int | None = None) -> CMatrix:
    """Inverse of :func:`vec` for a square matrix."""
    v = np.asarray(v).ravel()
    if side is None:
        side = int(round(np.sqrt(v.size)))
    if side * side != v.size:
        raise ValueError(f"cannot reshape length-{v.size} vector to a square matrix")
    return v.reshape(side, side).T


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

    :param rho: square matrix on the tensor product of ``dims``.
    :param dims: subsystem dimensions, row-major order.
    :param keep: indices (into ``dims``) of the subsystems to retain,
        strictly increasing.  Their relative order is preserved in the output.
    :return: reduced matrix on the kept subsystems.
    """
    rho = np.asarray(rho)
    dims = list(dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"shape {rho.shape} does not match dims {dims}")
    keep = list(keep)
    if keep != sorted(set(keep)) or any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep {keep} must be strictly increasing indices into dims")
    k = len(dims)
    t = rho.reshape(dims + dims)
    # Trace each dropped subsystem against its primed copy.
    row = list(range(k))
    col = list(range(k, 2 * k))
    for i in range(k):
        if i not in keep:
            col[i] = row[i]
    out_axes = [row[i] for i in keep] + [col[i] for i in keep]
    reduced = np.einsum(t, row + col, out_axes)
    side = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(side, side)


def herm_eig(m: CMatrix, tol: float = HERM_TOL) -> SpectralDecomposition:
    """Eigensystem of a Hermitian matrix via LAPACK ``eigh``.

    Hermiticity is checked to ``tol`` in max-abs deviation, so a non-finite
    entry fails too; the symmetrized matrix is what gets decomposed.
    """
    m = np.asarray(m, dtype=np.complex128)
    dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if not dev <= tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")
    w, v = np.linalg.eigh(hermitianize(m))
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def spectral_unitary(dec: SpectralDecomposition, t: float) -> CMatrix:
    """exp(-i t H) from the eigensystem of a Hermitian H."""
    phases = np.exp(-1j * t * dec.eigenvalues)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T


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
    :class:`IllConditionedError`.
    """
    m = np.asarray(m, dtype=np.complex128)
    w, v = np.linalg.eig(m)
    for lam in w:
        dist = abs(lam.imag) if lam.real <= 0.0 else abs(lam)
        if dist < BRANCH_TOL:
            raise BranchCutError(complex(lam))
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise IllConditionedError(float(cond))
    return np.log(w), v, np.linalg.inv(v)  # principal branch, Im in (-pi, pi]


def trace_norm(m: CMatrix) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m), compute_uv=False).sum())


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
    """(x, y, z) expectation triple of a qubit state."""
    if rho.shape != (2, 2):
        raise ValueError(f"expected a qubit state, got shape {rho.shape}")
    return np.array([np.trace(rho @ SIGMA_X).real,
                     np.trace(rho @ SIGMA_Y).real,
                     np.trace(rho @ SIGMA_Z).real])
