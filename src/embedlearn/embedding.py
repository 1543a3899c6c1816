"""Markovian embedding models and their induced dynamics.

A model is a finite system + effective-reservoir space evolved by the
channel of one measurement period: a joint unitary exp(-i H tau) on
system x reservoir x ancilla, with the ancilla prepared in |0> and traced
out afterward.  The ancilla dimension ``(d_s*d_er)**2`` makes every
channel on the joint space reachable, so Hermitian H is the only free
object and complete positivity holds by construction.

A model's period channel has one construction, :func:`model_channels`,
which decomposes the H of a stack of models in one call; a single model is
a stack of one.  The sweeps, the posterior draws and the generator start
from it.

The continuous-time picture comes from the principal logarithm of the
period channel; that extraction fails loudly when the logarithm is
ambiguous (see :func:`embedlearn.qla.logm_principal`).  Its eigensystem is
kept, so the equilibrium state and every propagation exp(t L) come from the
one diagonalization of the period channel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import jsonio
from .errors import FixedPointError
from .qla import (
    CMatrix,
    DimSpec,
    SpectralDecomposition,
    herm_eig,
    hermitian_deviation,
    hermitianize,
    logm_principal,
    ptrace,
    spectral_unitary,
    unvec,
    vec,
)

# The largest reservoir dimension a run accepts.  H is d_total x d_total
# with d_total = (2 d_er)**3: 4 MiB at d_er = 4, 120 MB at 7, 1 GB at 10.
MAX_D_ER = 4
# The largest period count a run asks for: the truth's dynamics and the
# model's period grid take one superoperator product per period.
MAX_PERIODS = 10**5
# Records per batch of transfer matrices: bounds the memory of a sweep or
# a sampler beyond its output, whatever the record count is.
CHUNK = 256


@dataclass(frozen=True)
class MarkovianEmbedding:
    """Embedding model: dimensions, period, Hamiltonian, initial state.

    ``h`` is Hermitian on the full dilation space (side ``dims.d_total``)
    and ``rho0_ser`` is the joint system + reservoir state the measured
    trajectory starts from.  Every period starts the ancilla in |0>.  That
    choice is a gauge: an ancilla W|0> under U gives the same channel as
    |0> under U (I x W), so the ancilla state is not model data.
    """

    dims: DimSpec
    tau: float
    h: CMatrix = field(repr=False)
    rho0_ser: CMatrix = field(repr=False)

    def with_h(self, h: CMatrix) -> "MarkovianEmbedding":
        return replace(self, h=h)


@dataclass(frozen=True)
class GeneratorSuperoperator:
    """Time-independent generator L with exp(tau L) = period channel, kept
    diagonalized as the factors of :func:`~embedlearn.qla.logm_principal`:
    tau L = V diag(log w) V⁻¹ over the eigenvalues w of the period channel,
    so exp(t L) = V diag(w**(t/tau)) V⁻¹.  L acts on column-stacked density
    matrices of the joint system + reservoir space of ``dims``.  The factors
    may carry leading stack axes, one generator per entry of one ``dims``
    and ``tau``, for :meth:`propagate`.
    """

    log_eigenvalues: np.ndarray
    eigenvectors: CMatrix = field(repr=False)
    inverse: CMatrix = field(repr=False)
    dims: DimSpec
    tau: float

    @property
    def matrix(self) -> CMatrix:
        """Dense L, assembled from the factors."""
        return (self.eigenvectors * self.log_eigenvalues) @ self.inverse / self.tau

    def propagate(self, x: CMatrix, times) -> CMatrix:
        """exp(t L) x at every time of ``times`` for a block of columns x,
        (..., D, c) -> (..., times, D, c); rows at t = 0 are x itself.  A
        stacked generator evolves each block of a matching stack of x.
        The columns at one time do not depend on which other times are
        requested.  Times must be nonnegative."""
        times = np.asarray(times, dtype=np.float64)
        if (times < 0).any():
            raise ValueError(f"times must be nonnegative, got {times[times < 0][0]}")
        coords = self.inverse @ x
        scale = np.exp((times / self.tau)[:, None] * self.log_eigenvalues[..., None, :])
        z = scale[..., None, :] * coords.swapaxes(-1, -2)[..., None, :, :]
        out = self.eigenvectors[..., None, :, :] @ z.swapaxes(-1, -2)
        out[..., times == 0, :, :] = x[..., None, :, :]
        return out


@dataclass(frozen=True)
class PeriodChannel:
    """The channel of one measurement period ``tau`` on system x memory
    (``dims``, the memory as ``d_er``) by its column-stacking superoperator
    ``m``, with the joint start state ``rho0`` of a measured trajectory.  It
    stands in for a :class:`GeneratorSuperoperator` in the prediction and
    assessment functions, with period counts as times."""

    m: CMatrix = field(repr=False)
    dims: DimSpec
    rho0: CMatrix = field(repr=False)
    tau: float

    def propagate(self, x: CMatrix, periods) -> CMatrix:
        """M^k x for every count k of ``periods``, laid out as
        :meth:`GeneratorSuperoperator.propagate` lays out exp(t L) x; one
        product per period up to the largest count."""
        ks = np.asarray(periods, dtype=np.float64)
        if (ks < 0).any():
            raise ValueError("period counts must be nonnegative")
        if not np.all(np.isfinite(ks) & (ks == np.floor(ks))):
            raise ValueError(f"period counts must be integers, got {ks.tolist()}")
        out = np.empty(x.shape[:-2] + ks.shape + x.shape[-2:], dtype=np.complex128)
        k, power = 0, x
        for i in np.argsort(ks, kind="stable"):
            for _ in range(int(ks[i]) - k):
                power = self.m @ power
            k = int(ks[i])
            out[..., i, :, :] = power
        return out


def make_embedding(dims: DimSpec, tau: float, h: CMatrix,
                   rho0_ser: CMatrix) -> MarkovianEmbedding:
    """Assemble a model and validate it."""
    model = MarkovianEmbedding(dims=dims, tau=float(tau), h=np.asarray(h, dtype=np.complex128),
                               rho0_ser=np.asarray(rho0_ser, dtype=np.complex128))
    validate_model(model)
    return model


def validate_model(model: MarkovianEmbedding) -> None:
    """Check every structural invariant; raises ValueError on the first hit.

    Non-finite entries are refused first: every tolerance test below is a
    ``>`` comparison, which NaN would pass.
    """
    dims = model.dims
    if not (np.isfinite(model.tau) and model.tau > 0):
        raise ValueError(f"tau must be positive and finite, got {model.tau}")
    if model.h.shape != (dims.d_total, dims.d_total):
        raise ValueError(f"h has shape {model.h.shape}, expected side {dims.d_total}")
    _check_finite(model.h, "h")
    dev = hermitian_deviation(model.h)
    if dev > 1e-10:
        raise ValueError(f"h is not Hermitian: max deviation {dev:.3e}")
    _check_state(model.rho0_ser, dims.d, "rho0_ser")


def _check_finite(m: CMatrix, name: str) -> None:
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")


def _check_state(rho: CMatrix, side: int, name: str) -> None:
    if rho.shape != (side, side):
        raise ValueError(f"{name} has shape {rho.shape}, expected side {side}")
    _check_finite(rho, name)
    if hermitian_deviation(rho) > 1e-10:
        raise ValueError(f"{name} is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8 or abs(np.trace(rho).imag) > 1e-10:
        raise ValueError(f"{name} has trace {np.trace(rho)}, expected 1")
    if np.linalg.eigvalsh(hermitianize(rho)).min() < -1e-8:
        raise ValueError(f"{name} is not positive semidefinite")


def kraus_stack(model: MarkovianEmbedding, u: CMatrix) -> CMatrix:
    """Kraus operators of the period channel of unitary ``u``, stacked along axis 0.

    K_j = (I x <j|_A) U (I x |0>_A); there are d_a of them, each d x d.
    """
    d, d_a = model.dims.d, model.dims.d_a
    return u.reshape(d, d_a, d, d_a)[:, :, :, 0].transpose(1, 0, 2)


def _kraus_superoperator(ks: CMatrix) -> CMatrix:
    """Column-stacking matrix sum_j conj(K_j) x K_j of a Kraus stack (j, d, d)."""
    d = ks.shape[1]
    m = np.einsum("jpr,jqs->pqrs", ks.conj(), ks, optimize=True)
    return m.reshape(d * d, d * d)


def superoperator_matrix(model: MarkovianEmbedding, u: CMatrix) -> CMatrix:
    """Column-stacking matrix of the period channel of period unitary
    ``u``, side (d_s*d_er)**2, built from its Kraus stack."""
    return _kraus_superoperator(kraus_stack(model, u))


def model_channels(models: list[MarkovianEmbedding]
                   ) -> tuple[SpectralDecomposition, CMatrix, CMatrix]:
    """The eigensystems of the H of models of one period, from one stacked
    decomposition, their period superoperators and the Kraus stacks of
    their period unitaries, all stacked along a leading axis.  LAPACK and BLAS take
    a stack one matrix at a time, so each entry is bitwise what its model
    alone gives."""
    # A stack of one is a view of its H; a copy would add one H to the peak
    # memory of every one-model sweep.
    hs = models[0].h[None] if len(models) == 1 else np.stack([m.h for m in models])
    spectra = herm_eig(hs)
    units = spectral_unitary(spectra, models[0].tau)
    # C-ordered copies of the Kraus stacks: views would keep every U alive.
    return (spectra, np.stack([superoperator_matrix(m, u) for m, u in zip(models, units)]),
            np.array([kraus_stack(m, u) for m, u in zip(models, units)]))


def _transfer_basis(m: np.ndarray, dims: DimSpec) -> np.ndarray:
    """The period superoperator rearranged so that the record-pair vector
    conj(P_{i+1}) x P_i, with P = |phi><phi| flattened, times it is T_i.

    Rows run over (s', t', s, t), the entries of the two projectors; columns
    over (e', f', g, h), T_i taking a flattened block (g, h) to (e', f').
    """
    # Column stacking: m[(q, p), (s, r)] maps input entry (r, s) to output
    # entry (p, q); split every joint index into (system, reservoir).
    m8 = m.reshape((dims.d_s, dims.d_er) * 4)
    return m8.transpose(2, 0, 6, 4, 3, 1, 7, 5).reshape(dims.d_s ** 4, dims.d_er ** 4)


def _transfers(basis: np.ndarray, before: np.ndarray, after: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Transfer matrices <b| M(|a><a| x .) |b> on flattened reservoir
    blocks, one per pair of stacked system vectors a = ``before[j]``,
    b = ``after[j]``, under the superoperator whose :func:`_transfer_basis`
    is ``basis``; shape (k, d_er^2, d_er^2), written into ``out`` if given,
    whose transfers may lie apart in memory if each one's entries are
    adjacent."""
    k = len(before)
    pa = (before[:, :, None] * before[:, None, :].conj()).reshape(k, -1)
    pb = (after[:, :, None].conj() * after[:, None, :]).reshape(k, -1)  # conj(|b><b|)
    pairs = pb[:, :, None] * pa[:, None, :]
    side = int(round(np.sqrt(basis.shape[1])))
    if out is None:
        out = np.empty((k, side, side), dtype=np.complex128)
    # One (1 x d_s^4) @ (d_s^4 x d_er^4) product per pair: a transfer comes
    # out bitwise the same whichever pairs share its batch, so a sweep
    # continued from a stored block repeats the one long sweep exactly.
    # Each transfer's entries are adjacent, so this reshape is a view of out.
    np.matmul(pairs.reshape(k, 1, -1), basis, out=out.reshape(k, 1, side * side))
    return out


def extract_generator(model: MarkovianEmbedding) -> GeneratorSuperoperator:
    """Generator L = log(channel)/tau via the principal matrix logarithm."""
    m = model_channels([model])[1][0]
    return GeneratorSuperoperator(*logm_principal(m), model.dims, model.tau)


def equilibrium_er_state(gen: GeneratorSuperoperator) -> CMatrix:
    """Reservoir marginal of the stationary state of exp(tau L): the
    trace-one eigenvector of the period channel's largest-modulus eigenvalue.

    Uniqueness requirement: second-largest eigenvalue modulus below
    1 - 1e-8; otherwise the equilibrium is ill-defined and
    :class:`FixedPointError` is raised.  A one-dimensional reservoir has the
    trivial marginal regardless of whether the joint stationary state is
    unique.
    """
    if gen.dims.d_er == 1:
        return np.ones((1, 1), dtype=np.complex128)
    order = np.argsort(-gen.log_eigenvalues.real)
    moduli = np.exp(gen.log_eigenvalues.real[order])  # |w|, largest first
    rho = hermitianize(unvec(gen.eigenvectors[:, order[0]]))
    tr = np.trace(rho).real
    if moduli[1] >= 1.0 - 1e-8 or abs(tr) < 1e-12:
        raise FixedPointError((float(moduli[0]), float(moduli[1])))
    return er_marginal(rho / tr, gen.dims)


def er_marginal(rho_ser: CMatrix, dims: DimSpec) -> CMatrix:
    """Reservoir marginal tr_S of a joint system + reservoir state."""
    return ptrace(rho_ser, [dims.d_s, dims.d_er], [1])


def predict_dynamics(gen: GeneratorSuperoperator | PeriodChannel, rho_ser0: CMatrix,
                     times: list[float]) -> CMatrix:
    """System states tr_ER[exp(t L) rho_ser0] at the requested times,
    stacked (times, d_s, d_s); a stacked generator with a matching stack of
    initial states gives (..., times, d_s, d_s).

    Output states are symmetrized against roundoff drift; trace and
    positivity are up to the quality of the generator, not enforced.
    """
    joint = gen.propagate(vec(rho_ser0)[..., None], times)[..., 0]
    return hermitianize(ptrace(unvec(joint), [gen.dims.d_s, gen.dims.d_er], [0]))


# ---------------------------------------------------------------------------
# Model (de)serialization: one JSON object, each matrix one base64 string of
# its row-major little-endian complex128 bytes, its shape taken from "dims".
# The file records the ancilla's dimension and its state |0><0|, both fixed.
# ---------------------------------------------------------------------------

def _ancilla_state(dims: DimSpec) -> CMatrix:
    state = np.zeros((dims.d_a, dims.d_a), dtype=np.complex128)
    state[0, 0] = 1.0
    return state


def model_to_dict(model: MarkovianEmbedding) -> dict:
    return {
        "dims": {"d_s": model.dims.d_s, "d_er": model.dims.d_er, "d_a": model.dims.d_a},
        "tau": model.tau,
        "h": jsonio.array_to_b64(model.h, "<c16"),
        "rho0_ser": jsonio.array_to_b64(model.rho0_ser, "<c16"),
        "rho_a": jsonio.array_to_b64(_ancilla_state(model.dims), "<c16"),
    }


def model_from_dict(obj: dict) -> MarkovianEmbedding:
    """Rebuild a model; refuses a d_er above :data:`MAX_D_ER`, or a d_total
    above that of a qubit system with it, before any matrix is decoded, and
    any ancilla other than the |0><0| of dimension (d_s*d_er)**2 it is made
    with."""
    spec = obj["dims"]
    d_s, d_er, d_a = (jsonio.ensure_int(spec[k], f"dims.{k}") for k in ("d_s", "d_er", "d_a"))
    if d_er > MAX_D_ER:
        raise ValueError(f"dims.d_er must be <= {MAX_D_ER}, got {d_er}")
    dims = DimSpec(d_s=d_s, d_er=d_er)
    if dims.d_total > (2 * MAX_D_ER) ** 3:
        raise ValueError(f"dims.d_total = (d_s*d_er)**3 must be <= {(2 * MAX_D_ER) ** 3}, "
                         f"got {dims.d_total}")
    if d_a != dims.d_a:
        raise ValueError(f"d_a must equal (d_s*d_er)**2 = {dims.d_a}, got {d_a}")
    tau = jsonio.ensure_number(obj["tau"], "tau")
    h = jsonio.b64_to_array(obj["h"], "<c16", (dims.d_total, dims.d_total), "h")
    rho0 = jsonio.b64_to_array(obj["rho0_ser"], "<c16", (dims.d, dims.d), "rho0_ser")
    rho_a = jsonio.b64_to_array(obj["rho_a"], "<c16", (dims.d_a, dims.d_a), "rho_a")
    if not np.array_equal(rho_a, _ancilla_state(dims)):
        raise ValueError("rho_a must be |0><0|")
    return make_embedding(dims, tau, h, rho0)


def save_model(model: MarkovianEmbedding, path) -> None:
    # json.dumps encodes in one C call; json.dump would stream the same
    # bytes through the pure-Python chunked encoder.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(model_to_dict(model)) + "\n")


def load_model(path) -> MarkovianEmbedding:
    """Read a model back; every structural invariant is re-validated."""
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
