"""Sequence likelihood of measurement records under an embedding model.

The probability of a record sequence is a nested sandwich: project, evolve
one period, project, ... , trace.  At usable sequence lengths that number
underflows double precision by thousands of orders of magnitude, so both
recurrences here are renormalized every step and the removed scales are
kept as running logs:

* forward: post-measurement states, trace-normalized; the running log IS
  the prefix log-likelihood;
* backward: Heisenberg effects, operator-norm-normalized.

Merging the two halves at any step recovers the same total log-likelihood,
which is the main internal consistency check, and the per-merge-point form
is what the gradient of the log-likelihood sums over.  Each merge-point
value is linear in the period superoperator M, so the gradient first sums
the batch into one d^2 x d^2 matrix C = dlog p/dM, then pulls C back through
M = sum_j conj(K_j) x K_j to the Kraus operators K_j = (I x <j|) U (I x |a>)
and from U to H through the divided differences of exp(-i tau z).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datagen import CollisionModelConfig, Dataset, period_superoperator
from .embedding import (MarkovianEmbedding, _kraus_superoperator, ancilla_vector,
                        kraus_stack, superoperator_matrix)
from .errors import DataError, ZeroProbabilityError
from .qla import CMatrix, SpectralDecomposition, herm_eig

GradientMatrix = CMatrix  # Hermitian, same side as the model Hamiltonian

DEGENERACY_TOL = 1e-12


@dataclass
class PropagationCache:
    """Normalized forward/backward sweeps over one record sequence.

    Index ``i`` runs 0..n over measurement times; ``forward_states[i]`` is
    the trace-normalized post-measurement joint state after record ``i``
    (``i=0``: the initial state), ``forward_log_scale[i]`` the prefix
    log-likelihood.  ``backward_effects[i]`` is the unit-operator-norm
    effect that, paired with the forward state at ``i``, reproduces the
    total log-likelihood:

        log tr(state_i @ effect_i) + forward_log_scale[i]
                                   + backward_log_scale[i]  == log p

    Either half may be absent if only one sweep was run.
    """

    n: int
    forward_states: np.ndarray | None = field(default=None, repr=False)
    forward_log_scale: np.ndarray | None = field(default=None, repr=False)
    backward_effects: np.ndarray | None = field(default=None, repr=False)
    backward_log_scale: np.ndarray | None = field(default=None, repr=False)

    def log_likelihood(self) -> float:
        if self.forward_log_scale is None:
            raise ValueError("forward sweep missing")
        return float(self.forward_log_scale[-1])

    def merged_log_likelihood(self, m: int) -> float:
        """Total log p reconstructed at merge point ``m`` (0..n)."""
        if self.forward_states is None or self.backward_effects is None:
            raise ValueError("both sweeps are needed to merge")
        overlap = np.einsum("ij,ji->", self.forward_states[m],
                            self.backward_effects[m]).real
        if overlap <= 0:
            raise ZeroProbabilityError(m)
        return float(np.log(overlap) + self.forward_log_scale[m]
                     + self.backward_log_scale[m])


def per_step_increments(cache: PropagationCache) -> np.ndarray:
    """Conditional log-probability of each record given its prefix."""
    if cache.forward_log_scale is None:
        raise ValueError("forward sweep missing")
    return np.diff(cache.forward_log_scale)


def dump_step_increments(cache: PropagationCache, path) -> None:
    inc = per_step_increments(cache)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,log_p_increment\n")
        for i, x in enumerate(inc, start=1):
            fh.write(f"{i},{float(x)!r}\n")


def _projector_vectors(model: MarkovianEmbedding, data: Dataset) -> np.ndarray:
    if data.d_s != model.dims.d_s:
        raise DataError(f"data d_s={data.d_s} does not match model d_s={model.dims.d_s}")
    if abs(data.tau - model.tau) > 1e-12:
        raise DataError(f"data tau={data.tau} does not match model tau={model.tau}")
    if not data.records:
        return np.empty((0, data.d_s), dtype=np.complex128)
    return np.stack([rec.basis[:, rec.outcome] for rec in data.records])


def _project(joint4: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply |phi><phi| x I to both sides of a joint operator.

    ``joint4`` is the operator reshaped to (d_s, d_er, d_s, d_er).  Returns
    (reservoir block, projected operator of the same joint shape flattened).
    """
    block = np.einsum("s,setf,t->ef", phi.conj(), joint4, phi)
    block = 0.5 * (block + block.conj().T)
    proj = np.einsum("s,t,ef->setf", phi, phi.conj(), block)
    d = joint4.shape[0] * joint4.shape[1]
    return block, proj.reshape(d, d)


def _sweep(m: np.ndarray, rho: np.ndarray, log0: float, phis: np.ndarray,
           records) -> tuple[np.ndarray, np.ndarray]:
    """The filter loop: from state ``rho`` and running log ``log0``, evolve by
    the superoperator ``m`` and condition on each projector vector in turn.
    Returns the start state and running log followed by one per record;
    ``records`` give the step a zero-probability error reports."""
    n = len(phis)
    d = rho.shape[0]
    d_s = phis.shape[1]
    d_er = d // d_s
    states = np.empty((n + 1, d, d), dtype=np.complex128)
    logs = np.empty(n + 1)
    states[0] = rho
    logs[0] = log0
    for i in range(n):
        evolved = (m @ rho.T.ravel()).reshape(d, d).T
        block, projected = _project(evolved.reshape(d_s, d_er, d_s, d_er), phis[i])
        p = np.trace(block).real
        if p <= 0.0:
            raise ZeroProbabilityError(records[i].step)
        rho = projected / p
        rho = 0.5 * (rho + rho.conj().T)
        states[i + 1] = rho
        logs[i + 1] = logs[i] + np.log(p)
    return states, logs


def forward_pass(model: MarkovianEmbedding, data: Dataset,
                 cache: PropagationCache | None = None) -> PropagationCache:
    """Trace-normalized filtering sweep; raises on a zero-probability step."""
    phis = _projector_vectors(model, data)
    rho0 = np.asarray(model.rho0_ser, dtype=np.complex128)
    states, logs = _sweep(superoperator_matrix(model), rho0, 0.0, phis, data.records)
    if cache is None:
        cache = PropagationCache(n=len(data.records))
    cache.forward_states = states
    cache.forward_log_scale = logs
    return cache


def backward_pass(model: MarkovianEmbedding, data: Dataset,
                  cache: PropagationCache | None = None) -> PropagationCache:
    """Operator-norm-normalized smoothing sweep, run from the last record."""
    phis = _projector_vectors(model, data)
    n = len(data.records)
    d_s, d_er = model.dims.d_s, model.dims.d_er
    d = model.dims.d
    m_dual = superoperator_matrix(model).conj().T
    effects = np.empty((n + 1, d, d), dtype=np.complex128)
    logs = np.empty(n + 1)
    eff = np.eye(d, dtype=np.complex128)
    effects[n] = eff
    logs[n] = 0.0
    for i in range(n - 1, -1, -1):
        _, projected = _project(eff.reshape(d_s, d_er, d_s, d_er), phis[i])
        prev = (m_dual @ projected.T.ravel()).reshape(d, d).T
        prev = 0.5 * (prev + prev.conj().T)
        scale = np.abs(prev).max()
        if scale <= 0.0:
            raise ZeroProbabilityError(data.records[i].step)
        eff = prev / scale
        effects[i] = eff
        logs[i] = logs[i + 1] + np.log(scale)
    # Convert the cheap max-abs scaling to unit operator norm in one
    # stacked eigenvalue pass; any per-step positive scale is equivalent,
    # only the bookkeeping changes.
    opnorms = np.abs(np.linalg.eigvalsh(effects)).max(axis=1)
    effects /= opnorms[:, None, None]
    logs += np.log(opnorms)
    if cache is None:
        cache = PropagationCache(n=n)
    cache.backward_effects = effects
    cache.backward_log_scale = logs
    return cache


def build_cache(model: MarkovianEmbedding, data: Dataset) -> PropagationCache:
    """Both sweeps in one cache."""
    cache = forward_pass(model, data)
    return backward_pass(model, data, cache)


def log_likelihood(model: MarkovianEmbedding, data: Dataset) -> float:
    """Total log-probability of the record sequence."""
    return forward_pass(model, data).log_likelihood()


def conditional_validation_ll(model: MarkovianEmbedding, data_train: Dataset,
                              data_val: Dataset, train_cache: PropagationCache) -> float:
    """Per-step log-likelihood of the validation records, conditioned on
    the training prefix of the same physical trajectory.

    The two datasets must share provenance (seed and config digest) and the
    validation steps must continue the training steps without a gap.
    ``train_cache`` is the forward sweep of ``model`` over ``data_train``;
    filtering continues from its final state, so the training prefix is
    not filtered again.
    """
    if data_train.provenance != data_val.provenance:
        raise DataError("train/validation provenance differs; not the same trajectory")
    if not data_train.records or not data_val.records:
        raise DataError("empty dataset")
    if data_val.records[0].step != data_train.records[-1].step + 1:
        raise DataError(
            f"validation must continue training: steps {data_train.records[-1].step} "
            f"-> {data_val.records[0].step}")
    if (train_cache.n != len(data_train.records) or train_cache.forward_states is None
            or train_cache.forward_log_scale is None):
        raise ValueError("train_cache is not a forward sweep of data_train")
    phis = _projector_vectors(model, data_val)
    # Seeded with the prefix log, every addition matches one sweep over
    # train + validation, so the result equals that sweep's suffix bitwise.
    _, logs = _sweep(superoperator_matrix(model), train_cache.forward_states[-1],
                     train_cache.forward_log_scale[-1], phis, data_val.records)
    return float(logs[-1] - logs[0]) / len(data_val.records)


def true_model_log_likelihood(cfg: CollisionModelConfig, ds: Dataset) -> float:
    """Per-step log-likelihood of a record set under the generating model, a
    diagnostic ceiling for fitted models.  The period map is a channel on
    S x S1, so the sweep scores the records with S1 as the reservoir."""
    phis = np.stack([rec.basis[:, rec.outcome] for rec in ds.records])
    rho0 = np.asarray(cfg.rho_ss1_0, dtype=np.complex128)
    _, logs = _sweep(period_superoperator(cfg), rho0, 0.0, phis, ds.records)
    return float(logs[-1]) / len(ds.records)


def _loewner_exp(lam: np.ndarray, tau: float) -> np.ndarray:
    """Divided differences of z -> exp(-i tau z) on the spectrum.

    Off-diagonal: (e^{-i a tau} - e^{-i b tau})/(a - b); entries with
    |a - b| below 1e-12 * max(1, |a|) take the confluent limit
    -i tau e^{-i a tau}.
    """
    ph = np.exp(-1j * tau * lam)
    diff = lam[:, None] - lam[None, :]
    tol = DEGENERACY_TOL * np.maximum(1.0, np.abs(lam))[:, None]
    degenerate = np.abs(diff) <= tol
    safe = np.where(degenerate, 1.0, diff)
    f = (ph[:, None] - ph[None, :]) / safe
    limit = (-1j * tau * ph)[:, None] * np.ones_like(f)
    return np.where(degenerate, limit, f)


def unitary_derivative(h: CMatrix, mu: int, nu: int, tau: float) -> CMatrix:
    """Entrywise derivative of exp(-i tau H) with respect to H[mu, nu].

    The perturbation direction is the bare matrix unit |mu><nu|; Hermitian
    parametrizations combine (mu, nu) and (nu, mu) entries on top of this.
    """
    dec = herm_eig(h)
    lam, v = dec.eigenvalues, dec.eigenvectors
    f = _loewner_exp(lam, tau)
    inner = np.outer(v[mu, :].conj(), v[nu, :])
    return v @ (f * inner) @ v.conj().T


def log_likelihood_gradient(model: MarkovianEmbedding, data: Dataset,
                            cache: PropagationCache,
                            batch: np.ndarray | list[int] | None = None) -> GradientMatrix:
    """Gradient of the total log-likelihood with respect to the Hamiltonian.

    Entry (mu, nu) is the derivative along the bare matrix unit |mu><nu|;
    the result is Hermitian, so real/imaginary Hermitian parameter
    derivatives are linear combinations of symmetric entries.

    ``batch`` selects merge points m (1-based steps); the sum over the
    batch is rescaled by n/len(batch), so a full batch reproduces the exact
    gradient and a subset is an unbiased estimate.  Each term is a ratio of
    the per-merge-point derivative to the per-merge-point sandwich value,
    which cancels every renormalization scale.
    """
    if cache.forward_states is None or cache.backward_effects is None:
        raise ValueError("gradient needs both sweeps in the cache")
    phis = _projector_vectors(model, data)
    n = len(data.records)
    if batch is None:
        batch = np.arange(1, n + 1)
    batch = np.unique(np.asarray(batch, dtype=np.intp))
    if batch.size == 0:
        raise ValueError("empty batch")
    if batch[0] < 1 or batch[-1] > n:
        raise ValueError(f"batch entries must lie in 1..{n}")

    dims = model.dims
    d_s, d_er, d, dd = dims.d_s, dims.d_er, dims.d, dims.d_total
    dec = herm_eig(model.h)
    lam, v = dec.eigenvalues, dec.eigenvectors
    u = (v * np.exp(-1j * model.tau * lam)) @ v.conj().T
    f = _loewner_exp(lam, model.tau)
    avec = ancilla_vector(model)
    ks = kraus_stack(model, u)

    # Merge-point factors, column-stacked: a_m = A_m.ravel() = vec(A_m^T) for
    # the measured effect A_m = E_m eff(t_m) E_m, b_m = vec(B_m) for the
    # post-measurement state at step m-1; the sandwich value is a_m^T M b_m.
    phi = phis[batch - 1]  # records are 1-based in batch indexing
    eff4 = cache.backward_effects[batch].reshape(-1, d_s, d_er, d_s, d_er)
    blocks = np.einsum("ms,msetf,mt->mef", phi.conj(), eff4, phi)
    a = np.einsum("ms,mt,mef->msetf", phi, phi.conj(), blocks).reshape(-1, d * d)
    b = cache.forward_states[batch - 1].transpose(0, 2, 1).reshape(-1, d * d)
    values = np.einsum("mi,mi->m", a, b @ _kraus_superoperator(ks).T).real
    if np.any(values <= 0.0):
        bad = batch[np.argmax(values <= 0.0)]
        raise ZeroProbabilityError(int(bad))

    # d sum_m log value_m = sum C * dM with C = sum_m a_m b_m^T / value_m.
    # Through M = sum_j conj(K_j) x K_j and K_j = (I x <j|) U (I x |a>) this
    # is tr[Gamma1^T dU] + tr[Gamma2^T dU+], where Gamma1 = g1 (I x a^T) and
    # Gamma2 = (I x conj(a)) g2; only the d_total x d factors g1, g2 are formed.
    c4 = ((a / values[:, None]).T @ b).reshape(d, d, d, d)
    g1 = np.einsum("pqrs,jpr->qjs", c4, ks.conj()).reshape(dd, d)
    g2 = np.einsum("pqrs,jqs->rpj", c4, ks).reshape(d, dd)
    va = np.einsum("xkE,k->xE", v.reshape(d, -1, dd), avec.conj())  # (I x <a|) V
    vg1v = (v.T @ g1) @ va.conj()  # V^T Gamma1 V*
    vg2v = va.T @ (g2 @ v.conj())  # V^T Gamma2 V*

    inner = f * vg1v + f.conj() * vg2v
    grad = v.conj() @ inner @ v.T
    return (n / batch.size) * grad
