"""Sequence likelihood of measurement records under an embedding model.

The probability of a record sequence is a nested sandwich: project, evolve
one period, project, ... , trace.  Every record is a rank-1 projective
measurement |phi><phi| of the system, so after record i the normalized
joint state is |phi_i><phi_i| x sigma_i and the filter only carries the
reservoir block sigma_i (d_er x d_er):

    sigma_{i+1} ~ T_i sigma_i,  T_i = <phi_{i+1}| M(|phi_i><phi_i| x .) |phi_{i+1}>,

a d_er^2 x d_er^2 transfer matrix fixed by the two records and the period
superoperator M.  The backward sweep carries beta_i = <phi_i| effect_i |phi_i>
through the dual recursion beta_i = T_i^+ beta_{i+1}.  T_i^+ is the transfer
of the dual channel M^+ from record i+1 to record i, so the backward sweep
is the forward loop run under M^+ over the records in reverse order: one
loop serves both sweeps.  Only the first record, conditioned on the initial
joint state (which need not be a product), and the effect at time 0 are
joint-sized.  The transfers are built in fixed-size record chunks, so the
work outside the d_er^2-vector loop is batched and memory beyond the blocks
does not grow with n; at d_er = 1 each transfer is a conditional
probability and the sweeps are cumulative sums of its log.

At usable sequence lengths the probability underflows double precision by
thousands of orders of magnitude, so both recurrences are renormalized by
the block trace every step and the removed scales are kept as running logs;
the forward running log IS the prefix log-likelihood.

Merging the two halves at any step recovers the same total log-likelihood,
which is the main internal consistency check, and the per-merge-point form
is what the gradient of the log-likelihood sums over.  Each merge-point
value is linear in the period superoperator M, so the gradient first sums
the batch into one d^2 x d^2 matrix C = dlog p/dM, then pulls C back through
M = sum_j conj(K_j) x K_j to the Kraus operators K_j = (I x <j|) U (I x |a>)
and from U to H through the divided differences of exp(-i tau z).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datagen import CollisionModelConfig, Dataset, period_superoperator
from .embedding import (CHUNK, MarkovianEmbedding, _transfer_basis, _transfers,
                        ancilla_vector, kraus_stack, superoperator_matrix)
from .errors import DataError, ZeroProbabilityError
from .qla import CMatrix, SpectralDecomposition, herm_eig, spectral_unitary

GradientMatrix = CMatrix  # Hermitian, same side as the model Hamiltonian

DEGENERACY_TOL = 1e-12


@dataclass
class PropagationCache:
    """Normalized forward/backward sweeps over one record sequence, kept as
    reservoir blocks.

    Index ``i`` runs 0..n over measurement times.  For ``i >= 1``,
    ``forward_blocks[i]`` is the unit-trace reservoir block sigma_i of the
    post-measurement state |phi_i><phi_i| x sigma_i, with
    ``forward_log_scale[i]`` the prefix log-likelihood, and
    ``backward_blocks[i]`` is the block beta_i = <phi_i| effect_i |phi_i> of
    the Heisenberg effect of records i+1..n, with ``backward_log_scale[i]``
    the log of the scale removed from it:

        log tr(sigma_i @ beta_i) + forward_log_scale[i]
                                 + backward_log_scale[i]  == log p

    Entry 0 of both block arrays is NaN: at time 0 the pair is the initial
    joint state ``rho0`` and the joint effect M^+(|phi_1><phi_1| x beta_1)
    at unit operator norm, whose log scale is ``backward_log_scale[0]``.
    The joint-sized ``forward_states`` and ``backward_effects`` are built
    on demand for tests and oracles.  Either half may be absent if only one
    sweep was run.

    ``model`` and ``data`` are the pair the sweeps ran on; ``phis`` holds
    the measured system vectors, ``spectrum`` the eigensystem of the
    model's H and ``period_map`` the superoperator M built from it.  A
    later sweep, validation or gradient of the same model (and data) reuses
    these instead of decomposing H again.
    """

    n: int
    model: MarkovianEmbedding | None = field(default=None, repr=False)
    data: Dataset | None = field(default=None, repr=False)
    phis: np.ndarray | None = field(default=None, repr=False)
    spectrum: SpectralDecomposition | None = field(default=None, repr=False)
    period_map: np.ndarray | None = field(default=None, repr=False)
    rho0: np.ndarray | None = field(default=None, repr=False)
    forward_blocks: np.ndarray | None = field(default=None, repr=False)
    forward_log_scale: np.ndarray | None = field(default=None, repr=False)
    backward_blocks: np.ndarray | None = field(default=None, repr=False)
    backward_log_scale: np.ndarray | None = field(default=None, repr=False)

    def log_likelihood(self) -> float:
        if self.forward_log_scale is None:
            raise ValueError("forward sweep missing")
        return float(self.forward_log_scale[-1])

    def merged_log_likelihood(self, m: int) -> float:
        """Total log p reconstructed at merge point ``m`` (0..n)."""
        if self.forward_blocks is None or self.backward_blocks is None:
            raise ValueError("both sweeps are needed to merge")
        m = operator.index(m)
        if not 0 <= m <= self.n:
            raise ValueError(f"merge point {m} outside 0..{self.n}")
        if m == 0:
            eff = np.eye(self.rho0.shape[0])
            if self.n:
                eff = _dense_effects(self.period_map, self.phis[:1],
                                     self.backward_blocks[1:2])[0][0]
            overlap = np.einsum("ij,ji->", self.rho0, eff).real
        else:
            overlap = np.einsum("ij,ji->", self.forward_blocks[m],
                                self.backward_blocks[m]).real
        if overlap <= 0:
            raise ZeroProbabilityError(m)
        return float(np.log(overlap) + self.forward_log_scale[m]
                     + self.backward_log_scale[m])

    @property
    def forward_states(self) -> np.ndarray:
        """Trace-normalized joint states after each record, (n+1, d, d)."""
        if self.forward_blocks is None:
            raise ValueError("forward sweep missing")
        return np.concatenate((self.rho0[None],
                               _product_operators(self.phis, self.forward_blocks[1:])))

    @property
    def backward_effects(self) -> np.ndarray:
        """Joint effects at unit operator norm, (n+1, d, d); each is
        proportional to the effect of the records after its time."""
        if self.backward_blocks is None:
            raise ValueError("backward sweep missing")
        effects, _ = _dense_effects(self.period_map, self.phis, self.backward_blocks[1:])
        d = effects.shape[1]
        return np.concatenate((effects, np.eye(d, dtype=np.complex128)[None]))


def per_step_increments(cache: PropagationCache) -> np.ndarray:
    """Conditional log-probability of each record given its prefix."""
    if cache.forward_log_scale is None:
        raise ValueError("forward sweep missing")
    return np.diff(cache.forward_log_scale)


def _period_inputs(model: MarkovianEmbedding, data: Dataset,
                   cache: PropagationCache | None):
    """Measured system vectors, eigensystem of H and period superoperator M
    for one model and dataset, taken from ``cache`` when its sweeps ran on
    that same pair."""
    if cache is not None and cache.model is model and cache.data is data:
        return cache.phis, cache.spectrum, cache.period_map
    phis = _projector_vectors(model, data)
    spectrum = herm_eig(model.h)
    return phis, spectrum, superoperator_matrix(model, spectral_unitary(spectrum, model.tau))


def _projector_vectors(model: MarkovianEmbedding, data: Dataset) -> np.ndarray:
    if data.d_s != model.dims.d_s:
        raise DataError(f"data d_s={data.d_s} does not match model d_s={model.dims.d_s}")
    if not abs(data.tau - model.tau) <= 1e-12:  # NaN fails too
        raise DataError(f"data tau={data.tau} does not match model tau={model.tau}")
    return _record_vectors(data)


def _record_vectors(data: Dataset) -> np.ndarray:
    """The measured system vector of every record, stacked (n, d_s)."""
    if not data.records:
        return np.empty((0, data.d_s), dtype=np.complex128)
    return np.stack([rec.basis[:, rec.outcome] for rec in data.records])


def _product_operators(phis: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """|phi><phi| x block for stacked system vectors and reservoir blocks."""
    d = phis.shape[1] * blocks.shape[1]
    return np.einsum("ms,mt,mef->msetf", phis, phis.conj(), blocks).reshape(-1, d, d)


def _dense_effects(m: np.ndarray, phis: np.ndarray,
                   betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint effects M^+(|phi><phi| x beta) for stacked system vectors and
    reservoir blocks, scaled to unit operator norm, and the removed norms."""
    d = phis.shape[1] * betas.shape[1]
    lifted = _product_operators(phis, betas).transpose(0, 2, 1).reshape(-1, d * d)
    prev = (lifted @ m.conj()).reshape(-1, d, d).transpose(0, 2, 1)
    prev = 0.5 * (prev + prev.conj().transpose(0, 2, 1))
    norms = np.abs(np.linalg.eigvalsh(prev)).max(axis=1)
    return prev / np.where(norms > 0.0, norms, 1.0)[:, None, None], norms


def _filter(basis, x: np.ndarray, log0: np.ndarray, phis, out: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """The one scoring loop, run by both sweeps, over a leading axis of
    independent lanes.  Lane s runs under the transfer basis ``basis[s]``:
    ``x[s]`` is the flattened reservoir block after the record with vector
    ``phis[s][0]`` and ``log0[s]`` its running log; the lane conditions on
    ``phis[s][1:]`` in turn and writes one flattened block per record into
    ``out[s]``.

    Returns the running logs, (lanes, n + 1) with ``log0`` first, and per
    lane the index of its first record of zero probability, or -1.  A lane
    that meets such a record holds no meaningful blocks or logs from there
    on, and the other lanes run on.  One lane runs the plain matrix-vector
    loop; several run in lockstep as one stack, every lane bitwise equal to
    its own one-lane loop.
    """
    lanes, k = x.shape
    n = len(phis[0]) - 1
    unit = np.eye(int(round(np.sqrt(k))), dtype=np.complex128).ravel()
    ps = np.empty((lanes, n))
    bad = np.full(lanes, -1)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        t = [_transfers(b, ph[start:stop], ph[start + 1:stop + 1])
             for b, ph in zip(basis, phis)]
        if k == 1:  # T_i is the probability of record i+1 given record i
            for s, ts in enumerate(t):
                ps[s, start:stop] = ts[:, 0, 0].real
        elif lanes == 1:
            x1, out1, ps1 = x[0], out[0], ps[0]
            for i, ti in enumerate(t[0], start):
                y = ti @ x1
                p = (unit @ y).real
                if p <= 0.0:
                    bad[0] = i
                    return np.full((1, n + 1), np.nan), bad
                x1 = y / p
                out1[i] = x1
                ps1[i] = p
            x = x1[None]
        else:
            # A dead lane runs on with meaningless numbers, which may divide
            # by zero or overflow; its first nonpositive probability is found
            # afterwards.  (np.errstate would slow every step by a fifth.)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for i, ti in enumerate(np.stack(t, axis=1), start):
                    y = np.matmul(ti, x[:, :, None])[:, :, 0]
                    p = (y @ unit).real
                    x = y / p[:, None]
                    out[:, i] = x
                    ps[:, i] = p
    dead = ps <= 0.0
    logs = np.full((lanes, n + 1), np.nan)
    for s in range(lanes):
        if dead[s].any():
            bad[s] = dead[s].argmax()
        else:
            logs[s] = np.cumsum(np.concatenate(([log0[s]], np.log(ps[s]))))
    if k == 1:
        out[...] = 1.0
    return logs, bad


def _filter_one(basis: np.ndarray, x: np.ndarray, log0: float, phis: np.ndarray,
                records, out: np.ndarray) -> np.ndarray:
    """:func:`_filter` with one lane; ``records`` give the step a
    zero-probability error reports."""
    logs, bad = _filter([basis], x[None], np.array([log0]), [phis], out[None])
    if bad[0] >= 0:
        raise ZeroProbabilityError(records[bad[0]].step)
    return logs[0]


def _first_block(m: np.ndarray, rho0: np.ndarray, phis: np.ndarray) -> tuple[np.ndarray, float]:
    """The reservoir block after the first record, conditioned on the joint
    state ``rho0`` by one joint-sized step under ``m``, and its probability."""
    d_s = phis.shape[1]
    d = rho0.shape[0]
    d_er = d // d_s
    evolved = (m @ rho0.T.ravel()).reshape(d, d).T
    first = np.einsum("s,setf,t->ef", phis[0].conj(),
                      evolved.reshape(d_s, d_er, d_s, d_er), phis[0])
    return first, np.trace(first).real


def _forward(m: np.ndarray, rho0: np.ndarray, phis: np.ndarray,
             records) -> tuple[np.ndarray, np.ndarray]:
    """Filter from the joint state ``rho0`` under the superoperator ``m``:
    the first record by one joint-sized step, the rest in product form.
    Returns the blocks (NaN at time 0) and the running logs."""
    n, d_s = phis.shape
    d_er = rho0.shape[0] // d_s
    blocks = np.full((n + 1, d_er, d_er), np.nan, dtype=np.complex128)
    if n == 0:
        return blocks, np.zeros(1)
    first, p = _first_block(m, rho0, phis)
    if p <= 0.0:
        raise ZeroProbabilityError(records[0].step)
    blocks[1] = first / p
    logs = _filter_one(_transfer_basis(m, d_s), blocks[1].ravel(), np.log(p), phis,
                       records[1:], blocks[2:].reshape(n - 1, d_er * d_er))
    return blocks, np.concatenate(([0.0], logs))


def forward_pass(model: MarkovianEmbedding, data: Dataset,
                 cache: PropagationCache | None = None) -> PropagationCache:
    """Trace-normalized filtering sweep; raises on a zero-probability step."""
    phis, spectrum, m = _period_inputs(model, data, cache)
    rho0 = np.asarray(model.rho0_ser, dtype=np.complex128)
    blocks, logs = _forward(m, rho0, phis, data.records)
    if cache is None:
        cache = PropagationCache(n=len(data.records))
    cache.model, cache.data, cache.rho0 = model, data, rho0
    cache.phis, cache.spectrum, cache.period_map = phis, spectrum, m
    cache.forward_blocks = blocks
    cache.forward_log_scale = logs
    return cache


def backward_pass(model: MarkovianEmbedding, data: Dataset,
                  cache: PropagationCache | None = None) -> PropagationCache:
    """Trace-normalized smoothing sweep from beta_n = I: the forward loop of
    the dual channel M^+ over the records in reverse order, since
    beta_i = T_i^+ beta_{i+1} and T_i^+ is the transfer of M^+ from record
    i+1 to record i."""
    phis, spectrum, m = _period_inputs(model, data, cache)
    n = len(data.records)
    d_er = model.dims.d_er
    blocks = np.full((n + 1, d_er, d_er), np.nan, dtype=np.complex128)
    logs = np.zeros(n + 1)
    if n:
        blocks[n] = np.eye(d_er)
        # The dual loop writes beta_{n-1}, ..., beta_1 and returns the logs
        # of beta_n, ..., beta_1.
        logs[:0:-1] = _filter_one(_transfer_basis(m.conj().T, model.dims.d_s),
                                  blocks[n].ravel(), 0.0, phis[::-1], data.records[:0:-1],
                                  blocks[1:n].reshape(n - 1, d_er * d_er)[::-1])
        _, norm = _dense_effects(m, phis[:1], blocks[1:2])
        if norm[0] <= 0.0:
            raise ZeroProbabilityError(data.records[0].step)
        logs[0] = logs[1] + np.log(norm[0])
    if cache is None:
        cache = PropagationCache(n=n)
    cache.model, cache.data = model, data
    cache.phis, cache.spectrum, cache.period_map = phis, spectrum, m
    cache.backward_blocks = blocks
    cache.backward_log_scale = logs
    return cache


def build_cache(model: MarkovianEmbedding, data: Dataset) -> PropagationCache:
    """Both sweeps in one cache, the forward sweep first."""
    return backward_pass(model, data, forward_pass(model, data))


def build_caches(models: list[MarkovianEmbedding], data: Dataset,
                 phis: np.ndarray) -> list[PropagationCache | None]:
    """:func:`build_cache` of several models with the same dimensions over
    one dataset, whose measured system vectors are ``phis``.  The forward
    sweeps and the dual-channel backward sweeps of all models run as the
    lanes of one :func:`_filter` loop, so each cache is bitwise the one
    :func:`build_cache` gives.  A model under which some record has zero
    probability gets None in place of a cache; the others are unaffected."""
    n = len(data.records)
    caches, log0 = [], []
    for model in models:
        d_er = model.dims.d_er
        spectrum = herm_eig(model.h)
        m = superoperator_matrix(model, spectral_unitary(spectrum, model.tau))
        rho0 = np.asarray(model.rho0_ser, dtype=np.complex128)
        cache = PropagationCache(
            n=n, model=model, data=data, phis=phis, spectrum=spectrum, period_map=m,
            rho0=rho0, forward_log_scale=np.zeros(n + 1), backward_log_scale=np.zeros(n + 1),
            forward_blocks=np.full((n + 1, d_er, d_er), np.nan, dtype=np.complex128),
            backward_blocks=np.full((n + 1, d_er, d_er), np.nan, dtype=np.complex128))
        if n:
            first, p = _first_block(m, rho0, phis)
            if p <= 0.0:
                cache = None
            else:
                cache.forward_blocks[1] = first / p
                cache.backward_blocks[n] = np.eye(d_er)
                log0.append(np.log(p))
        caches.append(cache)
    live = [i for i, c in enumerate(caches) if c is not None]
    if n == 0 or not live:
        return caches
    # The forward lane of every live model, then its backward lane.
    lanes = [caches[i] for i in live]
    d_s, d_er = data.d_s, lanes[0].model.dims.d_er
    k = d_er * d_er
    basis = ([_transfer_basis(c.period_map, d_s) for c in lanes]
             + [_transfer_basis(c.period_map.conj().T, d_s) for c in lanes])
    x = np.stack([c.forward_blocks[1].ravel() for c in lanes]
                 + [c.backward_blocks[n].ravel() for c in lanes])
    out = np.empty((2 * len(live), n - 1, k), dtype=np.complex128)
    logs, bad = _filter(basis, x, np.array(log0 + [0.0] * len(live)),
                        [phis] * len(live) + [phis[::-1]] * len(live), out)
    for s, (i, cache) in enumerate(zip(live, lanes)):
        b = len(live) + s
        if bad[s] >= 0 or bad[b] >= 0:
            caches[i] = None
            continue
        cache.forward_blocks[2:] = out[s].reshape(n - 1, d_er, d_er)
        cache.forward_log_scale[1:] = logs[s]
        cache.backward_blocks[1:n] = out[b, ::-1].reshape(n - 1, d_er, d_er)
        cache.backward_log_scale[:0:-1] = logs[b]
        _, norm = _dense_effects(cache.period_map, phis[:1], cache.backward_blocks[1:2])
        if norm[0] <= 0.0:
            caches[i] = None
            continue
        cache.backward_log_scale[0] = cache.backward_log_scale[1] + np.log(norm[0])
    return caches


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
    filtering continues from its last record and reservoir block, so the
    training prefix is not filtered again.
    """
    if data_train.provenance != data_val.provenance:
        raise DataError("train/validation provenance differs; not the same trajectory")
    if not data_train.records or not data_val.records:
        raise DataError("empty dataset")
    if data_val.records[0].step != data_train.records[-1].step + 1:
        raise DataError(
            f"validation must continue training: steps {data_train.records[-1].step} "
            f"-> {data_val.records[0].step}")
    if (train_cache.n != len(data_train.records) or train_cache.forward_blocks is None
            or train_cache.forward_log_scale is None):
        raise ValueError("train_cache is not a forward sweep of data_train")
    phis, _, m = _period_inputs(model, data_train, train_cache)
    phis = np.concatenate((phis[-1:], _projector_vectors(model, data_val)))
    # Seeded with the prefix log, every addition matches one sweep over
    # train + validation, so the result equals that sweep's suffix bitwise.
    x = train_cache.forward_blocks[-1].ravel()
    logs = _filter_one(_transfer_basis(m, model.dims.d_s), x,
                       train_cache.forward_log_scale[-1], phis, data_val.records,
                       np.empty((len(data_val.records), x.size), dtype=np.complex128))
    return float(logs[-1] - logs[0]) / len(data_val.records)


def true_model_log_likelihood(cfg: CollisionModelConfig, ds: Dataset) -> float:
    """Per-step log-likelihood of a record set under the generating model, a
    diagnostic ceiling for fitted models.  The period map is a channel on
    S x S1, so the sweep scores the records with S1 as the reservoir."""
    phis = _record_vectors(ds)
    rho0 = np.asarray(cfg.rho_ss1_0, dtype=np.complex128)
    _, logs = _forward(period_superoperator(cfg), rho0, phis, ds.records)
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
    if cache.forward_blocks is None or cache.backward_blocks is None:
        raise ValueError("gradient needs both sweeps in the cache")
    phis, spectrum, m = _period_inputs(model, data, cache)
    n = len(data.records)
    if batch is None:
        batch = np.arange(1, n + 1)
    # Sorted distinct merge points; np.unique would import numpy.ma on its
    # first call (numpy 2), which no other part of a train command needs.
    batch = np.sort(np.asarray(batch, dtype=np.intp), axis=None)
    keep = np.ones(batch.size, dtype=bool)
    keep[1:] = batch[1:] != batch[:-1]
    batch = batch[keep]
    if batch.size == 0:
        raise ValueError("empty batch")
    if batch[0] < 1 or batch[-1] > n:
        raise ValueError(f"batch entries must lie in 1..{n}")

    dims = model.dims
    d, dd = dims.d, dims.d_total
    lam, v = spectrum.eigenvalues, spectrum.eigenvectors
    f = _loewner_exp(lam, model.tau)
    avec = ancilla_vector(model)
    ks = kraus_stack(model, spectral_unitary(spectrum, model.tau))

    # Merge-point factors, column-stacked: a_m = A_m.ravel() = vec(A_m^T) for
    # the measured effect A_m = |phi_m><phi_m| x beta_m, b_m = vec(B_m) for the
    # state after record m-1, |phi_{m-1}><phi_{m-1}| x sigma_{m-1} (rho0 at
    # m = 1); the sandwich value is a_m^T M b_m.
    # B_m^T = conj(phi) conj(phi)^+ x sigma^T; its row at m = 1 is overwritten.
    a = _product_operators(phis[batch - 1], cache.backward_blocks[batch])
    b = _product_operators(phis[batch - 2].conj(),
                           cache.forward_blocks[batch - 1].transpose(0, 2, 1))
    a, b = a.reshape(-1, d * d), b.reshape(-1, d * d)
    b[batch == 1] = cache.rho0.T.ravel()
    values = np.einsum("mi,mi->m", a, b @ m.T).real
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
