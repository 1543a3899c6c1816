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
M = sum_j conj(K_j) x K_j to the Kraus operators K_j = (I x <j|) U (I x |0>)
and from U to H through the divided differences of exp(-i tau z).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datagen import Dataset, _check_continues, _record_vectors
from .embedding import (CHUNK, MarkovianEmbedding, PeriodChannel, _transfer_basis,
                        _transfers, model_channels)
from .errors import DataError, ZeroProbabilityError
from .qla import CMatrix, SpectralDecomposition, unvec, vec

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

    Entry 0 of both block arrays is NaN: at time 0 the pair is the start
    state ``channel.rho0`` and the joint effect M^+(|phi_1><phi_1| x beta_1)
    at unit operator norm, whose log scale is ``backward_log_scale[0]``.
    Either half may be absent if only one sweep was run.

    The sweeps ran under ``channel`` over ``data``, whose measured system
    vectors are ``phis``.  The eigensystem ``spectrum`` of the model's H and
    the Kraus stack ``kraus`` of its period unitary, which ``channel`` was
    built from, let the gradient of these sweeps skip decomposing H again;
    both are None for the generating channel of
    :func:`true_model_log_likelihood`.
    """

    n: int
    data: Dataset | None = field(default=None, repr=False)
    phis: np.ndarray | None = field(default=None, repr=False)
    spectrum: SpectralDecomposition | None = field(default=None, repr=False)
    kraus: np.ndarray | None = field(default=None, repr=False)
    channel: PeriodChannel | None = field(default=None, repr=False)
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
            eff = np.eye(self.channel.dims.d)
            if self.n:
                eff = _dense_effects(self.channel.m, self.phis[:1],
                                     self.backward_blocks[1:2])[0][0]
            overlap = np.einsum("ij,ji->", self.channel.rho0, eff).real
        else:
            overlap = np.einsum("ij,ji->", self.forward_blocks[m],
                                self.backward_blocks[m]).real
        if overlap <= 0:
            raise ZeroProbabilityError(m)
        return float(np.log(overlap) + self.forward_log_scale[m]
                     + self.backward_log_scale[m])


def _new_cache(channel: PeriodChannel, data: Dataset,
               spectrum: SpectralDecomposition | None = None, kraus: np.ndarray | None = None,
               phis: np.ndarray | None = None) -> PropagationCache:
    """A cache of ``channel`` over ``data`` before any sweep; given ``phis`` skip the check."""
    phis = _projector_vectors(channel, data) if phis is None else phis
    return PropagationCache(n=len(data), data=data, phis=phis,
                            spectrum=spectrum, kraus=kraus, channel=channel)


def _model_caches(models: list[MarkovianEmbedding], data: Dataset) -> list[PropagationCache]:
    """New caches of ``models`` over ``data``, their channels built as one stack."""
    spectra, ms, kraus = model_channels(models)
    caches = []
    for model, w, v, m, ks in zip(models, spectra.eigenvalues, spectra.eigenvectors, ms, kraus):
        channel = PeriodChannel(m, model.dims, model.rho0_ser, model.tau)
        caches.append(_new_cache(channel, data, SpectralDecomposition(w, v), ks,
                                 caches[0].phis if caches else None))
    return caches


def _projector_vectors(channel: PeriodChannel, data: Dataset) -> np.ndarray:
    if data.d_s != channel.dims.d_s:
        raise DataError(f"data d_s={data.d_s} does not match model d_s={channel.dims.d_s}")
    if not abs(data.tau - channel.tau) <= 1e-12:  # NaN fails too
        raise DataError(f"data tau={data.tau} does not match model tau={channel.tau}")
    return _record_vectors(data)


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
    on, and the other lanes run on.  Any number of lanes, one included, runs
    in lockstep as one stack of column blocks, every lane bitwise equal to
    its own loop run alone.
    """
    lanes, k = x.shape
    n = len(phis[0]) - 1
    unit = np.eye(int(round(np.sqrt(k))), dtype=np.complex128).reshape(1, k)
    ps = np.empty((lanes, n))
    # Each lane's block is a column, so one step is two stacked products.
    xc, outc, psc = x[:, :, None], out[..., None], ps[:, :, None, None]
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        t = [_transfers(b, ph[start:stop], ph[start + 1:stop + 1])
             for b, ph in zip(basis, phis)]
        if k == 1:  # T_i is the probability of record i+1 given record i
            for s, ts in enumerate(t):
                ps[s, start:stop] = ts[:, 0, 0].real
            continue
        # A dead lane runs on with meaningless numbers, which may divide by
        # zero or overflow; its first nonpositive probability is found
        # afterwards.  (np.errstate would slow every step by a fifth.)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for i, ti in enumerate(np.stack(t, axis=1), start):
                y = ti @ xc
                p = (unit @ y).real
                xc = y / p
                outc[:, i] = xc
                psc[:, i] = p
    dead = ps <= 0.0
    logs = np.full((lanes, n + 1), np.nan)
    bad = np.full(lanes, -1)
    for s in range(lanes):
        if dead[s].any():
            bad[s] = dead[s].argmax()
        else:
            logs[s] = np.cumsum(np.concatenate(([log0[s]], np.log(ps[s]))))
    if k == 1:
        out[...] = 1.0
    return logs, bad


def _sweep(caches: list[PropagationCache], forward: bool, backward: bool) -> list[int]:
    """The forward and/or backward sweeps of caches of one shape over one
    record sequence, as the lanes of one :func:`_filter` call.  Each cache
    holds ``phis`` and ``channel``.

    A forward lane starts from the block after the first record, which one
    joint-sized step conditions on ``channel.rho0``.  A backward lane starts
    from beta_n = I under the dual channel M^+ over the records in reverse
    order, and the norm of the joint effect at time 0 closes it.  All
    forward lanes run first, then all backward lanes; a cache whose first
    record has zero probability gets no lanes.  The caches' blocks and
    running logs are views of rows of two arrays, which the loop writes.
    Returns per cache the index of its first record of zero probability,
    or -1; such a cache holds no meaningful sweep.
    """
    n, dims = len(caches[0].phis), caches[0].channel.dims
    d_s, d_er = dims.d_s, dims.d_er
    bad = [-1] * len(caches)
    # Per lane: cache index, direction (True forward), transfer basis,
    # record vectors, start log and start block; a backward lane's record
    # vectors run from time n to 1.
    lanes = []
    for c, cache in enumerate(caches if forward and n else []):
        evolved = unvec(cache.channel.m @ vec(cache.channel.rho0))
        first = np.einsum("s,setf,t->ef", cache.phis[0].conj(),
                          evolved.reshape(d_s, d_er, d_s, d_er), cache.phis[0])
        p = np.trace(first).real
        if p <= 0.0:
            bad[c] = 0
            continue
        lanes.append((c, True, _transfer_basis(cache.channel.m, dims), cache.phis,
                      np.log(p), first / p))
    for c, cache in enumerate(caches if backward and n else []):
        if bad[c] < 0:
            lanes.append((c, False, _transfer_basis(cache.channel.m.conj().T, dims),
                          cache.phis[::-1], 0.0, np.eye(d_er)))
    # Row s holds lane s's start block at 1 and the blocks it writes at
    # 2..n, and their running logs.  A forward cache reads its rows from 0
    # up, a backward one from n + 1 down, so entry 0 of both block arrays is
    # NaN.  A direction that runs no lane reads rows after the lanes' rows.
    running = [lane[:2] for lane in lanes]
    idle = [(c, fwd) for fwd, on in ((True, forward), (False, backward)) if on
            for c in range(len(caches)) if (c, fwd) not in running]
    rows = np.full((len(running) + len(idle), n + 2, d_er * d_er), np.nan, dtype=np.complex128)
    scales = np.zeros(rows.shape[:2])
    for row, scale, (c, fwd) in zip(rows, scales, running + idle):
        if fwd:
            caches[c].forward_blocks = row[:n + 1].reshape(n + 1, d_er, d_er)
            caches[c].forward_log_scale = scale[:n + 1]
        else:
            caches[c].backward_blocks = row[:0:-1].reshape(n + 1, d_er, d_er)
            caches[c].backward_log_scale = scale[:0:-1]
    if not lanes:
        return bad
    owner, ahead, basis, phis, log0, start = zip(*lanes)
    rows[:len(lanes), 1] = np.reshape(start, (len(lanes), -1))
    logs, dead = _filter(basis, rows[:len(lanes), 1].copy(), np.array(log0), phis,
                         rows[:len(lanes), 2:n + 1])
    scales[:len(lanes), 1:n + 1] = logs
    for s, c in enumerate(owner):
        cache = caches[c]
        if dead[s] >= 0:
            if bad[c] < 0:
                bad[c] = dead[s] + 1 if ahead[s] else n - 1 - dead[s]
        elif not ahead[s]:
            _, norm = _dense_effects(cache.channel.m, cache.phis[:1], cache.backward_blocks[1:2])
            if norm[0] <= 0.0:
                bad[c] = 0
            else:
                cache.backward_log_scale[0] = cache.backward_log_scale[1] + np.log(norm[0])
    return bad


def _one_sweep(model: MarkovianEmbedding, data: Dataset, forward: bool,
               backward: bool) -> PropagationCache:
    """The sweeps of ``model`` over ``data`` into a new cache; raises on a
    zero-probability record, the forward sweep's first."""
    cache = _model_caches([model], data)[0]
    _raise_zero_probability(_sweep([cache], forward, backward), data)
    return cache


def _raise_zero_probability(bad: list[int], data: Dataset) -> None:
    if bad[0] >= 0:
        raise ZeroProbabilityError(int(data.records["step"][bad[0]]))


def forward_pass(model: MarkovianEmbedding, data: Dataset) -> PropagationCache:
    """Trace-normalized filtering sweep; raises on a zero-probability step."""
    return _one_sweep(model, data, forward=True, backward=False)


def backward_pass(model: MarkovianEmbedding, data: Dataset) -> PropagationCache:
    """Trace-normalized smoothing sweep from beta_n = I: the forward loop of
    the dual channel M^+ over the records in reverse order, since
    beta_i = T_i^+ beta_{i+1} and T_i^+ is the transfer of M^+ from record
    i+1 to record i."""
    return _one_sweep(model, data, forward=False, backward=True)


def build_cache(model: MarkovianEmbedding, data: Dataset) -> PropagationCache:
    """Both sweeps in one cache, as two lanes of one :func:`_filter` loop;
    raises on a zero-probability record, the forward sweep's first."""
    return _one_sweep(model, data, forward=True, backward=True)


def build_caches(models: list[MarkovianEmbedding], data: Dataset
                 ) -> list[PropagationCache | None]:
    """:func:`build_cache` of several models with the same dimensions over
    one dataset: their channels are built as one stack, and their forward
    and dual-channel backward sweeps run as the lanes of one :func:`_filter`
    loop, so each cache is bitwise the one :func:`build_cache` gives.  A
    model under which some record has zero probability gets None in place
    of a cache; the others are unaffected."""
    caches = _model_caches(models, data)
    bad = _sweep(caches, forward=True, backward=True)
    return [None if b >= 0 else cache for cache, b in zip(caches, bad)]


def log_likelihood(model: MarkovianEmbedding, data: Dataset) -> float:
    """Total log-probability of the record sequence."""
    return forward_pass(model, data).log_likelihood()


def conditional_validation_ll(data_train: Dataset, data_val: Dataset,
                              train_cache: PropagationCache) -> float:
    """Per-step log-likelihood of the validation records, conditioned on
    the training prefix of the same physical trajectory, under the channel
    of ``train_cache``.

    The two datasets must share provenance (seed and config digest) and the
    validation steps must continue the training steps without a gap.
    ``train_cache`` is a forward sweep over ``data_train``; filtering
    continues from its last record and reservoir block, so the training
    prefix is not filtered again.
    """
    _check_continues(data_train, data_val)
    if train_cache.data is not data_train or train_cache.forward_blocks is None:
        raise ValueError("train_cache is not a forward sweep over data_train")
    channel = train_cache.channel
    phis = np.concatenate((train_cache.phis[-1:], _projector_vectors(channel, data_val)))
    # Seeded with the prefix log, every addition matches one sweep over
    # train + validation, so the result equals that sweep's suffix bitwise.
    x = train_cache.forward_blocks[-1].ravel()
    logs, bad = _filter([_transfer_basis(channel.m, channel.dims)], x[None],
                        train_cache.forward_log_scale[-1:], [phis],
                        np.empty((1, len(data_val), x.size), dtype=np.complex128))
    _raise_zero_probability(bad, data_val)
    return float(logs[0, -1] - logs[0, 0]) / len(data_val)


def true_model_log_likelihood(truth: PeriodChannel, ds: Dataset) -> float:
    """Per-step log-likelihood of a record set under the period channel
    ``truth`` that generated it, a diagnostic ceiling for fitted models; a
    dataset of another ``tau`` or ``d_s`` is a :class:`DataError`."""
    cache = _new_cache(truth, ds)
    _raise_zero_probability(_sweep([cache], forward=True, backward=False), ds)
    return cache.log_likelihood() / len(ds)


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


def log_likelihood_gradient(cache: PropagationCache,
                            batch: np.ndarray | list[int] | None = None) -> GradientMatrix:
    """Gradient of the total log-likelihood with respect to the Hamiltonian
    of the model whose sweeps ``cache`` holds.

    Entry (mu, nu) is the derivative along the bare matrix unit |mu><nu|;
    the result is Hermitian, so real/imaginary Hermitian parameter
    derivatives are linear combinations of symmetric entries.

    ``batch`` selects merge points m (1-based steps); the sum over the
    batch is rescaled by n/len(batch), so a full batch reproduces the exact
    gradient and a subset is an unbiased estimate.  Each term is a ratio of
    the per-merge-point derivative to the per-merge-point sandwich value,
    which cancels every renormalization scale.

    ``cache`` must hold both sweeps (``ValueError`` otherwise).  The
    channel, the spectrum of H and the Kraus stack come from the cache, so
    the sweeps and the model they are combined with are always one model's.
    """
    if cache.forward_blocks is None or cache.backward_blocks is None:
        raise ValueError("gradient needs both sweeps in the cache")
    phis, spectrum, ks, n = cache.phis, cache.spectrum, cache.kraus, cache.n
    m, dims, tau = cache.channel.m, cache.channel.dims, cache.channel.tau
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

    d, dd = dims.d, dims.d_total
    lam, v = spectrum.eigenvalues, spectrum.eigenvectors
    f = _loewner_exp(lam, tau)

    # Merge-point factors, column-stacked: a_m = A_m.ravel() = vec(A_m^T) for
    # the measured effect A_m = |phi_m><phi_m| x beta_m, b_m = vec(B_m) for the
    # state after record m-1, |phi_{m-1}><phi_{m-1}| x sigma_{m-1} (rho0 at
    # m = 1); the sandwich value is a_m^T M b_m.
    # B_m^T = conj(phi) conj(phi)^+ x sigma^T; its row at m = 1 is overwritten.
    a = _product_operators(phis[batch - 1], cache.backward_blocks[batch])
    b = _product_operators(phis[batch - 2].conj(),
                           cache.forward_blocks[batch - 1].transpose(0, 2, 1))
    a, b = a.reshape(-1, d * d), b.reshape(-1, d * d)
    b[batch == 1] = vec(cache.channel.rho0)
    values = np.einsum("mi,mi->m", a, b @ m.T).real
    if np.any(values <= 0.0):
        bad = batch[np.argmax(values <= 0.0)]
        raise ZeroProbabilityError(int(bad))

    # d sum_m log value_m = sum C * dM with C = sum_m a_m b_m^T / value_m.
    # Through M = sum_j conj(K_j) x K_j and K_j = (I x <j|) U (I x |0>) this
    # is tr[Gamma1^T dU] + tr[Gamma2^T dU+], where Gamma1 = g1 (I x <0|) and
    # Gamma2 = (I x |0>) g2; only the d_total x d factors g1, g2 are formed.
    c4 = ((a / values[:, None]).T @ b).reshape(d, d, d, d)
    g1 = np.einsum("pqrs,jpr->qjs", c4, ks.conj()).reshape(dd, d)
    g2 = np.einsum("pqrs,jqs->rpj", c4, ks).reshape(d, dd)
    va = v.reshape(d, -1, dd)[:, 0, :]  # (I x <0|) V
    vg1v = (v.T @ g1) @ va.conj()  # V^T Gamma1 V*
    vg2v = va.T @ (g2 @ v.conj())  # V^T Gamma2 V*

    inner = f * vg1v + f.conj() * vg2v
    grad = v.conj() @ inner @ v.T
    return (n / batch.size) * grad
