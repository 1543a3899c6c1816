"""Maximum-likelihood training of embedding models.

The free parameters are the independent real entries of the dilation
Hamiltonian (diagonal, plus real and imaginary parts above it).  Each epoch
draws one batch of merge points, runs the forward and backward sweeps as
the two lanes of one :func:`~embedlearn.likelihood.build_cache` call,
which keeps only the blocks that batch and the validation read, and scores
the current point with the forward one; unless the epoch ends the fit, it
then takes one Adam ascent step on the total log-likelihood.  The initial
joint state is drawn once per restart and then held fixed; only the
Hamiltonian moves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .embedding import MarkovianEmbedding, make_embedding
from .errors import ZeroProbabilityError
from .likelihood import build_cache, conditional_validation_ll, log_likelihood_gradient
from .qla import CMatrix, DimSpec, haar_random_pure_state, kron


@dataclass(frozen=True)
class TrainConfig:
    """Fit hyperparameters.  Optimizer defaults follow the reference setup:
    lr 1e-3, betas (0.9, 0.95), eps 1e-4, batches of 1000 merge points."""

    epochs: int = 3000
    batch_size: int = 1000
    seed: int = 0
    init_scale: float = 0.1
    convergence_window: int = 100
    convergence_tol: float = 1e-4
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.95
    eps_adam: float = 1e-4
    restarts: int = 3
    val_every: int = 20

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.convergence_window,
               self.restarts, self.val_every) < 1:
            raise ValueError(f"integer fields must be >= 1: {self}")
        if min(self.init_scale, self.convergence_tol, self.lr, self.eps_adam) <= 0:
            raise ValueError(f"scale fields must be positive: {self}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError(f"betas must lie in (0, 1): {self}")


@dataclass
class AdamState:
    """First/second moment accumulators over the parameter vector."""

    t: int
    m1: np.ndarray = field(repr=False)
    m2: np.ndarray = field(repr=False)

    @classmethod
    def fresh(cls, n_params: int) -> "AdamState":
        return cls(t=0, m1=np.zeros(n_params), m2=np.zeros(n_params))


@dataclass
class LearningCurve:
    """Per-epoch trace: train per-step ll, optional validation per-step ll
    (only at evaluation epochs), cumulative wall seconds."""

    epoch: list[int] = field(default_factory=list)
    train_per_step: list[float] = field(default_factory=list)
    val_per_step: list[float | None] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def append(self, epoch: int, train: float, val: float | None, secs: float) -> None:
        self.epoch.append(epoch)
        self.train_per_step.append(train)
        self.val_per_step.append(val)
        self.seconds.append(secs)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_per_step,val_per_step,seconds\n")
            for e, tr, va, s in zip(self.epoch, self.train_per_step,
                                    self.val_per_step, self.seconds):
                vtxt = "" if va is None else repr(float(va))
                fh.write(f"{e},{float(tr)!r},{vtxt},{float(s)!r}\n")


# ---------------------------------------------------------------------------
# Hermitian parameter vector: [diag, upper real, upper imag].
# ---------------------------------------------------------------------------

def pack_hermitian(h: CMatrix) -> np.ndarray:
    dd = h.shape[0]
    iu = np.triu_indices(dd, k=1)
    return np.concatenate([np.diag(h).real, h[iu].real, h[iu].imag])


def unpack_hermitian(params: np.ndarray, dd: int) -> CMatrix:
    iu = np.triu_indices(dd, k=1)
    n_off = iu[0].size
    if params.size != dd + 2 * n_off:
        raise ValueError(f"expected {dd + 2 * n_off} parameters, got {params.size}")
    diag = params[:dd]
    re = params[dd:dd + n_off]
    im = params[dd + n_off:]
    h = np.zeros((dd, dd), dtype=np.complex128)
    h[iu] = re + 1j * im
    h += h.conj().T
    h[np.diag_indices(dd)] = diag
    return h


def gradient_to_params(g: CMatrix) -> np.ndarray:
    """Chain rule from the entrywise matrix gradient to the packed vector.

    Real part of an off-diagonal entry feeds both (mu,nu) and (nu,mu), so
    its derivative is 2 Re g; the imaginary part gets -2 Im g from the
    conjugate pairing; the diagonal is real.
    """
    dd = g.shape[0]
    iu = np.triu_indices(dd, k=1)
    return np.concatenate([np.diag(g).real, 2.0 * g[iu].real, -2.0 * g[iu].imag])


def adam_update(state: AdamState, params: np.ndarray, grad: np.ndarray,
                cfg: TrainConfig) -> tuple[np.ndarray, AdamState]:
    """One ascent step; returns the new parameters and accumulator state."""
    t = state.t + 1
    m1 = cfg.beta1 * state.m1 + (1.0 - cfg.beta1) * grad
    m2 = cfg.beta2 * state.m2 + (1.0 - cfg.beta2) * grad * grad
    m1_hat = m1 / (1.0 - cfg.beta1 ** t)
    m2_hat = m2 / (1.0 - cfg.beta2 ** t)
    step = cfg.lr * m1_hat / (np.sqrt(m2_hat) + cfg.eps_adam)
    return params + step, AdamState(t=t, m1=m1, m2=m2)


def init_model(dims: DimSpec, tau: float, rng: np.random.Generator,
               init_scale: float = 0.1) -> MarkovianEmbedding:
    """Random starting point: a Gaussian Hermitian system+reservoir block
    scaled by ``init_scale`` and extended by identity on the ancilla, with
    a product of Haar-random pure states as the initial joint state."""
    d = dims.d
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h_ser = init_scale * 0.5 * (a + a.conj().T)
    h = kron(h_ser, np.eye(dims.d_a, dtype=np.complex128))
    rho0 = np.kron(haar_random_pure_state(dims.d_s, rng),
                   haar_random_pure_state(dims.d_er, rng))
    return make_embedding(dims, tau, h, rho0)


def _run_single_fit(data_train, data_val, dims: DimSpec, cfg: TrainConfig,
                    restart: int) -> tuple[MarkovianEmbedding, LearningCurve, float | None]:
    """One restart: returns (model, curve, selection score).

    The score is the best validation per-step ll seen (validation given),
    else the final train per-step ll.  A zero-probability dataset under a
    fresh initialization is retried up to three times before propagating.
    """
    for attempt in range(3):
        rng_init = seeds.stream(cfg.seed, "init", restart, attempt)
        rng_batch = seeds.stream(cfg.seed, "batch", restart, attempt)
        try:
            # Not bound to a local, which would hold the start for the whole fit.
            return _fit_loop(init_model(dims, data_train.tau, rng_init, cfg.init_scale),
                             data_train, data_val, cfg, rng_batch)
        except ZeroProbabilityError:
            if attempt == 2:
                raise
    raise AssertionError("unreachable")


def _fit_loop(model, data_train, data_val, cfg: TrainConfig,
              rng_batch: np.random.Generator):
    n = len(data_train)
    params = pack_hermitian(model.h)
    adam = AdamState.fresh(params.size)
    curve = LearningCurve()
    dd = model.dims.d_total
    best_val = -math.inf
    # conditional_validation_ll returns a finite value or raises, so the
    # first validated epoch always sets the checkpoint: no start H is held
    # for it.  A checkpoint is the model's own H, which nothing writes into.
    best_h = None
    t0 = time.monotonic()
    for epoch in range(1, cfg.epochs + 1):
        # The batch stream feeds nothing else, so drawing before the sweep
        # takes the same numbers; the last epoch's batch goes unread.
        batch = rng_batch.choice(n, size=min(cfg.batch_size, n), replace=False) + 1
        cache = build_cache(model, data_train, batch)
        train_ps = cache.log_likelihood() / n
        converged = (epoch > cfg.convergence_window and
                     abs(train_ps - curve.train_per_step[-cfg.convergence_window])
                     < cfg.convergence_tol)
        last = converged or epoch == cfg.epochs
        val_ps = None
        if data_val is not None and (epoch % cfg.val_every == 0 or last):
            val_ps = conditional_validation_ll(data_train, data_val, cache)
            if val_ps > best_val:
                best_val = val_ps
                best_h = model.h
        curve.append(epoch, train_ps, val_ps, time.monotonic() - t0)
        if last:
            break
        grad = gradient_to_params(log_likelihood_gradient(cache, batch))
        # Neither the cache, which holds H's eigenvectors, nor the gradient
        # may share the peak of a later step.
        del cache
        params, adam = adam_update(adam, params, grad, cfg)
        del grad
        model = model.with_h(unpack_hermitian(params, dd))
    if data_val is not None:
        final_model = model.with_h(best_h)
        score = best_val
    else:
        final_model = model
        score = curve.train_per_step[-1]
    return final_model, curve, score


def fit(data_train, data_val, dims: DimSpec, cfg: TrainConfig
        ) -> tuple[MarkovianEmbedding, LearningCurve]:
    """Best model over cfg.restarts independent restarts.

    With validation data the restart with the highest validation per-step
    ll wins and the best-validation checkpoint inside it is returned; with
    no validation the final train per-step ll decides.
    """
    best = None
    for r in range(cfg.restarts):
        model, curve, score = _run_single_fit(data_train, data_val, dims, cfg, r)
        if best is None or score > best[0]:
            best = (score, model, curve)
    return best[1], best[2]


def select_d_er(data_train, data_val, candidates: list[int], cfg: TrainConfig
                ) -> tuple[int, list[tuple[int, float]], dict[int, MarkovianEmbedding],
                           dict[int, LearningCurve]]:
    """Fit one model per candidate reservoir dimension and pick the best.

    Returns (winner, table of (d_er, validation per-step ll), fitted
    models, their learning curves), one entry per distinct candidate in
    ascending order.  Each score is the best validation value on the
    returned curve, which ``fit`` computed for the checkpoint it returns.
    Ties break toward the smaller dimension.
    """
    if not candidates:
        raise ValueError("no candidates")
    if data_val is None:
        raise ValueError("select_d_er needs validation data to score the candidates")
    table: list[tuple[int, float]] = []
    models: dict[int, MarkovianEmbedding] = {}
    curves: dict[int, LearningCurve] = {}
    for k in sorted(set(candidates)):
        dims = DimSpec(d_s=data_train.d_s, d_er=k)
        models[k], curves[k] = fit(data_train, data_val, dims, cfg)
        table.append((k, max(v for v in curves[k].val_per_step if v is not None)))
    best_k = max(table, key=lambda row: row[1])[0]
    return best_k, table, models, curves
