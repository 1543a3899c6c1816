"""Variational Gaussian error bars over the Hamiltonian parameters.

A fitted point estimate is promoted to a factorized Gaussian on the packed
Hermitian parameter vector.  The objective descended is the negative
entropy minus the expected log-likelihood under reparameterized draws;
directions the data constrains tightly end up with small standard
deviations, unconstrained ones stay broad until nonlinearity bites.
Posterior uncertainty is pushed forward through the embedding to bands on
the reduced dynamics and to spread of the process matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio, seeds
from .embedding import (GeneratorSuperoperator, MarkovianEmbedding, equilibrium_er_state,
                        model_channels, model_from_dict, model_to_dict,
                        predict_dynamics)
from .assess import dynamics_maps
from .errors import (DataError, DivergenceError, FixedPointError, NumericalError,
                     ZeroProbabilityError)
from .likelihood import build_caches, log_likelihood_gradient
from .qla import bloch_vector, kron, logm_principal_stack, trace_norm
from .train import (AdamState, adam_update, gradient_to_params, pack_hermitian,
                    unpack_hermitian)

# Posterior draws decomposed and pushed forward together: bounds the memory
# of the stacked decompositions, whatever the number of draws is.
DRAW_BLOCK = 8
# The divergence guard of the variational fit: it stops when the objective,
# averaged over a window of iterations, climbs by more than the margin.
DIVERGENCE_WINDOW = 50
DIVERGENCE_MARGIN = 100.0


@dataclass(frozen=True)
class BayesConfig:
    """Hyperparameters of the variational fit.

    ``floor_log_likelihood`` substitutes for draws that give the record
    exactly zero probability; such draws contribute no gradient.
    """

    iterations: int = 1000
    mc_samples: int = 8
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.95
    eps_adam: float = 1e-8
    init_sigma: float = 0.01
    seed: int = 0
    floor_log_likelihood: float = -1e6

    def __post_init__(self):
        if min(self.iterations, self.mc_samples) < 1:
            raise ValueError(f"integer fields must be >= 1: {self}")
        if min(self.lr, self.eps_adam, self.init_sigma) <= 0:
            raise ValueError(f"scale fields must be positive: {self}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError(f"betas must lie in (0, 1): {self}")
        if not self.floor_log_likelihood < 0:
            raise ValueError("floor_log_likelihood must be negative")


def fit_gaussian_posterior(value_and_grad, mean0: np.ndarray, log_std0: np.ndarray,
                           cfg: BayesConfig, rng: np.random.Generator
                           ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Adam descent on the variational objective of a factorized Gaussian.

    Each iteration draws ``cfg.mc_samples`` fresh reparameterized draws
    theta = mean + exp(log_std) * eps as the rows of one stack, and
    ``value_and_grad(thetas) -> [(float, grad), ...]`` evaluates the target
    log-density at every row, in row order.  It descends

        objective = -sum(log_std) - average log-density.

    Returns the optimized mean, log_std, and the per-iteration objective
    trace.  A non-finite objective or parameter vector aborts with
    :class:`DivergenceError`, as does a window-averaged objective that
    climbs by more than :data:`DIVERGENCE_MARGIN` over one window; the
    exception carries the trace so far.
    """
    mean = np.asarray(mean0, dtype=np.float64)
    log_std = np.asarray(log_std0, dtype=np.float64)
    if mean.shape != log_std.shape or mean.ndim != 1:
        raise ValueError(f"mean/log_std must be equal-length vectors, "
                         f"got {mean.shape} and {log_std.shape}")
    n = mean.size
    params = np.concatenate([mean, log_std])
    adam = AdamState.fresh(2 * n)
    trace: list[float] = []
    w = DIVERGENCE_WINDOW
    for _ in range(cfg.iterations):
        mean, log_std = params[:n], params[n:]
        sigma = np.exp(log_std)
        value_sum = 0.0
        g_mean = np.zeros(n)
        g_log_std = np.zeros(n)
        # One (samples, n) block is the same numbers as one draw per sample.
        eps = rng.standard_normal((cfg.mc_samples, n))
        for e, (value, grad) in zip(eps, value_and_grad(mean + sigma * eps), strict=True):
            value_sum += value
            g_mean += grad
            g_log_std += grad * e * sigma
        k = cfg.mc_samples
        objective = -float(np.sum(log_std)) - value_sum / k
        trace.append(objective)
        if not math.isfinite(objective):
            raise DivergenceError("variational objective is not finite", trace)
        if len(trace) >= 2 * w:
            recent = sum(trace[-w:]) / w
            prev = sum(trace[-2 * w:-w]) / w
            if recent > prev + DIVERGENCE_MARGIN:
                raise DivergenceError(
                    f"variational objective climbed by {recent - prev:.3e} "
                    f"over one {w}-iteration window", trace)
        grad_obj = np.concatenate([-g_mean / k, -1.0 - g_log_std / k])
        params, adam = adam_update(adam, params, -grad_obj, cfg)
        if not np.all(np.isfinite(params)):
            raise DivergenceError("variational parameters are not finite", trace)
    return params[:n], params[n:], trace


@dataclass(frozen=True)
class VariationalPosterior:
    """Factorized Gaussian over the packed Hermitian parameters.

    The base model supplies dimensions, period, and the fixed initial joint
    state; ``mean`` and ``log_std`` hold one entry per real parameter in
    the order [diagonal, upper real, upper imaginary].
    """

    base: MarkovianEmbedding
    mean: np.ndarray = field(repr=False)
    log_std: np.ndarray = field(repr=False)
    objective_trace: list[float] = field(repr=False, default_factory=list)

    @property
    def std(self) -> np.ndarray:
        return np.exp(self.log_std)

    def mean_model(self) -> MarkovianEmbedding:
        return self.base.with_h(unpack_hermitian(self.mean, self.base.dims.d_total))


def fit_posterior(model: MarkovianEmbedding, data, cfg: BayesConfig
                  ) -> VariationalPosterior:
    """Error bars around a fitted model from its training record.

    The mean starts at the model's own parameters and every standard
    deviation at ``cfg.init_sigma``.  Gradients use all merge points, so
    each draw costs one full forward/backward sweep; the sweeps of an
    iteration's draws run in lockstep (:func:`score_draws`).
    """
    def value_and_grad(thetas: np.ndarray):
        return score_draws(model, data, thetas, cfg.floor_log_likelihood)

    rng = seeds.stream(cfg.seed, "bayes")
    mean0 = pack_hermitian(model.h)
    log_std0 = np.full(mean0.size, math.log(cfg.init_sigma))
    mean, log_std, trace = fit_gaussian_posterior(value_and_grad, mean0, log_std0,
                                                  cfg, rng)
    return VariationalPosterior(base=model, mean=mean, log_std=log_std,
                                objective_trace=trace)


def score_draws(model: MarkovianEmbedding, data, thetas: np.ndarray,
                floor: float) -> list[tuple[float, np.ndarray]]:
    """(log-likelihood, packed gradient) of ``model`` with each row of
    ``thetas`` as its packed Hamiltonian, over ``data``.  The sweeps of all
    rows run as the lanes of one loop
    (:func:`~embedlearn.likelihood.build_caches`).  A row under which some
    record has zero probability scores ``floor`` with a zero gradient."""
    dd = model.dims.d_total
    models = [model.with_h(unpack_hermitian(theta, dd)) for theta in thetas]
    all_steps = np.arange(1, len(data) + 1)
    scores = []
    for cache in build_caches(models, data):
        score = (floor, np.zeros(thetas.shape[1]))
        if cache is not None:
            try:
                g = log_likelihood_gradient(cache, all_steps)
                score = (cache.log_likelihood(), gradient_to_params(g))
            except ZeroProbabilityError:
                pass
        scores.append(score)
    return scores


def _usable_draws(posterior: VariationalPosterior, n_draws: int,
                  rng: np.random.Generator):
    """Yield the usable draws in blocks, in attempt order, each block as a
    stacked generator and its equilibrium reservoir states.

    Draws whose channel has no principal logarithm or no unique stationary
    state are skipped and resampled; total attempts are capped at ten per
    requested draw.  Up to ``DRAW_BLOCK`` attempts are drawn and decomposed
    together, but never more than the draws still missing, so the stream,
    the draws and the attempt count are those of one attempt at a time.
    """
    base = posterior.base
    dims = base.dims
    tries = 0
    got = 0
    while got < n_draws:
        if tries >= 10 * n_draws:
            raise NumericalError(
                f"only {got} of {n_draws} posterior draws usable in {tries} attempts")
        size = min(DRAW_BLOCK, n_draws - got, 10 * n_draws - tries)
        tries += size
        thetas = posterior.mean + posterior.std * rng.standard_normal((size, posterior.mean.size))
        models = [base.with_h(unpack_hermitian(theta, dims.d_total)) for theta in thetas]
        _, log_w, v, v_inv = logm_principal_stack(model_channels(models)[1])
        keep, ers = [], []
        for j in range(len(log_w)):
            try:
                ers.append(equilibrium_er_state(
                    GeneratorSuperoperator(log_w[j], v[j], v_inv[j], dims, base.tau)))
            except FixedPointError:
                continue
            keep.append(j)
        got += len(keep)
        if keep:
            yield (GeneratorSuperoperator(log_w[keep], v[keep], v_inv[keep], dims, base.tau),
                   np.stack(ers))


@dataclass(frozen=True)
class PosteriorDynamics:
    """Reduced-system trajectories and maps over posterior draws.

    ``states`` has shape (draws, times, d_s, d_s) and ``maps``, the Choi
    matrices of each draw's reduced dynamical maps, has shape
    (draws, times, d_s**2, d_s**2).
    """

    times: np.ndarray
    states: np.ndarray = field(repr=False)
    maps: np.ndarray = field(repr=False)

    def bloch_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean, std) of the Bloch components, each of shape (times, 3);
        ``ValueError`` unless the system is a qubit."""
        vecs = bloch_vector(self.states)
        return vecs.mean(axis=0), vecs.std(axis=0)

    def bands_to_csv(self, path) -> None:
        mean, std = self.bloch_stats()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time,x_mean,x_std,y_mean,y_std,z_mean,z_std\n")
            for t, mu, sd in zip(self.times, mean, std):
                cells = [repr(float(t))]
                for c in range(3):
                    cells.append(repr(float(mu[c])))
                    cells.append(repr(float(sd[c])))
                fh.write(",".join(cells) + "\n")


def sample_dynamics(posterior: VariationalPosterior, rho_s0: np.ndarray, times,
                    n_draws: int, rng: np.random.Generator) -> PosteriorDynamics:
    """Push posterior draws through their embeddings.

    Each draw is diagonalized once.  It evolves ``rho_s0`` from a product
    with that draw's own equilibrium reservoir state, and its reduced maps
    start from the same reservoir state.  Each block of usable draws is
    propagated to all times at once.
    """
    if n_draws < 2:
        raise ValueError("need at least two draws")
    dims = posterior.base.dims
    rho_s0 = np.asarray(rho_s0, dtype=np.complex128)
    if rho_s0.shape != (dims.d_s, dims.d_s):
        raise ValueError(f"rho_s0 must be {dims.d_s}x{dims.d_s}, got {rho_s0.shape}")
    times = np.asarray(times, dtype=np.float64)
    side = dims.d_s * dims.d_s
    states = np.empty((n_draws, times.size, dims.d_s, dims.d_s), dtype=np.complex128)
    maps = np.empty((n_draws, times.size, side, side), dtype=np.complex128)
    i = 0
    for gen, ers in _usable_draws(posterior, n_draws, rng):
        j = i + len(ers)
        rho0 = np.stack([kron(rho_s0, er) for er in ers])
        states[i:j] = predict_dynamics(gen, rho0, times)
        maps[i:j] = dynamics_maps(gen, ers, times)
        i = j
    return PosteriorDynamics(times=times, states=states, maps=maps)


def bayes_channel_error(dyn: PosteriorDynamics) -> float:
    """Posterior spread of the reduced maps in half-trace-norm.

    Choi matrices of each draw's dynamical maps are compared with their
    across-draw mean and the distances averaged over draws and over the
    positive times, or over all times if none is positive (every map is the
    identity at t = 0).
    """
    keep = dyn.times > 0
    chois = dyn.maps[:, keep] if keep.any() else dyn.maps
    n_draws, n_times = chois.shape[:2]
    center = chois.mean(axis=0)
    total = 0.0
    for norm in trace_norm(chois - center).ravel():  # in draw-then-time order
        total += float(norm)
    return total / (2.0 * n_draws * n_times)


# ---------------------------------------------------------------------------
# Posterior (de)serialization.
# ---------------------------------------------------------------------------

def posterior_to_dict(posterior: VariationalPosterior) -> dict:
    """The base model and the two parameter vectors, each vector one base64
    string of its little-endian float64 bytes."""
    return {
        "model": model_to_dict(posterior.base),
        "mean": jsonio.array_to_b64(posterior.mean, "<f8"),
        "log_std": jsonio.array_to_b64(posterior.log_std, "<f8"),
    }


def posterior_from_dict(obj: dict) -> VariationalPosterior:
    base = model_from_dict(obj["model"])
    shape = (base.dims.d_total ** 2,)
    try:
        mean, log_std = (jsonio.b64_to_array(obj[k], "<f8", shape, k)
                         for k in ("mean", "log_std"))
        if not (np.isfinite(mean).all() and np.isfinite(log_std).all()):
            raise ValueError("mean and log_std must be finite")
    except ValueError as exc:
        raise DataError(f"bad posterior parameters: {exc}") from exc
    return VariationalPosterior(base=base, mean=mean, log_std=log_std)


def save_posterior(posterior: VariationalPosterior, path) -> None:
    # json.dumps encodes in one C call; json.dump would stream the same
    # bytes through the pure-Python chunked encoder.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(posterior_to_dict(posterior)) + "\n")


def load_posterior(path) -> VariationalPosterior:
    with open(path, encoding="utf-8") as fh:
        return posterior_from_dict(json.load(fh))
