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

from . import seeds
from .embedding import (MarkovianEmbedding, equilibrium_er_state, extract_generator,
                        model_from_dict, model_to_dict, predict_dynamics)
from .assess import dynamics_maps
from .errors import (BranchCutError, DataError, DivergenceError, FixedPointError,
                     IllConditionedError, NumericalError, ZeroProbabilityError)
from .likelihood import build_cache, log_likelihood_gradient
from .qla import bloch_vector, kron, trace_norm
from .train import (AdamState, adam_update, gradient_to_params, pack_hermitian,
                    unpack_hermitian)


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
    divergence_window: int = 50
    divergence_margin: float = 100.0

    def __post_init__(self):
        if min(self.iterations, self.mc_samples, self.divergence_window) < 1:
            raise ValueError(f"integer fields must be >= 1: {self}")
        if min(self.lr, self.eps_adam, self.init_sigma, self.divergence_margin) <= 0:
            raise ValueError(f"scale fields must be positive: {self}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError(f"betas must lie in (0, 1): {self}")
        if not self.floor_log_likelihood < 0:
            raise ValueError("floor_log_likelihood must be negative")


def fit_gaussian_posterior(value_and_grad, mean0: np.ndarray, log_std0: np.ndarray,
                           cfg: BayesConfig, rng: np.random.Generator
                           ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Adam descent on the variational objective of a factorized Gaussian.

    ``value_and_grad(theta) -> (float, grad)`` evaluates the target
    log-density at one draw.  Each iteration uses ``cfg.mc_samples`` fresh
    reparameterized draws theta = mean + exp(log_std) * eps and descends

        objective = -sum(log_std) - average log-density.

    Returns the optimized mean, log_std, and the per-iteration objective
    trace.  A non-finite objective or parameter vector aborts with
    :class:`DivergenceError`, as does a window-averaged objective that
    climbs by more than ``cfg.divergence_margin`` over one window; the
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
    w = cfg.divergence_window
    for _ in range(cfg.iterations):
        mean, log_std = params[:n], params[n:]
        sigma = np.exp(log_std)
        value_sum = 0.0
        g_mean = np.zeros(n)
        g_log_std = np.zeros(n)
        for _ in range(cfg.mc_samples):
            eps = rng.standard_normal(n)
            value, grad = value_and_grad(mean + sigma * eps)
            value_sum += value
            g_mean += grad
            g_log_std += grad * eps * sigma
        k = cfg.mc_samples
        objective = -float(np.sum(log_std)) - value_sum / k
        trace.append(objective)
        if not math.isfinite(objective):
            raise DivergenceError("variational objective is not finite", trace)
        if len(trace) >= 2 * w:
            recent = sum(trace[-w:]) / w
            prev = sum(trace[-2 * w:-w]) / w
            if recent > prev + cfg.divergence_margin:
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

    def sample_model(self, rng: np.random.Generator) -> MarkovianEmbedding:
        theta = self.mean + self.std * rng.standard_normal(self.mean.size)
        return self.base.with_h(unpack_hermitian(theta, self.base.dims.d_total))


def fit_posterior(model: MarkovianEmbedding, data, cfg: BayesConfig
                  ) -> VariationalPosterior:
    """Error bars around a fitted model from its training record.

    The mean starts at the model's own parameters and every standard
    deviation at ``cfg.init_sigma``.  Gradients use all merge points, so
    each draw costs one full forward/backward sweep.
    """
    dd = model.dims.d_total
    n = len(data.records)
    all_steps = np.arange(1, n + 1)

    def value_and_grad(theta: np.ndarray):
        m = model.with_h(unpack_hermitian(theta, dd))
        try:
            cache = build_cache(m, data)
            g = log_likelihood_gradient(m, data, cache, all_steps)
        except ZeroProbabilityError:
            return cfg.floor_log_likelihood, np.zeros(theta.size)
        return cache.log_likelihood(), gradient_to_params(g)

    rng = seeds.stream(cfg.seed, "bayes")
    mean0 = pack_hermitian(model.h)
    log_std0 = np.full(mean0.size, math.log(cfg.init_sigma))
    mean, log_std, trace = fit_gaussian_posterior(value_and_grad, mean0, log_std0,
                                                  cfg, rng)
    return VariationalPosterior(base=model, mean=mean, log_std=log_std,
                                objective_trace=trace)


def _usable_draws(posterior: VariationalPosterior, n_draws: int,
                  rng: np.random.Generator):
    """Yield (model, generator, equilibrium reservoir state) for usable draws.

    Draws whose channel has no principal logarithm or no unique stationary
    state are skipped and resampled; total attempts are capped at ten per
    requested draw.
    """
    dims = posterior.base.dims
    tries = 0
    got = 0
    while got < n_draws:
        if tries >= 10 * n_draws:
            raise NumericalError(
                f"only {got} of {n_draws} posterior draws usable in {tries} attempts")
        tries += 1
        m = posterior.sample_model(rng)
        try:
            gen = extract_generator(m)
            er = equilibrium_er_state(gen, dims)
        except (BranchCutError, IllConditionedError, FixedPointError):
            continue
        got += 1
        yield m, gen, er


@dataclass(frozen=True)
class PosteriorDynamics:
    """Reduced-system trajectories over posterior draws.

    ``states`` has shape (draws, times, d_s, d_s).
    """

    times: np.ndarray
    states: np.ndarray = field(repr=False)

    def entry_mean(self) -> np.ndarray:
        return self.states.mean(axis=0)

    def entry_std(self) -> np.ndarray:
        dev = self.states - self.states.mean(axis=0)
        return np.sqrt((np.abs(dev) ** 2).mean(axis=0))

    def bloch_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean, std) of the Bloch components, each of shape (times, 3)."""
        if self.states.shape[-1] != 2:
            raise ValueError("Bloch components need a two-level system")
        vecs = np.stack([[bloch_vector(s) for s in draw] for draw in self.states])
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

    Each draw evolves ``rho_s0`` from a product with that draw's own
    equilibrium reservoir state.
    """
    if n_draws < 2:
        raise ValueError("need at least two draws")
    dims = posterior.base.dims
    rho_s0 = np.asarray(rho_s0, dtype=np.complex128)
    if rho_s0.shape != (dims.d_s, dims.d_s):
        raise ValueError(f"rho_s0 must be {dims.d_s}x{dims.d_s}, got {rho_s0.shape}")
    times = np.asarray(times, dtype=np.float64)
    states = np.empty((n_draws, times.size, dims.d_s, dims.d_s), dtype=np.complex128)
    for i, (_, gen, er) in enumerate(_usable_draws(posterior, n_draws, rng)):
        traj = predict_dynamics(gen, dims, kron(rho_s0, er), list(times))
        states[i] = np.stack(traj)
    return PosteriorDynamics(times=times, states=states)


def bayes_channel_error(posterior: VariationalPosterior, times, n_draws: int,
                        rng: np.random.Generator) -> float:
    """Posterior spread of the reduced maps in half-trace-norm.

    Choi matrices of each draw's dynamical maps are compared with their
    across-draw mean and the distances averaged over draws and times.
    """
    if n_draws < 2:
        raise ValueError("need at least two draws")
    times = list(times)
    dims = posterior.base.dims
    side = dims.d_s * dims.d_s
    chois = np.empty((n_draws, len(times), side, side), dtype=np.complex128)
    for i, (_, gen, er) in enumerate(_usable_draws(posterior, n_draws, rng)):
        maps = dynamics_maps(gen, dims, er, times)
        chois[i] = np.stack([c.matrix for c in maps])
    center = chois.mean(axis=0)
    total = 0.0
    for i in range(n_draws):
        for t in range(len(times)):
            total += trace_norm(chois[i, t] - center[t])
    return total / (2.0 * n_draws * len(times))


# ---------------------------------------------------------------------------
# Posterior (de)serialization.
# ---------------------------------------------------------------------------

def posterior_to_dict(posterior: VariationalPosterior) -> dict:
    return {
        "model": model_to_dict(posterior.base),
        "mean": [float(x) for x in posterior.mean],
        "log_std": [float(x) for x in posterior.log_std],
    }


def posterior_from_dict(obj: dict) -> VariationalPosterior:
    base = model_from_dict(obj["model"])
    mean = np.asarray(obj["mean"], dtype=np.float64)
    log_std = np.asarray(obj["log_std"], dtype=np.float64)
    n_expected = base.dims.d_total ** 2
    if mean.size != n_expected or log_std.size != n_expected:
        raise DataError(f"posterior parameter count mismatch: expected "
                        f"{n_expected}, got {mean.size} and {log_std.size}")
    return VariationalPosterior(base=base, mean=mean, log_std=log_std)


def save_posterior(posterior: VariationalPosterior, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(posterior_to_dict(posterior), fh)
        fh.write("\n")


def load_posterior(path) -> VariationalPosterior:
    with open(path, encoding="utf-8") as fh:
        return posterior_from_dict(json.load(fh))
