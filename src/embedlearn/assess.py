"""Model assessment: process matrices, tomography baseline, control tests.

Everything a fitted embedding is judged by lives here: Choi matrices of its
reduced dynamical maps against exact references, a standard process-
tomography pipeline run on the same measurement budget, and predictions
under instantaneous coherent gates, where the embedding's joint
system-reservoir state is exactly what a naive concatenation of reduced
maps lacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import GeneratorSuperoperator, PeriodChannel
from .errors import IllConditionedError, TomographyError
from .qla import CMatrix, dagger, hermitianize, ptrace, trace_norm, unvec, vec

POSITIVITY_TOL = 1e-8


def choi_from_superop(m: CMatrix, d: int) -> CMatrix:
    """Choi matrix of a column-stacking superoperator matrix on a
    d-dimensional system, output factor first; a stack of them gives the
    stack of their Choi matrices, (..., d*d, d*d).

    Normalized as the image of the maximally entangled state: trace one,
    and the partial trace over the output factor is I/d for a trace-
    preserving map.
    """
    m = np.asarray(m, dtype=np.complex128)
    lead = m.shape[:-2]
    k = len(lead)
    m4 = m.reshape(lead + (d, d, d, d)).transpose(*range(k), k + 1, k + 3, k, k + 2)
    return m4.reshape(lead + (d * d, d * d)) / d


def reduced_superops(gen: GeneratorSuperoperator | PeriodChannel, rho_er0: CMatrix,
                     times: list[float]) -> CMatrix:
    """Reduced dynamical maps of an embedding at the given times, as
    column-stacking superoperators on S, (times, d_s**2, d_s**2).

    Each map sends an S input through x -> tr_ER[exp(t L)(x tensor
    rho_er0)].  A stacked generator with a matching stack of reservoir
    states gives (..., times, d_s**2, d_s**2).
    """
    d_s, d_er = gen.dims.d_s, gen.dims.d_er
    # Column j*d_s + i holds vec(|i><j| x rho_er0); a column-stacked joint
    # state has axes (j_s, j_er, i_s, i_er).
    eye = np.eye(d_s, dtype=np.complex128)
    rho_er0 = np.asarray(rho_er0, dtype=np.complex128)
    basis = np.einsum("aj,bi,...ef->...afbeji", eye, eye, rho_er0)
    cols = basis.reshape(rho_er0.shape[:-2] + (gen.dims.d ** 2, d_s * d_s))
    joint = gen.propagate(cols, times)
    joint = joint.reshape(joint.shape[:-2] + (d_s, d_er, d_s, d_er, d_s * d_s))
    m = np.einsum("...jeiec->...jic", joint)  # tr_ER
    return m.reshape(m.shape[:-3] + (d_s * d_s, d_s * d_s))


def dynamics_maps(gen: GeneratorSuperoperator, rho_er0: CMatrix,
                  times: list[float]) -> CMatrix:
    """The maps of :func:`reduced_superops` as stacked Choi matrices on S,
    (..., times, d_s**2, d_s**2)."""
    return choi_from_superop(reduced_superops(gen, rho_er0, times), gen.dims.d_s)


def average_choi_error(chois_a: CMatrix, chois_b: CMatrix) -> float:
    """Mean half-trace-norm distance over paired times, (1/2K) sum |a - b|_1,
    of two stacks of K Choi matrices."""
    chois_a, chois_b = np.asarray(chois_a), np.asarray(chois_b)
    if len(chois_a) != len(chois_b):
        raise ValueError(f"time grids differ: {len(chois_a)} vs {len(chois_b)}")
    if not len(chois_a):
        raise ValueError("empty time grid")
    if chois_a.shape != chois_b.shape:
        raise ValueError("Choi dimensions differ")
    total = 0.0
    for norm in trace_norm(chois_a - chois_b).tolist():
        total += norm
    return total / (2.0 * len(chois_a))


# ---------------------------------------------------------------------------
# Process tomography on the same measurement budget.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TomographyDesign:
    """Input states and POVM effects probed per channel, plus the shot
    budget for that channel.  Every state and effect is a square matrix of
    the side of the first input state."""

    input_states: list[CMatrix] = field(repr=False)
    povm: list[CMatrix] = field(repr=False)
    shots: int = 1000

    def __post_init__(self):
        if not self.shots >= 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        side = len(self.input_states[0]) if len(self.input_states) else 0
        for name, mats in (("input_states", self.input_states), ("povm", self.povm)):
            if not (side and len(mats)) or any(np.shape(m) != (side, side) for m in mats):
                raise ValueError(f"{name} must be a non-empty list of {side} x {side} "
                                 f"matrices, the side of the first input state")


def default_design(shots: int) -> TomographyDesign:
    """Four-state informationally complete design.

    Inputs: |0><0|, |1><1|, |+><+|, and the +y eigenstate.  POVM: each
    input state and its complement, all weighted 1/4, eight effects total.
    """
    zero = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    one = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=np.complex128)
    plus_y = 0.5 * np.array([[1, -1j], [1j, 1]], dtype=np.complex128)
    inputs = [zero, one, plus, plus_y]
    povm = []
    for rho in inputs:
        povm.append(rho / 4.0)
        povm.append((np.eye(2, dtype=np.complex128) - rho) / 4.0)
    return TomographyDesign(input_states=inputs, povm=povm, shots=shots)


def outcome_probabilities(channel_superop: CMatrix, design: TomographyDesign) -> np.ndarray:
    """p[j, k] = tr[channel(rho_j) F_k], clipped at zero; rows sum to one."""
    outs = unvec((channel_superop @ vec(np.stack(design.input_states))[..., None])[..., 0])
    p = np.maximum(np.einsum("kab,jba->jk", np.stack(design.povm), outs).real, 0.0)
    return p / p.sum(axis=1, keepdims=True)


def simulate_tomography_counts(channel_superop: CMatrix, design: TomographyDesign,
                               rng: np.random.Generator) -> np.ndarray:
    """Finite-shot counts: inputs drawn uniformly, outcomes per Born rule.

    Returns an integer array of shape (inputs, effects) summing to
    ``design.shots``.
    """
    n_in = len(design.input_states)
    probs = outcome_probabilities(channel_superop, design)
    per_input = rng.multinomial(design.shots, np.full(n_in, 1.0 / n_in))
    counts = np.zeros_like(probs, dtype=np.int64)
    for j in range(n_in):
        if per_input[j] > 0:
            counts[j] = rng.multinomial(per_input[j], probs[j])
    return counts


def tomography_mle(counts: np.ndarray, design: TomographyDesign, tol: float = 1e-10,
                   max_iter: int = 200_000) -> CMatrix:
    """Maximum-likelihood channel estimates under the CPTP constraint.

    Fixed-point iteration on the Choi matrix: Omega <- N[(I x L^-1/2) R
    Omega R (I x L^-1/2)] with R the likelihood-weighted effect sum and L
    the constraint multiplier; the step is diluted toward the identity
    whenever the log-likelihood would decrease.  Starts from the maximally
    mixed Choi and stops when the per-iteration gain drops below ``tol``.

    ``counts`` of shape (inputs, effects) gives one Choi matrix, as
    :func:`choi_from_superop` normalizes it; a stack of shape (C, inputs,
    effects) gives a stack of C, fitted in lockstep rounds on the running
    channels: an accepted step starts a channel's next iteration, a rejected
    one halves its step, a converged channel is written out and dropped.
    Each channel's iterates are bitwise those of fitting it alone: stacked
    ``@`` and ``eigh`` compute each matrix as the 2-D calls do, the partial
    trace and I x L^-1/2 repeat the additions and products of ``ptrace`` and
    ``np.kron``, the log-likelihoods are one row-times-column ``@``, R one
    ``einsum``, and tr(S_n Omega) adds its terms in the one-channel einsum's
    order (over b for each a, then over a) by ``np.add.reduce`` over leading
    axes, 16 channels at a time to keep temporaries near 100 KiB.  Each
    distinct product S_n[a, b] Omega[b, a] is formed once and gathered into
    the terms: the Pauli-eigenstate inputs and effects of
    :func:`default_design` repeat their entries across n, so only 92 of its
    512 products per channel differ (any design is exact, one without such
    repeats only gains nothing).

    Only ``design.input_states`` and ``design.povm`` are read, so channels
    simulated with different ``shots`` can share one stack.  Counts must be
    finite and nonnegative with a positive total per channel (``ValueError``).
    ``TomographyError`` names the first channel whose multiplier turns
    singular, whose likelihood turns non-finite or that has not converged in
    ``max_iter`` iterations, and carries its index in ``channel``.
    """
    d = design.input_states[0].shape[0]
    side = d * d
    shape = (len(design.input_states), len(design.povm))
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim not in (2, 3) or arr.shape[-2:] != shape:
        raise ValueError(f"counts must have shape {shape} or (C, *{shape}), got {arr.shape}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    flat = arr.reshape(-1, shape[0] * shape[1])
    if not np.isfinite(flat).all():
        raise ValueError("counts must be finite")
    if (flat < 0).any():
        raise ValueError("counts must be nonnegative")
    totals = np.array([row.sum() for row in flat])
    if (totals == 0).any():
        raise ValueError(f"channel {int(np.argmax(totals == 0))} has no counts")
    s_ops = np.stack([np.kron(eff, rho.T) for rho in design.input_states
                      for eff in design.povm])  # (J*K, side, side)
    s_cols = s_ops.reshape(len(s_ops), -1).T.copy()  # s_cols[a*side + b, n] = S_n[a, b]
    # Term (b, a, n) of tr(S_n Omega) is S_n[a, b] Omega[b, a]; form each distinct
    # product once.  Product u multiplies coef[u] = S_n[a, b] by Omega.flat[pos[u]],
    # and term (b, a, n) is product idx[b, a, n].  Coefficients 0 and -0 share a
    # product, which can flip only the sign of a zero probability, clipped below.
    pairs: dict = {}
    idx = np.empty((side, side, len(s_ops)), dtype=np.intp)
    for (b, a, n), s in np.ndenumerate(s_ops.transpose(2, 1, 0)):
        idx[b, a, n] = pairs.setdefault((b * side + a, s), len(pairs))
    pos = np.array([key[0] for key in pairs])
    coef = np.array([key[1] for key in pairs])
    identity = np.eye(side, dtype=np.complex128)
    eye_d = np.eye(d, dtype=np.complex128)

    def evaluate(omegas: CMatrix, flat: np.ndarray,
                 lane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-likelihoods and clipped probabilities of the running channels."""
        p = np.empty((len(omegas), len(s_ops)))
        cols = omegas.reshape(-1, side * side).T  # cols[b*side + a, c] = Omega_c[b, a]
        for lo in range(0, len(omegas), 16):  # 16 channels at a time bound the temporaries
            products = (cols[:, lo:lo + 16].take(pos, axis=0) * coef[:, None]).real
            # Gathered, the terms lie [b, a, n, c]: summed over b for each a, then over a.
            np.add.reduce(np.add.reduce(products.take(idx, axis=0)), out=p[lo:lo + 16].T)
        p = np.maximum(np.multiply(p, d, out=p), 1e-300, out=p)
        values = (flat[:, None, :] @ np.log(p)[:, :, None])[:, 0, 0]
        bad = ~np.isfinite(values)
        if bad.any():
            c = int(lane[np.argmax(bad)])
            raise TomographyError(f"tomography log-likelihood of channel {c} is not finite", c)
        return values, p

    def weighted_effects(weights: np.ndarray) -> CMatrix:
        return hermitianize(np.einsum("cn,kn->ck", weights, s_cols).reshape(-1, side, side))

    def candidates(om: CMatrix, r: CMatrix, step: np.ndarray, totals: np.ndarray,
                   lane: np.ndarray) -> CMatrix:
        st = step[:, None, None]
        r_mix = st * r / totals[:, None, None] + (1.0 - st) * identity
        k = r_mix @ om @ r_mix
        # Partial trace over the output factor: its diagonal blocks summed from zero like ptrace.
        blocks = k.reshape(-1, d, d, d, d).diagonal(axis1=1, axis2=3).transpose(3, 0, 1, 2)
        lam = np.add.reduce(blocks, initial=0.0)
        w, v = np.linalg.eigh(hermitianize(lam))
        singular = w[:, 0] <= 1e-15  # eigh sorts each w ascending
        if singular.any():
            c = int(lane[np.argmax(singular)])
            raise TomographyError("tomography constraint multiplier is singular in "
                                  f"channel {c}", c)
        lam_isqrt = (v / np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
        # I x L^-1/2 by the product np.kron forms.
        proj = (eye_d[:, None, :, None] * lam_isqrt[:, None, :, None, :]).reshape(-1, side, side)
        return hermitianize(proj @ k @ proj / d)

    omega = np.repeat((identity / side)[None], len(flat), axis=0)
    # The running channels: index, counts, total, iterate, log-likelihood, R, step, iterations.
    lane = np.arange(len(flat))
    om = omega
    cur, p = evaluate(om, flat, lane)
    r = weighted_effects(flat / p)
    step = np.ones(len(flat))
    iters = np.zeros_like(lane)
    while len(lane):
        cand = candidates(om, r, step, totals, lane)
        new, p = evaluate(cand, flat, lane)
        halve = (new < cur - 1e-12) & (step >= 1e-6)
        done = ~halve & (np.abs(new - cur) < tol)
        moved = ~halve & ~done
        iters += moved
        om = np.where(halve[:, None, None], om, cand)
        cur = np.where(halve, cur, new)
        step = np.where(halve, 0.5 * step, 1.0)
        r[moved] = weighted_effects(flat[moved] / p[moved])
        over = iters == max_iter  # only a channel that moved can reach it
        if over.any():
            c = int(lane[np.argmax(over)])
            raise TomographyError(f"tomography MLE of channel {c} did not converge "
                                  f"in {max_iter} iterations", c)
        if done.any():
            omega[lane[done]] = om[done]
            keep = ~done
            lane = lane[keep]
            flat = flat[keep]
            totals = totals[keep]
            om = om[keep]
            cur = cur[keep]
            r = r[keep]
            step = step[keep]
            iters = iters[keep]
        del cand, p  # before the next round's temporaries
    return omega[0] if arr.ndim == 2 else omega


# ---------------------------------------------------------------------------
# Instantaneous coherent control.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlEvent:
    """Instantaneous gate on the system at one time."""

    time: float
    gate: CMatrix = field(repr=False)


def predict_with_control(gen: GeneratorSuperoperator | PeriodChannel, rho_ser0: CMatrix,
                         events: list[ControlEvent], times: list[float]) -> CMatrix:
    """Embedding prediction with gates applied to the joint state: system
    states at the requested times, stacked (times, d_s, d_s).

    Between breakpoints the state follows exp(dt L) from the last gate; at
    an event time the gate acts as V x I on system x reservoir.  A requested
    time that coincides with an event reports the post-gate state.
    """
    d_s, d_er = gen.dims.d_s, gen.dims.d_er
    ev = sorted(events, key=lambda e: e.time)
    for e in ev:
        g = np.asarray(e.gate, dtype=np.complex128)
        if g.shape != (d_s, d_s) or np.max(np.abs(g @ dagger(g) - np.eye(d_s))) > 1e-10:
            raise ValueError(f"gate must be a {d_s}x{d_s} unitary")
        if e.time < 0:
            raise ValueError("event times must be nonnegative")
    times = np.asarray(times, dtype=np.float64)
    order = np.argsort(times)
    sorted_times = times[order]
    x = vec(np.asarray(rho_ser0, dtype=np.complex128))[:, None]
    start, done, joint = 0.0, 0, []
    for e in ev:
        hi = int(np.searchsorted(sorted_times, e.time))
        if hi == len(times):
            break  # no requested time at or after this gate
        # The requested times before the gate, then the gate time itself.
        seg = gen.propagate(x, np.append(sorted_times[done:hi], e.time) - start)[..., 0]
        joint.append(seg[:-1])
        g = np.kron(np.asarray(e.gate, dtype=np.complex128), np.eye(d_er, dtype=np.complex128))
        x = vec(g @ unvec(seg[-1]) @ dagger(g))[:, None]
        start, done = e.time, hi
    joint.append(gen.propagate(x, sorted_times[done:] - start)[..., 0])
    states = np.empty((len(times), d_s, d_s), dtype=np.complex128)
    states[order] = hermitianize(ptrace(unvec(np.concatenate(joint)), [d_s, d_er], [0]))
    return states


def concatenation_prediction(times: list[float], superops: CMatrix,
                             event: ControlEvent, rho_s0: CMatrix
                             ) -> tuple[CMatrix, np.ndarray]:
    """Memoryless baseline: stitch exact reduced maps across the gate.

    Before the gate the exact map applies directly; from the gate time on,
    the prediction is map(t) o map(t')^{-1} applied to the gated state.
    Without access to system-reservoir correlations this composition can
    leave the state space; outputs are returned as-is, stacked (times, d,
    d), together with a per-time boolean positivity-violation flag (min
    eigenvalue < -1e-8).

    ``event.time`` must be one of ``times``; the inverse map must have
    condition number at most 1e8.
    """
    if len(times) != len(superops):
        raise ValueError("times and superops must pair up")
    matches = [i for i, t in enumerate(times) if abs(t - event.time) < 1e-12]
    if not matches:
        raise ValueError(f"event time {event.time} is not on the time grid")
    superops = np.asarray(superops)
    m_at = superops[matches[0]]
    cond = np.linalg.cond(m_at)
    if not np.isfinite(cond) or cond > 1e8:
        raise IllConditionedError(float(cond))
    gate = np.asarray(event.gate, dtype=np.complex128)
    gated = gate @ unvec(m_at @ vec(rho_s0)) @ dagger(gate)
    seed_vec = np.linalg.solve(m_at, vec(gated))
    x = np.where((np.asarray(times) < event.time)[:, None], vec(rho_s0), seed_vec)
    states = hermitianize(unvec((superops @ x[..., None])[..., 0]))
    return states, np.linalg.eigvalsh(states).min(axis=-1) < -POSITIVITY_TOL


def trace_distance_trajectory(states_a: CMatrix, states_b: CMatrix) -> np.ndarray:
    """Half trace-norm distance per paired time of two stacks of states."""
    if len(states_a) != len(states_b):
        raise ValueError("trajectories differ in length")
    if not len(states_a):
        return np.zeros(0)
    return 0.5 * trace_norm(np.asarray(states_a) - np.asarray(states_b))

