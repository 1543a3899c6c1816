"""Model assessment: process matrices, tomography baseline, control tests.

Everything a fitted embedding is judged by lives here: Choi matrices of its
reduced dynamical maps against exact references, a standard process-
tomography pipeline run on the same measurement budget, and predictions
under instantaneous coherent gates, where the embedding's joint
system-reservoir state is exactly what a naive concatenation of reduced
maps lacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embedding import GeneratorSuperoperator
from .errors import IllConditionedError, NumericalError
from .qla import CMatrix, DimSpec, dagger, hermitianize, ptrace, trace_norm, unvec, vec

POSITIVITY_TOL = 1e-8


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi state of a map on a d-dimensional system, output factor first.

    Normalized as the image of the maximally entangled state: trace one,
    and the partial trace over the output factor is I/d for a trace-
    preserving map.
    """

    matrix: CMatrix = field(repr=False)
    d: int

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(hermitianize(self.matrix)).min())

    def output_partial_trace_deviation(self) -> float:
        red = ptrace(self.matrix, [self.d, self.d], [1])
        return float(np.max(np.abs(red - np.eye(self.d) / self.d)))


def choi_from_superop(m: CMatrix, d: int) -> ChoiMatrix:
    """Choi matrix from a column-stacking superoperator matrix."""
    m4 = np.asarray(m, dtype=np.complex128).reshape(d, d, d, d)
    omega = m4.transpose(1, 3, 0, 2).reshape(d * d, d * d) / d
    return ChoiMatrix(matrix=omega, d=d)


def dynamics_maps(gen: GeneratorSuperoperator, dims: DimSpec, rho_er0: CMatrix,
                  times: list[float]) -> list[ChoiMatrix]:
    """Reduced dynamical maps of an embedding at the given times.

    Each map sends an S input through x -> tr_ER[exp(t L)(x tensor
    rho_er0)]; maps are returned as Choi matrices on S.
    """
    d_s, d_er = dims.d_s, dims.d_er
    # Column j*d_s + i holds vec(|i><j| x rho_er0); a column-stacked joint
    # state has axes (j_s, j_er, i_s, i_er).
    eye = np.eye(d_s, dtype=np.complex128)
    basis = np.einsum("aj,bi,ef->afbeji", eye, eye, np.asarray(rho_er0, dtype=np.complex128))
    flow = gen.flow(basis.reshape(dims.d ** 2, d_s * d_s))
    out = []
    for t in times:
        if t < 0:
            raise ValueError(f"times must be nonnegative, got {t}")
        joint = flow(float(t)).reshape(d_s, d_er, d_s, d_er, d_s * d_s)
        m = np.einsum("jeiec->jic", joint).reshape(d_s * d_s, d_s * d_s)  # tr_ER
        out.append(choi_from_superop(m, d_s))
    return out


def average_choi_error(chois_a: list[ChoiMatrix], chois_b: list[ChoiMatrix]) -> float:
    """Mean half-trace-norm distance over paired times, (1/2K) sum |a - b|_1."""
    if len(chois_a) != len(chois_b):
        raise ValueError(f"time grids differ: {len(chois_a)} vs {len(chois_b)}")
    if not chois_a:
        raise ValueError("empty time grid")
    total = 0.0
    for ca, cb in zip(chois_a, chois_b):
        if ca.d != cb.d:
            raise ValueError("Choi dimensions differ")
        total += trace_norm(ca.matrix - cb.matrix)
    return total / (2.0 * len(chois_a))


# ---------------------------------------------------------------------------
# Process tomography on the same measurement budget.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TomographyDesign:
    """Input states and POVM effects probed per channel, plus the shot
    budget for that channel."""

    input_states: list[CMatrix] = field(repr=False)
    povm: list[CMatrix] = field(repr=False)
    shots: int = 1000

    def __post_init__(self):
        if not self.shots >= 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")


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
    """p[j, k] = tr[channel(rho_j) F_k]; rows sum to one."""
    n_in, n_out = len(design.input_states), len(design.povm)
    p = np.zeros((n_in, n_out))
    for j, rho in enumerate(design.input_states):
        out = unvec(channel_superop @ vec(rho))
        for k, eff in enumerate(design.povm):
            p[j, k] = max(np.einsum("ab,ba->", eff, out).real, 0.0)
        p[j] /= p[j].sum()
    return p


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
                   max_iter: int = 200_000) -> ChoiMatrix | list[ChoiMatrix]:
    """Maximum-likelihood channel estimates under the CPTP constraint.

    Fixed-point iteration on the Choi matrix: Omega <- N[(I x L^-1/2) R
    Omega R (I x L^-1/2)] with R the likelihood-weighted effect sum and L
    the constraint multiplier; the step is diluted toward the identity
    whenever the log-likelihood would decrease.  Starts from the maximally
    mixed Choi and stops when the per-iteration gain drops below ``tol``.

    ``counts`` of shape (inputs, effects) gives one estimate; a stack of
    shape (C, inputs, effects) gives a list of C, fitted in lockstep.  Each
    channel keeps its own iterate, likelihood, step and iteration count:
    an accepted step starts its next iteration, a rejected one halves its
    step, a converged channel drops out.  Every channel's iterates are
    bitwise those of fitting it alone: stacked ``@`` and ``eigh`` compute
    each matrix as the 2-D calls do, the partial trace and I x L^-1/2
    repeat the additions and products of ``ptrace`` and ``np.kron``, and
    the probabilities and R are per-channel ``einsum`` calls.

    Counts must be finite and nonnegative with a positive total per
    channel (``ValueError``).  ``NumericalError`` names the first channel
    whose multiplier turns singular, whose likelihood turns non-finite or
    that has not converged in ``max_iter`` iterations.
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

    def probs(omegas: CMatrix) -> np.ndarray:
        raw = np.empty((len(omegas), len(s_ops)), dtype=np.complex128)
        for i, om in enumerate(omegas):
            np.einsum("nab,ba->n", s_ops, om, out=raw[i])
        return np.clip(d * raw.real, 1e-300, None)

    def loglik(c: int, logp: np.ndarray) -> float:
        value = float(flat[c] @ logp)
        if not math.isfinite(value):
            raise NumericalError(f"tomography log-likelihood of channel {c} is not finite")
        return value

    def weighted_effects(lanes: list[int], p: np.ndarray) -> CMatrix:
        return hermitianize(np.stack([np.einsum("n,nab->ab", flat[c] / pc, s_ops)
                                      for c, pc in zip(lanes, p)]))

    n_ch = len(flat)
    if not n_ch:
        return []
    identity = np.eye(side, dtype=np.complex128)
    eye_d = np.eye(d, dtype=np.complex128)
    omega = np.repeat((identity / side)[None], n_ch, axis=0)
    p = probs(omega)
    logp = np.log(p)
    current = [loglik(c, logp[c]) for c in range(n_ch)]
    r = weighted_effects(list(range(n_ch)), p)
    step = [1.0] * n_ch
    iters = [0] * n_ch
    active = list(range(n_ch))
    while active:
        m = len(active)
        st = np.array([step[c] for c in active])[:, None, None]
        r_mix = st * r[active] / totals[active][:, None, None] + (1.0 - st) * identity
        k = r_mix @ omega[active] @ r_mix
        # Partial trace over the output factor, summed from zero like ptrace.
        lam = 0.0
        for i in range(d):
            lam = lam + k[:, i * d:(i + 1) * d, i * d:(i + 1) * d]
        w, v = np.linalg.eigh(hermitianize(lam))
        singular = w.min(axis=1) <= 1e-15
        if singular.any():
            raise NumericalError("tomography constraint multiplier is singular in "
                                 f"channel {active[int(np.argmax(singular))]}")
        lam_isqrt = (v / np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
        # I x L^-1/2 by the product np.kron forms.
        proj = (eye_d[:, None, :, None] * lam_isqrt[:, None, :, None, :]).reshape(m, side, side)
        cand = hermitianize(proj @ k @ proj / d)
        p = probs(cand)
        logp = np.log(p)
        still, moved = [], []
        for i, c in enumerate(active):
            new = loglik(c, logp[i])
            if new < current[c] - 1e-12 and step[c] >= 1e-6:
                step[c] *= 0.5
                still.append(c)
                continue
            gain = new - current[c]
            omega[c], current[c] = cand[i], new
            if abs(gain) < tol:
                continue
            iters[c] += 1
            if iters[c] == max_iter:
                raise NumericalError(f"tomography MLE of channel {c} did not converge "
                                     f"in {max_iter} iterations")
            step[c] = 1.0
            still.append(c)
            moved.append(i)
        if moved:
            lanes = [active[i] for i in moved]
            r[lanes] = weighted_effects(lanes, p[moved])
        active = still
    out = [ChoiMatrix(matrix=om, d=d) for om in omega]
    return out[0] if arr.ndim == 2 else out


# ---------------------------------------------------------------------------
# Instantaneous coherent control.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlEvent:
    """Instantaneous gate on the system at one time."""

    time: float
    gate: CMatrix = field(repr=False)


def predict_with_control(gen: GeneratorSuperoperator, dims: DimSpec,
                         rho_ser0: CMatrix, events: list[ControlEvent],
                         times: list[float]) -> list[CMatrix]:
    """Embedding prediction with gates applied to the joint state.

    Between breakpoints the state follows exp(dt L) from the last gate; at
    an event time the gate acts as V x I on system x reservoir.  A requested
    time that coincides with an event reports the post-gate state.
    """
    d_s, d_er = dims.d_s, dims.d_er
    ev = sorted(events, key=lambda e: e.time)
    for e in ev:
        g = np.asarray(e.gate, dtype=np.complex128)
        if g.shape != (d_s, d_s) or np.max(np.abs(g @ dagger(g) - np.eye(d_s))) > 1e-10:
            raise ValueError(f"gate at t={e.time} is not a {d_s}x{d_s} unitary")
        if e.time < 0:
            raise ValueError("event times must be nonnegative")
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    order = np.argsort(times)
    flow = gen.flow(vec(np.asarray(rho_ser0, dtype=np.complex128)))
    start = 0.0
    ev_idx = 0
    results: dict[int, CMatrix] = {}
    for pos in order:
        t = float(times[pos])
        while ev_idx < len(ev) and ev[ev_idx].time <= t:
            e = ev[ev_idx]
            g = np.kron(np.asarray(e.gate, dtype=np.complex128),
                        np.eye(d_er, dtype=np.complex128))
            v = flow(e.time - start)
            flow = gen.flow(vec(g @ unvec(v) @ dagger(g)))
            start = e.time
            ev_idx += 1
        rho = hermitianize(unvec(flow(t - start)))
        results[pos] = ptrace(rho, [d_s, d_er], [0])
    return [results[i] for i in range(len(times))]


def concatenation_prediction(times: list[float], superops: list[CMatrix],
                             event: ControlEvent, rho_s0: CMatrix
                             ) -> tuple[list[CMatrix], list[bool]]:
    """Memoryless baseline: stitch exact reduced maps across the gate.

    Before the gate the exact map applies directly; from the gate time on,
    the prediction is map(t) o map(t')^{-1} applied to the gated state.
    Without access to system-reservoir correlations this composition can
    leave the state space; outputs are returned as-is together with a
    per-time positivity-violation flag (min eigenvalue < -1e-8).

    ``event.time`` must be one of ``times``; the inverse map must have
    condition number at most 1e8.
    """
    if len(times) != len(superops):
        raise ValueError("times and superops must pair up")
    matches = [i for i, t in enumerate(times) if abs(t - event.time) < 1e-12]
    if not matches:
        raise ValueError(f"event time {event.time} is not on the time grid")
    m_at = superops[matches[0]]
    cond = np.linalg.cond(m_at)
    if not np.isfinite(cond) or cond > 1e8:
        raise IllConditionedError(float(cond))
    gate = np.asarray(event.gate, dtype=np.complex128)
    gated = gate @ unvec(m_at @ vec(rho_s0)) @ dagger(gate)
    seed_vec = np.linalg.solve(m_at, vec(gated))
    states: list[CMatrix] = []
    flags: list[bool] = []
    for t, m in zip(times, superops):
        if t < event.time:
            rho = unvec(m @ vec(rho_s0))
        else:
            rho = unvec(m @ seed_vec)
        rho = hermitianize(rho)
        states.append(rho)
        flags.append(bool(np.linalg.eigvalsh(rho).min() < -POSITIVITY_TOL))
    return states, flags


def trace_distance_trajectory(states_a: list[CMatrix],
                              states_b: list[CMatrix]) -> np.ndarray:
    """Half trace-norm distance per paired time."""
    if len(states_a) != len(states_b):
        raise ValueError("trajectories differ in length")
    return np.array([0.5 * trace_norm(a - b) for a, b in zip(states_a, states_b)])

