"""Collision-model ground truth and measurement-record generation.

The simulated experiment: a qubit system S is chained to a memory qubit S1,
which in turn collides with a stream of fresh reservoir qubits R.  Between
consecutive projective measurements of S the joint S+S1 pair undergoes a
fixed number of collisions; each measurement projects S in a freshly drawn
random basis and conditions the S1 state on the outcome.  The resulting
record of (basis, outcome) pairs is the only training input the learner
ever sees.

Measurement bases are eigenbases of r.sigma for r uniform on the sphere.
The draw order per step is fixed (three normals for the direction, then one
uniform for the outcome), so a seed pins the byte-exact dataset.  The
sampler draws the whole stream first and builds every basis in one batch.
After a record, S is in the measured basis state and only the memory block
sigma is random, so each later record costs one 4x4 transfer per outcome
(the same product form the likelihood filter uses) instead of a joint-space
step; only the first record is drawn from the joint state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio, seeds
from .embedding import CHUNK, _check_finite, _kraus_superoperator, _transfer_basis, _transfers
from .errors import DataError, ZeroProbabilityError
from .qla import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CMatrix,
    dagger,
    expm_unitary,
    hermitianize,
    kron,
    ptrace,
    unvec,
    vec,
)


def default_collision_hamiltonian() -> CMatrix:
    """Interaction on S x S1 x R used throughout: local fields on S and S1,
    a z-z system-memory coupling, and an isotropic 0.3-strength memory-
    reservoir exchange."""
    i2 = np.eye(2, dtype=np.complex128)
    h = (
        kron(SIGMA_Z, i2, i2)
        + kron(SIGMA_X, i2, i2)
        + kron(i2, SIGMA_Z, i2)
        + kron(i2, SIGMA_X, i2)
        + kron(SIGMA_Z, SIGMA_Z, i2)
        + 0.3 * kron(i2, SIGMA_Z, SIGMA_Z)
        + 0.3 * kron(i2, SIGMA_Y, SIGMA_Y)
        + 0.3 * kron(i2, SIGMA_X, SIGMA_X)
    )
    return h


@dataclass(frozen=True)
class CollisionModelConfig:
    """Ground-truth simulation parameters.

    Defaults: measurement period ``tau = 1``, five collisions per period of
    duration ``0.2 tau`` each, reservoir qubits in |0><0|, S+S1 starting in
    |00><00|.  ``delta_t=None`` resolves to ``0.2 * tau``.
    """

    tau: float = 1.0
    delta_t: float | None = None
    collisions_per_period: int = 5
    hamiltonian: CMatrix | None = field(default=None, repr=False)
    rho_r: CMatrix | None = field(default=None, repr=False)
    rho_ss1_0: CMatrix | None = field(default=None, repr=False)

    def __post_init__(self):
        # Written as "not within range" so that NaN fails too.
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.delta_t is None:
            object.__setattr__(self, "delta_t", 0.2 * self.tau)
        if not 0 < self.delta_t < math.inf:
            raise ValueError(f"delta_t must be positive and finite, got {self.delta_t}")
        if self.collisions_per_period < 1:
            raise ValueError("collisions_per_period must be >= 1")
        if self.hamiltonian is None:
            object.__setattr__(self, "hamiltonian", default_collision_hamiltonian())
        h = np.asarray(self.hamiltonian, dtype=np.complex128)
        if h.shape != (8, 8) or not np.max(np.abs(h - dagger(h))) <= 1e-10:
            raise ValueError("hamiltonian must be finite, Hermitian and 8x8 on S x S1 x R")
        object.__setattr__(self, "hamiltonian", h)
        if self.rho_r is None:
            object.__setattr__(self, "rho_r", 0.5 * (np.eye(2, dtype=np.complex128) + SIGMA_Z))
        if self.rho_ss1_0 is None:
            rho0 = np.zeros((4, 4), dtype=np.complex128)
            rho0[0, 0] = 1.0
            object.__setattr__(self, "rho_ss1_0", rho0)
        _check_density(np.asarray(self.rho_r, dtype=np.complex128), 2, "rho_r")
        _check_density(np.asarray(self.rho_ss1_0, dtype=np.complex128), 4, "rho_ss1_0")

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "delta_t": self.delta_t,
            "collisions_per_period": self.collisions_per_period,
            "hamiltonian": jsonio.matrix_to_pairs(self.hamiltonian),
            "rho_r": jsonio.matrix_to_pairs(self.rho_r),
            "rho_ss1_0": jsonio.matrix_to_pairs(self.rho_ss1_0),
        }

    def digest(self) -> str:
        return jsonio.config_hash(self.to_dict())


def _check_density(rho: CMatrix, side: int, name: str) -> None:
    if rho.shape != (side, side):
        raise ValueError(f"{name} must be {side}x{side}, got {rho.shape}")
    _check_finite(rho, name)
    if np.max(np.abs(rho - dagger(rho))) > 1e-10:
        raise ValueError(f"{name} is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise ValueError(f"{name} has trace {np.trace(rho)}")
    if np.linalg.eigvalsh(hermitianize(rho)).min() < -1e-10:
        raise ValueError(f"{name} is not positive semidefinite")


@dataclass(frozen=True)
class MeasurementRecord:
    """One projective measurement of S: step index (1-based), the 2x2
    unitary whose columns are the measured basis states, and the outcome
    column index."""

    step: int
    basis: CMatrix = field(repr=False)
    outcome: int


@dataclass
class Dataset:
    """A contiguous run of measurement records plus provenance.

    ``provenance`` carries the generating seed and config digest; datasets
    that should continue one another (train then validation) must agree on
    both.
    """

    records: list[MeasurementRecord]
    tau: float
    d_s: int
    provenance: dict

    def __len__(self) -> int:
        return len(self.records)


def _collision_superoperator(cfg: CollisionModelConfig) -> CMatrix:
    """Column-stacking 16x16 matrix of one collision on S+S1, from the Kraus
    family sqrt(w_k) (I x <j|) U (I x |chi_k>) of rho_r = sum_k w_k |chi_k><chi_k|."""
    u = expm_unitary(cfg.hamiltonian, cfg.delta_t)
    w, chi = np.linalg.eigh(hermitianize(cfg.rho_r))
    kr = np.einsum("xjyk,kl,l->ljxy", u.reshape(4, 2, 4, 2), chi,
                   np.sqrt(np.clip(w, 0.0, None)))
    return _kraus_superoperator(kr.reshape(4, 4, 4))


def period_superoperator(cfg: CollisionModelConfig) -> CMatrix:
    """Map for one full measurement period: collisions_per_period collisions."""
    mc = _collision_superoperator(cfg)
    return np.linalg.matrix_power(mc, cfg.collisions_per_period)


def _random_bases(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Measurement bases (n, 2, 2) and outcome uniforms (n,) of ``n`` periods.

    The stream is read in its fixed per-period order, three normals for the
    direction r then one uniform; ziggurat normals take a variable number of
    words, so only this loop is sequential.  Each basis is the eigenbasis of
    r.sigma, with r normalized by its own vector norm (a row-wise norm of the
    stack rounds differently).
    """
    g = np.empty((n, 3))
    u = np.empty(n)
    for i in range(n):
        g[i] = rng.standard_normal(3)
        u[i] = rng.random()
    r = g / np.array([np.linalg.norm(x) for x in g])[:, None]
    r = r[:, :, None, None]
    _, bases = np.linalg.eigh(r[:, 0] * SIGMA_X + r[:, 1] * SIGMA_Y + r[:, 2] * SIGMA_Z)
    return bases, u


def _measure(y: list[complex], u: float, step: int) -> tuple[int, np.ndarray]:
    """Outcome and conditioned S1 block from ``y``, the flattened
    unnormalized blocks <b_k| rho |b_k> of outcome 0 then outcome 1: the two
    traces are clipped at 0 and normalized, outcome 0 is taken when ``u`` <
    p0, and the observed block is hermitianized and divided by its trace."""
    w = ((y[0] + y[3]).real, (y[4] + y[7]).real)
    total = max(w[0], 0.0) + max(w[1], 0.0)
    if total <= 0:
        raise ZeroProbabilityError(step)
    outcome = 0 if u < max(w[0], 0.0) / total else 1
    tr = w[outcome]
    if tr <= 0:
        raise ZeroProbabilityError(step)
    a, b, c, d = y[4 * outcome:4 * outcome + 4]  # hermitianize([[a, b], [c, d]]) / tr
    return outcome, np.array([0.5 * (a + a.conjugate()) / tr, 0.5 * (b + c.conjugate()) / tr,
                              0.5 * (c + b.conjugate()) / tr, 0.5 * (d + d.conjugate()) / tr])


def generate_trajectory(cfg: CollisionModelConfig, n: int, seed: int) -> Dataset:
    """Simulate ``n`` measured periods of the collision model.

    Each record projects S onto a basis vector, so after it the S+S1 state
    is |phi><phi| x sigma and the sampler carries only the memory block
    sigma: the outcome weights of record i are the traces of
    T[i, o, k] sigma, one transfer per previous outcome o and candidate
    outcome k, and sigma is conditioned on the observed one.  The first
    record is drawn from the joint state one period after ``rho_ss1_0``,
    which need not be a product.  All random draws come first, in the fixed
    per-period order of :func:`_random_bases`; the transfers are built in
    chunks of records, so memory beyond the records does not grow with n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bases, u = _random_bases(seeds.stream(seed, "trajectory"), n)
    mp = period_superoperator(cfg)
    rho = hermitianize(unvec(mp @ vec(np.asarray(cfg.rho_ss1_0, dtype=np.complex128))))
    y = np.einsum("so,setf,to->oef", bases[0].conj(), rho.reshape(2, 2, 2, 2), bases[0])
    o, sigma = _measure(y.ravel().tolist(), u[0], 1)
    outcomes = [o]
    basis = _transfer_basis(mp, 2)
    for start in range(1, n, CHUNK):
        stop = min(start + CHUNK, n)
        # One pair per (record i, previous outcome o, candidate outcome k):
        # column o of basis i-1, then column k of basis i.
        prev = bases[start - 1:stop - 1].transpose(0, 2, 1)[:, :, None]
        this = bases[start:stop].transpose(0, 2, 1)[:, None]
        before, after = (a.reshape(-1, 2) for a in np.broadcast_arrays(prev, this))
        t = _transfers(basis, before, after).reshape(stop - start, 2, 8, 4)
        for i in range(start, stop):
            o, sigma = _measure((t[i - start, o] @ sigma).tolist(), u[i], i + 1)
            outcomes.append(o)
    records = [MeasurementRecord(step=i, basis=b, outcome=o)
               for i, (b, o) in enumerate(zip(bases, outcomes), start=1)]
    return Dataset(records=records, tau=cfg.tau, d_s=2,
                   provenance={"seed": int(seed), "config_hash": cfg.digest()})


def split_dataset(ds: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    """Cut one trajectory into a training prefix and validation remainder.

    Both halves keep the original step numbers and provenance, so the
    continuation requirement stays checkable.
    """
    if not 0 < n_train < len(ds):
        raise ValueError(f"n_train must be in (0, {len(ds)}), got {n_train}")
    head = Dataset(records=ds.records[:n_train], tau=ds.tau, d_s=ds.d_s,
                   provenance=dict(ds.provenance))
    tail = Dataset(records=ds.records[n_train:], tau=ds.tau, d_s=ds.d_s,
                   provenance=dict(ds.provenance))
    return head, tail


def dataset_prefix(ds: Dataset, n: int) -> Dataset:
    """First ``n`` records as a standalone dataset (shared provenance)."""
    if not 0 < n <= len(ds):
        raise ValueError(f"n must be in (0, {len(ds)}], got {n}")
    return Dataset(records=ds.records[:n], tau=ds.tau, d_s=ds.d_s,
                   provenance=dict(ds.provenance))


def validation_continuation(ds_train: Dataset, ds_val: Dataset, n: int) -> Dataset:
    """Held-out records that directly continue the first ``n`` training
    records: the training remainder first, then the validation split,
    capped at ``len(ds_val)`` records.  Lets scaling studies score a
    prefix fit without breaking the single-trajectory conditioning.
    """
    if not 0 < n <= len(ds_train):
        raise ValueError(f"n must be in (0, {len(ds_train)}], got {n}")
    total = list(ds_train.records) + list(ds_val.records)
    recs = total[n:min(n + len(ds_val), len(total))]
    return Dataset(records=recs, tau=ds_train.tau, d_s=ds_train.d_s,
                   provenance=dict(ds_train.provenance))


def exact_reference_dynamics(cfg: CollisionModelConfig,
                             periods: list[int]) -> tuple[list[CMatrix], list[CMatrix]]:
    """Unmeasured ground-truth states and dynamical maps at period counts.

    States propagate ``cfg.rho_ss1_0`` directly.  The maps take an S input
    through ``X -> tr_S1[period^k (X x rho_S1(0))]`` with the S1 marginal of
    the initial state held fixed; they are returned as 4x4 column-stacking
    superoperator matrices, one per entry of ``periods``.
    """
    if any(k < 0 for k in periods):
        raise ValueError("period counts must be nonnegative")
    mp = period_superoperator(cfg)
    rho_s1_0 = ptrace(np.asarray(cfg.rho_ss1_0, dtype=np.complex128), [2, 2], [1])

    # Propagate the state and a full operator basis of S inputs in lockstep.
    units = []
    for b in range(2):
        for a in range(2):
            e = np.zeros((2, 2), dtype=np.complex128)
            e[a, b] = 1.0
            units.append(vec(np.kron(e, rho_s1_0)))
    basis_vecs = np.stack(units, axis=1)  # 16 x 4, column b*2+a
    state_vec = vec(np.asarray(cfg.rho_ss1_0, dtype=np.complex128))

    states: list[CMatrix] = []
    channels: list[CMatrix] = []
    top = max(periods) if periods else 0
    cache_states: dict[int, CMatrix] = {}
    cache_maps: dict[int, CMatrix] = {}
    cur_state = state_vec.copy()
    cur_basis = basis_vecs.copy()
    cache_states[0] = cur_state.copy()
    cache_maps[0] = cur_basis.copy()
    for k in range(1, top + 1):
        cur_state = mp @ cur_state
        cur_basis = mp @ cur_basis
        cache_states[k] = cur_state.copy()
        cache_maps[k] = cur_basis.copy()
    for k in periods:
        states.append(hermitianize(ptrace(unvec(cache_states[k]), [2, 2], [0])))
        cols = cache_maps[k]
        m = np.zeros((4, 4), dtype=np.complex128)
        for c in range(4):
            m[:, c] = vec(ptrace(unvec(cols[:, c]), [2, 2], [0]))
        channels.append(m)
    return states, channels


def exact_controlled_dynamics(cfg: CollisionModelConfig, gate: CMatrix,
                              event_period: int, periods: list[int]) -> list[CMatrix]:
    """Ground-truth S states with an instantaneous gate on S at one period.

    The gate (a 2x2 unitary) hits the joint state right at the boundary of
    ``event_period``; requested times at that period already see the
    post-gate state.
    """
    if event_period < 0:
        raise ValueError("event_period must be nonnegative")
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (2, 2) or np.max(np.abs(gate @ dagger(gate) - np.eye(2))) > 1e-10:
        raise ValueError("gate must be a 2x2 unitary")
    mp = period_superoperator(cfg)
    out: dict[int, CMatrix] = {}
    v = vec(np.asarray(cfg.rho_ss1_0, dtype=np.complex128))
    top = max(periods) if periods else 0
    for k in range(0, max(top, event_period) + 1):
        if k > 0:
            v = mp @ v
        if k == event_period:
            rho = unvec(v)
            g2 = np.kron(gate, np.eye(2, dtype=np.complex128))
            v = vec(g2 @ rho @ dagger(g2))
        if k in periods:
            out[k] = hermitianize(ptrace(unvec(v), [2, 2], [0]))
    return [out[k] for k in periods]


# ---------------------------------------------------------------------------
# Overfit oracle: n-partite environment built from the observed projectors.
# ---------------------------------------------------------------------------

def overfit_oracle(records: Dataset, rho_s0: CMatrix) -> tuple[float, float]:
    """Score the deliberately overfitted n-step environment model.

    The environment is one qubit per training record, prepared in the
    observed projectors; each period swaps the system with the first
    environment factor and cyclically shifts the rest.  On the training
    half every outcome then has probability exactly 1 (the system state
    *is* the recorded projector, analytically), so the training
    log-likelihood is exactly 0.0.  The validation half reduces to a
    product of two-projector overlaps.

    Returns (training log-likelihood, validation per-step log-likelihood).
    """
    recs = records.records
    if len(recs) % 2 != 0 or not recs:
        raise DataError(f"need an even record count to split in half, got {len(recs)}")
    n = len(recs) // 2
    projs = []
    for rec in recs:
        phi = rec.basis[:, rec.outcome]
        projs.append(np.outer(phi, phi.conj()))

    # Product-state bookkeeping: a factor is either ("rec", i), meaning the
    # projector of record i, or ("mat", rho).  SWAP then SHIFT amounts to:
    # the first environment factor becomes the system, the collapsed system
    # is appended at the back.
    system: tuple = ("mat", np.asarray(rho_s0, dtype=np.complex128))
    env: list[tuple] = [("rec", i) for i in range(n)]
    train_ll = 0.0
    val_sum = 0.0
    for i, rec in enumerate(recs):
        new_system = env.pop(0)
        env.append(system)
        if new_system[0] == "rec" and new_system[1] == i:
            p = 1.0  # same projector on both sides, exact by construction
        else:
            phi = rec.basis[:, rec.outcome]
            if new_system[0] == "rec":
                rho = projs[new_system[1]]
            else:
                rho = new_system[1]
            p = float(np.real(phi.conj() @ rho @ phi))
            if p <= 0.0:
                raise ZeroProbabilityError(rec.step)
        if i < n:
            train_ll += 0.0 if p == 1.0 else np.log(p)
        else:
            val_sum += np.log(p)
        system = ("rec", i)
    return train_ll, val_sum / n


# ---------------------------------------------------------------------------
# JSONL persistence.
# ---------------------------------------------------------------------------

def save_dataset(ds: Dataset, path) -> None:
    """Write header + one record per line; byte-stable for a fixed dataset."""
    header = {
        "tau": ds.tau,
        "d_s": ds.d_s,
        "seed": ds.provenance.get("seed"),
        "config_hash": ds.provenance.get("config_hash"),
    }
    bases = jsonio.matrices_to_pairs(np.array([rec.basis for rec in ds.records])) \
        if ds.records else []
    lines = [jsonio.canonical_dumps(header)]
    lines += [jsonio.canonical_dumps({"step": rec.step, "basis": pairs, "outcome": rec.outcome})
              for rec, pairs in zip(ds.records, bases)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_records(lines: list[str], d_s: int):
    """Steps, stacked bases and outcomes of record lines, each field
    converted in one pass; raises on any line that does not parse."""
    objs = [json.loads(ln) for ln in lines]
    steps = [jsonio.ensure_int(obj["step"], "step") for obj in objs]
    bases = jsonio.pairs_to_matrices([obj["basis"] for obj in objs], d_s, d_s)
    outcomes = [jsonio.ensure_int(obj["outcome"], "outcome") for obj in objs]
    return steps, bases, outcomes


def _first_unparsable(lines: list[str], d_s: int) -> tuple[int, Exception]:
    """Index and error of the first line that does not parse on its own."""
    for i, ln in enumerate(lines):
        try:
            _parse_records([ln], d_s)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            return i, exc
    raise AssertionError("every line parses")


def _first_bad_record(steps: list[int], bases: np.ndarray, outcomes: list[int],
                      d_s: int) -> str | None:
    """Message of the first record that fails a check; at one record,
    contiguity is checked before the outcome range and unitarity."""
    found = []  # (record index, check order, message)
    # Exact on Python ints, whatever their size.
    if steps and steps != list(range(steps[0], steps[0] + len(steps))):
        i = next(i for i, k in enumerate(steps) if k != steps[0] + i)
        found.append((i, 0, f"steps must be contiguous, {steps[i - 1]} -> {steps[i]}"))
    out = np.array(outcomes)
    bad = np.flatnonzero((out < 0) | (out >= d_s))
    if bad.size:
        i = int(bad[0])
        found.append((i, 1, f"outcome {outcomes[i]} out of range at step {steps[i]}"))
    gram = np.einsum("nki,nkj->nij", bases.conj(), bases)
    # Written as "not within tolerance" so that NaN entries fail too.
    bad = np.flatnonzero(~(np.abs(gram - np.eye(d_s)).max(axis=(1, 2)) <= 1e-8))
    if bad.size:
        i = int(bad[0])
        found.append((i, 2, f"basis at step {steps[i]} is not unitary"))
    return min(found)[2] if found else None


def load_dataset(path) -> Dataset:
    """Read a JSONL dataset; structure and basis unitarity are re-checked.

    The first bad record line is reported: a line that does not parse, a
    step that breaks contiguity, an outcome out of range or a basis that is
    not unitary, whichever comes first in the file.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    try:
        header = json.loads(lines[0])
        tau = float(header["tau"])
        if not 0 < tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {tau}")
        d_s = jsonio.ensure_int(header["d_s"], "d_s")
        if d_s < 1:
            raise ValueError(f"d_s must be >= 1, got {d_s}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad header line: {exc}") from exc
    lines = lines[1:]
    if not lines:
        raise DataError(f"{path}: no records")
    try:
        steps, bases, outcomes = _parse_records(lines, d_s)
        parse_error = None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        # Error path only: the records before the first unparsable line
        # still get their checks, so the first bad line is the one reported.
        i, parse_error = _first_unparsable(lines, d_s)
        steps, bases, outcomes = _parse_records(lines[:i], d_s)
    bad = _first_bad_record(steps, bases, outcomes, d_s)
    if bad is not None:
        raise DataError(f"{path}: {bad}")
    if parse_error is not None:
        raise DataError(f"{path}: bad record line: {parse_error}") from parse_error
    records = [MeasurementRecord(step=k, basis=b, outcome=o)
               for k, b, o in zip(steps, bases, outcomes)]
    return Dataset(records=records, tau=tau, d_s=d_s,
                   provenance={"seed": header.get("seed"),
                               "config_hash": header.get("config_hash")})
