"""Collision-model ground truth and measurement-record generation.

The simulated experiment: a qubit system S is chained to a memory qubit S1,
which in turn collides with a stream of fresh reservoir qubits R.  Between
consecutive projective measurements of S the joint S+S1 pair undergoes a
fixed number of collisions; each measurement projects S in a freshly drawn
random basis and conditions the S1 state on the outcome.  The resulting
record of (basis, outcome) pairs is the only training input the learner
ever sees.  Only :func:`period_channel` reads the collision model: the
sampler, the reference dynamics and the truth's likelihood take the
:class:`PeriodChannel` it returns, or a fitted model's.

Measurement bases are eigenbases of r.sigma for r uniform on the sphere.
The draw order per step is fixed (three normals for the direction, then one
uniform for the outcome), so a seed pins the byte-exact dataset.  The
sampler draws the whole stream first and builds every basis in one batch.
After a record, S is in the measured basis state and only the memory block
sigma is random, so each later record costs one d_mem^2 x d_mem^2 transfer
per outcome (the same product form the likelihood filter uses) instead of a
joint-space step; only the first record is drawn from the joint state.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import jsonio, seeds
from .embedding import (CHUNK, PeriodChannel, _check_state, _kraus_superoperator,
                        _transfer_basis, _transfers, er_marginal, predict_dynamics)
from .errors import DataError, ZeroProbabilityError
from .qla import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CMatrix,
    DimSpec,
    expm_unitary,
    hermitian_deviation,
    hermitianize,
    kron,
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
        if h.shape != (8, 8) or not hermitian_deviation(h) <= 1e-10:
            raise ValueError("hamiltonian must be finite, Hermitian and 8x8 on S x S1 x R")
        object.__setattr__(self, "hamiltonian", h)
        if self.rho_r is None:
            object.__setattr__(self, "rho_r", 0.5 * (np.eye(2, dtype=np.complex128) + SIGMA_Z))
        if self.rho_ss1_0 is None:
            rho0 = np.zeros((4, 4), dtype=np.complex128)
            rho0[0, 0] = 1.0
            object.__setattr__(self, "rho_ss1_0", rho0)
        _check_state(np.asarray(self.rho_r, dtype=np.complex128), 2, "rho_r")
        _check_state(np.asarray(self.rho_ss1_0, dtype=np.complex128), 4, "rho_ss1_0")

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


def make_records(steps, bases, outcomes) -> np.ndarray:
    """The records of a dataset as one (n,) structured array: per
    projective measurement of S the ``step`` index (int64, 1-based), the
    ``basis`` (complex128, (d_s, d_s)) whose columns are the measured basis
    states, and the ``outcome`` column index (int64)."""
    recs = np.empty(len(bases), dtype=[("step", np.int64),
                                       ("basis", np.complex128, np.shape(bases)[1:]),
                                       ("outcome", np.int64)])
    recs["step"], recs["basis"], recs["outcome"] = steps, bases, outcomes
    return recs


@dataclass
class Dataset:
    """A contiguous run of measurement records plus provenance.

    ``records`` is the structured array of :func:`make_records`, and the
    system dimension ``d_s`` is read from its basis field.  ``provenance``
    carries the generating seed and config digest; datasets that should
    continue one another (train then validation) must agree on both.
    """

    records: np.ndarray
    tau: float
    provenance: dict

    @property
    def d_s(self) -> int:
        return self.records.dtype["basis"].shape[0]

    def __len__(self) -> int:
        return len(self.records)


def _record_vectors(data: Dataset) -> np.ndarray:
    """The measured system vector of every record, stacked (n, d_s)."""
    return data.records["basis"][np.arange(len(data)), :, data.records["outcome"]]


def period_superoperator(cfg: CollisionModelConfig) -> CMatrix:
    """Column-stacking 16x16 map of one measurement period on S+S1:
    collisions_per_period collisions, each from the Kraus family
    sqrt(w_k) (I x <j|) U (I x |chi_k>) of rho_r = sum_k w_k |chi_k><chi_k|."""
    u = expm_unitary(cfg.hamiltonian, cfg.delta_t)
    w, chi = np.linalg.eigh(hermitianize(cfg.rho_r))
    kr = np.einsum("xjyk,kl,l->ljxy", u.reshape(4, 2, 4, 2), chi,
                   np.sqrt(np.clip(w, 0.0, None)))
    mc = _kraus_superoperator(kr.reshape(4, 4, 4))
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


def _measure(y: list[complex], u: float, step: int, d_mem: int,
             transposed: list[int]) -> tuple[int, np.ndarray]:
    """Outcome and conditioned memory block from ``y``, the flattened
    unnormalized d_mem x d_mem blocks <b_k| rho |b_k> of outcome 0 then
    outcome 1: the two traces are clipped at 0 and normalized, outcome 0 is
    taken when ``u`` < p0, and the observed block is hermitianized (through
    the row-major order ``transposed`` of its transpose) and divided by its trace."""
    k = d_mem * d_mem
    w = (functools.reduce(complex.__add__, y[:k:d_mem + 1]).real,
         functools.reduce(complex.__add__, y[k::d_mem + 1]).real)
    total = max(w[0], 0.0) + max(w[1], 0.0)
    if total <= 0:
        raise ZeroProbabilityError(step)
    outcome = 0 if u < max(w[0], 0.0) / total else 1
    tr = w[outcome]
    if tr <= 0:
        raise ZeroProbabilityError(step)
    block = y[outcome * k:(outcome + 1) * k]
    return outcome, np.array([0.5 * (a + block[j].conjugate()) / tr
                              for a, j in zip(block, transposed)])


def sample_trajectory(channel: PeriodChannel, n: int, seed: int,
                      config_hash: str | None) -> Dataset:
    """Simulate ``n`` measured periods of any ``channel`` of a qubit system,
    with provenance ``{"seed": seed, "config_hash": config_hash}``.

    Each record projects S onto a basis vector, so after it the joint state
    is |phi><phi| x sigma and the sampler carries only the memory block
    sigma, sized by ``channel.dims``: the outcome weights of record i are the
    traces of T[i, o, k] sigma, one transfer per previous outcome o and
    candidate outcome k, and sigma is conditioned on the observed one.  The
    first record is drawn from the joint state one period after the
    channel's ``rho0``, which need not be a product.  All random draws come
    first, in the fixed per-period order of :func:`_random_bases`; the
    transfers are built in chunks of records, so memory beyond the records
    does not grow with n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d_s, d_mem = channel.dims.d_s, channel.dims.d_er
    if d_s != 2:
        raise ValueError(f"the bases are qubit r.sigma eigenbases; the channel has d_s={d_s}")
    bases, u = _random_bases(seeds.stream(seed, "trajectory"), n)
    transposed = [c * d_mem + r for r in range(d_mem) for c in range(d_mem)]
    rho = hermitianize(unvec(channel.m @ vec(channel.rho0)))
    y = np.einsum("so,setf,to->oef", bases[0].conj(), rho.reshape((d_s, d_mem) * 2), bases[0])
    o, sigma = _measure(y.ravel().tolist(), u[0], 1, d_mem, transposed)
    outcomes = [o]
    basis = _transfer_basis(channel.m, channel.dims)
    for start in range(1, n, CHUNK):
        stop = min(start + CHUNK, n)
        # One pair per (record i, previous outcome o, candidate outcome k):
        # column o of basis i-1, then column k of basis i.
        prev = bases[start - 1:stop - 1].transpose(0, 2, 1)[:, :, None]
        this = bases[start:stop].transpose(0, 2, 1)[:, None]
        before, after = (a.reshape(-1, d_s) for a in np.broadcast_arrays(prev, this))
        t = _transfers(basis, before, after).reshape(stop - start, d_s, -1, d_mem * d_mem)
        for i in range(start, stop):
            o, sigma = _measure((t[i - start, o] @ sigma).tolist(), u[i], i + 1, d_mem, transposed)
            outcomes.append(o)
    return Dataset(records=make_records(np.arange(1, n + 1), bases, outcomes), tau=channel.tau,
                   provenance={"seed": int(seed), "config_hash": config_hash})


def generate_trajectory(cfg: CollisionModelConfig, n: int, seed: int) -> Dataset:
    """``n`` measured periods of the truth's :func:`period_channel`, tagged
    with ``cfg.digest()``."""
    return sample_trajectory(period_channel(cfg), n, seed, cfg.digest())


def split_dataset(ds: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    """Cut one trajectory into a training prefix and validation remainder.

    Both halves keep the original step numbers and provenance, so the
    continuation requirement stays checkable.
    """
    if not 0 < n_train < len(ds):
        raise ValueError(f"n_train must be in (0, {len(ds)}), got {n_train}")
    return (replace(ds, records=ds.records[:n_train], provenance=dict(ds.provenance)),
            replace(ds, records=ds.records[n_train:], provenance=dict(ds.provenance)))


def dataset_prefix(ds: Dataset, n: int) -> Dataset:
    """First ``n`` records as a standalone dataset (shared provenance)."""
    if not 0 < n <= len(ds):
        raise ValueError(f"n must be in (0, {len(ds)}], got {n}")
    return replace(ds, records=ds.records[:n], provenance=dict(ds.provenance))


def _check_continues(ds_train: Dataset, ds_val: Dataset) -> None:
    """Raise :class:`DataError` unless ``ds_val`` continues ``ds_train`` on
    one trajectory: the same provenance, and the first validation step
    right after the last training step."""
    if ds_train.provenance != ds_val.provenance:
        raise DataError("train/validation provenance differs; not the same trajectory")
    if not len(ds_train) or not len(ds_val):
        raise DataError("empty dataset")
    last, first = int(ds_train.records["step"][-1]), int(ds_val.records["step"][0])
    if first != last + 1:
        raise DataError(f"validation must continue training: steps {last} -> {first}")


def validation_continuation(ds_train: Dataset, ds_val: Dataset, n: int) -> Dataset:
    """Held-out records that directly continue the first ``n`` training
    records: the training remainder first, then the validation split,
    capped at ``len(ds_val)`` records.  Lets scaling studies score a
    prefix fit without breaking the single-trajectory conditioning; raises
    :class:`DataError` unless ``ds_val`` continues ``ds_train``.
    """
    if not 0 < n <= len(ds_train):
        raise ValueError(f"n must be in (0, {len(ds_train)}], got {n}")
    _check_continues(ds_train, ds_val)
    recs = np.concatenate((ds_train.records[n:], ds_val.records))[:len(ds_val)]
    return replace(ds_train, records=recs, provenance=dict(ds_train.provenance))


def period_channel(cfg: CollisionModelConfig) -> PeriodChannel:
    """The truth's period channel on S x S1 from ``rho_ss1_0``: the one place
    that sets its dimensions, the memory S1 as a two-level reservoir."""
    return PeriodChannel(period_superoperator(cfg), DimSpec(d_s=2, d_er=2),
                         np.asarray(cfg.rho_ss1_0, dtype=np.complex128), cfg.tau)


def exact_reference_dynamics(truth: PeriodChannel,
                             periods: list[int]) -> tuple[CMatrix, CMatrix]:
    """Unmeasured states and dynamical maps of a truth's period channel at
    period counts, by the model's own propagation code.

    States propagate ``truth.rho0`` directly.  The maps take an S input
    through ``X -> tr_S1[period^k (X x rho_S1(0))]`` with the memory
    marginal of the start state held fixed.  Returns the S states,
    (P, d_s, d_s), and the maps as column-stacking superoperator matrices,
    (P, d_s^2, d_s^2), one per entry of ``periods``.
    """
    # Imported on use: loading assess while datagen loads raises the peak
    # RSS of every command by about 0.1 MB (compiled from source).
    from .assess import reduced_superops
    memory = er_marginal(truth.rho0, truth.dims)  # the memory preparation of the maps
    return (predict_dynamics(truth, truth.rho0, periods),
            reduced_superops(truth, memory, periods))


# ---------------------------------------------------------------------------
# JSONL persistence.
# ---------------------------------------------------------------------------

def save_dataset(ds: Dataset, path) -> None:
    """Write header + one record per line; byte-stable for a fixed dataset.

    A record line is the sorted-key compact JSON of its step, basis pairs
    and outcome, built from one ``%`` template: ``%r`` of a float is the
    shortest repr ``json`` writes, for finite floats only.
    """
    recs = ds.records
    if not np.all(np.isfinite(recs["basis"])):
        raise ValueError("measurement bases must have finite entries")
    header = {
        "tau": ds.tau,
        "d_s": ds.d_s,
        "seed": ds.provenance.get("seed"),
        "config_hash": ds.provenance.get("config_hash"),
    }
    entries = ds.d_s * ds.d_s
    template = '{"basis":[' + ",".join(["[%r,%r]"] * entries) + '],"outcome":%d,"step":%d}'
    # Row-major (re, im) floats of each basis, as matrix_to_pairs orders them.
    floats = np.ascontiguousarray(recs["basis"]).view(np.float64).reshape(len(recs), 2 * entries)
    lines = [jsonio.canonical_dumps(header)]
    lines += [template % (*f, o, k) for f, o, k in zip(floats.tolist(), recs["outcome"].tolist(),
                                                       recs["step"].tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_records(lines: list[str], d_s: int):
    """Steps, stacked bases and outcomes of record lines, each field
    converted in one pass; raises on any line that does not parse."""
    objs = [json.loads(ln) for ln in lines]
    steps = [jsonio.ensure_int(obj["step"], "step") for obj in objs]
    if wide := [k for k in steps if not -2**63 <= k < 2**63]:
        raise ValueError(f"step {wide[0]} is outside the int64 range")
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

    The first bad record line is reported: a line that does not parse (a
    step outside the int64 range among them), a step that breaks
    contiguity, an outcome out of range or a basis that is not unitary,
    whichever comes first in the file.  Lines are split as
    ``str.splitlines`` splits the whole text and parsed ``CHUNK`` at a time
    as they are read, so neither the text nor its parsed lines are held
    whole.
    """
    steps, bases, outcomes = [], [], []
    parse_error = None
    with open(path, encoding="utf-8") as fh:
        lines = (ln for raw in fh for ln in raw.splitlines() if ln.strip())
        first = next(lines, None)
        if first is None:
            raise DataError(f"{path}: empty dataset file")
        try:
            header = json.loads(first)
            tau = jsonio.ensure_number(header["tau"], "tau")
            if not 0 < tau < math.inf:
                raise ValueError(f"tau must be positive and finite, got {tau}")
            d_s = jsonio.ensure_int(header["d_s"], "d_s")
            if d_s < 1:
                raise ValueError(f"d_s must be >= 1, got {d_s}")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad header line: {exc}") from exc
        while block := list(itertools.islice(lines, CHUNK)):
            try:
                parsed = _parse_records(block, d_s)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # Error path only: the records before the first unparsable
                # line still get their checks, so the first bad line is the
                # one reported.
                i, parse_error = _first_unparsable(block, d_s)
                parsed = _parse_records(block[:i], d_s)
            steps += parsed[0]
            bases.append(parsed[1])
            outcomes += parsed[2]
            if parse_error is not None:
                break
    if not bases:
        raise DataError(f"{path}: no records")
    bases = np.concatenate(bases)
    bad = _first_bad_record(steps, bases, outcomes, d_s)
    if bad is not None:
        raise DataError(f"{path}: {bad}")
    if parse_error is not None:
        raise DataError(f"{path}: bad record line: {parse_error}") from parse_error
    return Dataset(records=make_records(steps, bases, outcomes), tau=tau,
                   provenance={"seed": header.get("seed"),
                               "config_hash": header.get("config_hash")})
