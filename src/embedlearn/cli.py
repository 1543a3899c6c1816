"""Command-line entry point.

One executable, seven subcommands covering the whole workflow: simulate a
measurement record, fit embeddings across reservoir dimensions, score saved
models, predict reduced dynamics, attach variational error bars, run the
process-tomography baseline on the same measurement budget, and compare
predictions under an instantaneous control gate.

All run parameters live in one JSON file.  Every invocation writes the fully
resolved configuration next to its outputs and checks all of its sections
before the command does any other work.  Exit codes: 0 success, 2
configuration problem, 3 data problem, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import jsonio, seeds
from .assess import (ControlEvent, choi_from_superop, concatenation_prediction,
                     default_design, dynamics_maps, predict_with_control,
                     simulate_tomography_counts, tomography_mle,
                     trace_distance_trajectory)
from .bayes import (BayesConfig, bayes_channel_error, fit_posterior,
                    sample_dynamics, save_posterior)
from .datagen import (CollisionModelConfig, _check_continues, dataset_prefix,
                      exact_reference_dynamics, generate_trajectory, load_dataset,
                      period_channel, save_dataset, split_dataset, validation_continuation)
from .embedding import (MAX_D_ER, MAX_PERIODS, PeriodChannel, equilibrium_er_state,
                        extract_generator, load_model, predict_dynamics, save_model)
from .errors import ConfigError, DataError, NumericalError, TomographyError
from .likelihood import conditional_validation_ll, forward_pass
from .qla import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_vector, kron, ptrace, trace_norm
from .train import TrainConfig, fit, select_d_er

_GATES = {
    "x": SIGMA_X,
    "y": SIGMA_Y,
    "z": SIGMA_Z,
    "h": np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0),
}

# ---------------------------------------------------------------------------
# The run configuration: one frozen dataclass per section, whose fields are
# the section's keys; build_config converts each by its declared type, and
# __post_init__ refuses bad values.  No code compares configs, so the classes
# go without __eq__ and __hash__, half of what they cost every command start.
# ---------------------------------------------------------------------------

_section = dataclass(frozen=True, eq=False)


def _flat(cls, *unset: str):
    """A section field holding ``cls``, built from the section's own keys;
    the fields named in ``unset`` are set by the command, not the config."""
    return field(default_factory=cls, metadata={"unset": unset})


def _check_range(lo, hi=math.inf, **values) -> None:
    """Refuse a value, or a list entry, outside [lo, hi]; None passes."""
    for key, value in values.items():
        for x in value if isinstance(value, tuple) else (value,):
            if x is not None and not lo <= x <= hi:
                upper = f" and <= {hi}" if hi < math.inf else ""
                raise ValueError(f"{key} must be >= {lo}{upper}, got {x}")


@_section
class DataSection:
    collision: CollisionModelConfig = _flat(CollisionModelConfig, "rho_r", "rho_ss1_0")
    n_train: int = 20000
    n_val: int = 4000

    def __post_init__(self):
        _check_range(1, n_train=self.n_train, n_val=self.n_val)


@_section
class TrainSection:
    candidates: tuple[int, ...] = (1, 2)
    n_records: int | None = None
    fit: TrainConfig = _flat(TrainConfig, "seed")

    def __post_init__(self):
        _check_range(1, MAX_D_ER, candidates=self.candidates)


@_section
class PredictSection:
    d_er: int | None = None
    times: tuple[float, ...] = tuple(map(float, range(21)))
    n_values: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_range(1, MAX_D_ER, d_er=self.d_er)
        _check_range(0, times=self.times)


@_section
class BayesSection:
    d_er: int | None = None
    fit: BayesConfig = _flat(BayesConfig, "seed")
    n_draws: int = 50
    n_records: int | None = None
    times: tuple[float, ...] = tuple(map(float, range(21)))

    def __post_init__(self):
        _check_range(1, MAX_D_ER, d_er=self.d_er)
        _check_range(2, n_draws=self.n_draws)
        _check_range(0, times=self.times)


@_section
class TomoSection:
    times: tuple[int, ...] = tuple(range(1, 21))
    shots_per_channel: int | None = None
    k_values: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_range(1, MAX_PERIODS, times=self.times, k_values=self.k_values)
        _check_range(1, shots_per_channel=self.shots_per_channel)
        repeated = next((k for i, k in enumerate(self.times) if k in self.times[:i]), None)
        if repeated is not None:
            raise ValueError(f"tomo times must be distinct periods; {repeated} is "
                             f"repeated in {list(self.times)}")


@_section
class CompareSection:
    d_er: int | None = None
    gate: str = "x"
    gate_period: int = 20
    times: tuple[int, ...] = tuple(range(41))

    def __post_init__(self):
        if self.gate.lower() not in _GATES:
            raise ValueError(f"unknown gate '{self.gate}'; choose from {sorted(_GATES)}")
        _check_range(0, MAX_PERIODS, gate_period=self.gate_period, times=self.times)
        if self.gate_period not in self.times:
            raise ValueError("gate_period must be on the time grid")
        _check_range(1, MAX_D_ER, d_er=self.d_er)


@_section
class RunConfig:
    seed: int = 0
    data: DataSection = field(default_factory=DataSection)
    train: TrainSection = field(default_factory=TrainSection)
    predict: PredictSection = field(default_factory=PredictSection)
    bayes: BayesSection = field(default_factory=BayesSection)
    tomo: TomoSection = field(default_factory=TomoSection)
    compare: CompareSection = field(default_factory=CompareSection)

    def __post_init__(self):
        # seeds.stream takes 32-bit seeds; a wider one would repeat another.
        _check_range(0, 2**32 - 1, seed=self.seed)
        last = max(_integer_periods(self.predict.times, self.data.collision.tau).values(),
                   default=0)
        if last > MAX_PERIODS:
            raise ValueError(f"predict times on the period grid must be <= {MAX_PERIODS} "
                             f"periods, got {last}")
        if self.predict.n_values is not None and last < 1:
            raise ValueError("n_values scan needs at least one positive "
                             "integer-period prediction time")


def _convert(kind: str, x, key: str):
    """The JSON value ``x`` of ``key`` as the declared field type ``kind``;
    a value of another JSON type is a ``ValueError``, not converted."""
    kind, _, null = kind.partition(" | ")
    if x is None and null:
        return None
    if kind.startswith("tuple["):  # "tuple[T, ...]": a nonempty list of T
        if not isinstance(x, list) or not x:
            raise ValueError(f"'{key}' must be a nonempty list")
        return tuple(_convert(kind[6:-6], v, key) for v in x)
    if kind == "CMatrix":  # the one matrix of a config: the 8x8 collision H
        try:
            return jsonio.pairs_to_matrices([x], 8, 8)[0]
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad '{key}': {exc}") from exc
    if kind == "int":
        return jsonio.ensure_int(x, f"'{key}'")
    if kind == "str" and not isinstance(x, str):
        raise ValueError(f"'{key}' must be a string, got {x!r}")
    # Compared, not converted: an integer beyond the float range is refused
    # here instead of overflowing in float().
    if kind == "float" and (isinstance(x, bool) or not isinstance(x, (int, float))
                            or not abs(x) <= sys.float_info.max):
        raise ValueError(f"'{key}' takes finite numbers, got {x!r}")
    return float(x) if kind == "float" else x


def build_config(cls, raw: dict, unset: tuple[str, ...] = (), where: str = ""):
    """``cls`` built from the merged config dict ``raw``, each field
    converted by its declared type in field order.  A :func:`_flat` field
    reads the same keys; any other dataclass field reads its own section,
    whose name prefixes its errors.  The first bad value is a
    :class:`ConfigError`."""
    values = {}
    try:
        for f in fields(cls):
            if "unset" in f.metadata:
                values[f.name] = build_config(f.default_factory, raw, f.metadata["unset"], where)
            elif f.default_factory is not MISSING:
                values[f.name] = build_config(f.default_factory, raw[f.name],
                                              where=f"section '{f.name}': ")
            elif f.name not in unset:
                values[f.name] = _convert(f.type, raw[f.name], f.name)
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _defaults(cls, unset: tuple[str, ...] = ()) -> dict:
    """The keys :func:`build_config` reads for ``cls``, at their defaults."""
    out = {}
    for f in fields(cls):
        if "unset" in f.metadata:
            out.update(_defaults(f.default_factory, f.metadata["unset"]))
        elif f.default_factory is not MISSING:
            out[f.name] = _defaults(f.default_factory)
        elif f.name not in unset:
            out[f.name] = list(f.default) if isinstance(f.default, tuple) else f.default
    return out


def load_run_config(path: str | None, seed_override: int | None) -> dict:
    """Resolve the run configuration: file contents over defaults, the
    --seed flag over both.  Unknown keys anywhere are rejected; the values
    are checked by :func:`build_config`."""
    resolved = _defaults(RunConfig)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - set(resolved)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, section in raw.items():
            if name == "seed":
                resolved[name] = section
                continue
            if not isinstance(section, dict):
                raise ConfigError(f"section '{name}' must be a JSON object")
            unknown = set(section) - set(resolved[name])
            if unknown:
                raise ConfigError(f"unknown keys in section '{name}': {sorted(unknown)}")
            resolved[name].update(section)
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    return resolved


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _fmt(x) -> str:
    return repr(float(x))


def _require_qubit(d_s: int, path: Path) -> None:
    if d_s != 2:  # the truth, the measurement bases and the gates are qubit ones
        raise DataError(f"{path}: d_s={d_s}; commands take qubit (d_s=2) records and models only")


def _load_data(path: Path):
    if not path.exists():
        raise DataError(f"missing dataset file {path}; run 'generate' first")
    ds = load_dataset(path)
    _require_qubit(ds.d_s, path)
    return ds


def _model_path(out: Path, d_er: int) -> Path:
    return out / f"model_der{d_er}.json"


def _selected_d_er(out: Path) -> int:
    sel = out / "selection.csv"
    if not sel.exists():
        raise ConfigError("no reservoir dimension given and no selection.csv; "
                          "run 'train' first or set d_er in the config")
    winner = None
    with open(sel, encoding="utf-8") as fh:
        next(fh, None)
        for ln in fh:
            parts = ln.strip().split(",")
            if len(parts) == 3 and parts[2] == "1":
                try:
                    winner = int(parts[0])
                except ValueError as exc:
                    raise DataError(f"{sel}: bad selected row {ln.strip()!r}") from exc
    if winner is None:
        raise DataError(f"{sel} has no selected row")
    if not 1 <= winner <= MAX_D_ER:
        raise DataError(f"{sel}: selected d_er must be in 1..{MAX_D_ER}, got {winner}")
    return winner


def _load_model(path: Path):
    """A saved qubit model; a malformed or invalid file is a data problem."""
    try:
        model = load_model(path)
    except KeyError as exc:
        raise DataError(f"bad model file {path}: missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise DataError(f"bad model file {path}: {exc}") from exc
    _require_qubit(model.dims.d_s, path)
    return model


def _load_model_for(out: Path, d_er: int | None, tau: float | None = None):
    """The saved model of ``d_er``, or of the one 'train' selected if None;
    given the configured period ``tau``, a model of another period is
    refused, as the likelihood refuses records of another period."""
    p = _model_path(out, _selected_d_er(out) if d_er is None else d_er)
    if not p.exists():
        raise DataError(f"missing model file {p}; run 'train' first")
    model = _load_model(p)
    if tau is not None and not abs(model.tau - tau) <= 1e-12:
        raise DataError(f"{p}: model tau={model.tau} does not match data tau={tau}")
    return model


def _integer_periods(times, tau: float) -> dict[int, int]:
    """Map from position in ``times`` to period count, for times that sit
    on the period grid within 1e-9."""
    ks = [round(t / tau) for t in times]
    return {i: k for i, (t, k) in enumerate(zip(times, ks)) if k >= 0 and abs(t - k * tau) < 1e-9}


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_generate(cfg: RunConfig, out: Path, quiet: bool) -> None:
    n_train = cfg.data.n_train
    ds = generate_trajectory(cfg.data.collision, n_train + cfg.data.n_val, cfg.seed)
    ds_train, ds_val = split_dataset(ds, n_train)
    save_dataset(ds_train, out / "train.jsonl")
    save_dataset(ds_val, out / "val.jsonl")
    freq0 = np.count_nonzero(ds_train.records["outcome"] == 0) / n_train
    _say(quiet, f"wrote {n_train} training and {cfg.data.n_val} validation records to {out}")
    _say(quiet, f"training outcome frequencies: 0 -> {freq0:.4f}, 1 -> {1.0 - freq0:.4f}")


def cmd_train(cfg: RunConfig, out: Path, quiet: bool) -> None:
    ds_train = _load_data(out / "train.jsonl")
    ds_val = _load_data(out / "val.jsonl")
    t = cfg.train
    # Refuse a foreign validation file before any fit; with n_records,
    # validation_continuation checks the range of n_records first, then that.
    if t.n_records is None:
        _check_continues(ds_train, ds_val)
    else:
        try:
            ds_val = validation_continuation(ds_train, ds_val, t.n_records)
            ds_train = dataset_prefix(ds_train, t.n_records)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    best_k, table, models, curves = select_d_er(ds_train, ds_val, t.candidates,
                                                replace(t.fit, seed=cfg.seed))
    for k, val_ll in table:
        save_model(models[k], _model_path(out, k))
        curves[k].to_csv(out / f"curves_der{k}.csv")
        _say(quiet, f"d_er={k}: validation per-step ll {val_ll:.6f}")
    with open(out / "selection.csv", "w", encoding="utf-8") as fh:
        fh.write("d_er,val_per_step,selected\n")
        for k, v in table:
            fh.write(f"{k},{_fmt(v)},{1 if k == best_k else 0}\n")
    # The winner's file, byte for byte, without encoding the model again.
    (out / "model_best.json").write_bytes(_model_path(out, best_k).read_bytes())
    _say(quiet, f"selected d_er={best_k}")


def cmd_validate(cfg: RunConfig, out: Path, quiet: bool) -> None:
    ds_train = _load_data(out / "train.jsonl")
    ds_val = _load_data(out / "val.jsonl")
    n = len(ds_train.records)
    rows = []
    for p in sorted(out.glob("model_der*.json")):
        model = _load_model(p)
        cache = forward_pass(model, ds_train)
        train_ps = cache.log_likelihood() / n
        val_ps = conditional_validation_ll(ds_train, ds_val, cache)
        rows.append((p.name, model.dims.d_er, train_ps, val_ps))
        _say(quiet, f"{p.name}: train {train_ps:.6f}, validation {val_ps:.6f} per step")
    if not rows:
        raise DataError(f"no model_der*.json files in {out}; run 'train' first")
    with open(out / "validation.csv", "w", encoding="utf-8") as fh:
        fh.write("file,d_er,train_per_step,val_per_step\n")
        for name, k, tr, va in rows:
            fh.write(f"{name},{k},{_fmt(tr)},{_fmt(va)}\n")


def _model_start(truth: PeriodChannel, gen) -> tuple[np.ndarray, np.ndarray]:
    """The start of a model's predictions, (rho_s0, rho_er0): the system in
    the S marginal of the truth channel's ``rho0``, the reservoir at equilibrium."""
    return (ptrace(truth.rho0, [truth.dims.d_s, truth.dims.d_er], [0]),
            equilibrium_er_state(gen))


def cmd_predict(cfg: RunConfig, out: Path, quiet: bool) -> None:
    p, cm = cfg.predict, cfg.data.collision
    model = _load_model_for(out, p.d_er, cm.tau)
    gen = extract_generator(model)
    dims, times = model.dims, p.times
    # Every n_values entry is checked against the datasets before any output.
    scan = []
    if p.n_values is not None:
        ds_train = _load_data(out / "train.jsonl")
        ds_val = _load_data(out / "val.jsonl")
        try:
            scan = [(n, dataset_prefix(ds_train, n), validation_continuation(ds_train, ds_val, n))
                    for n in sorted(set(p.n_values))]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    truth = period_channel(cm)
    rho_s0, rho_er0 = _model_start(truth, gen)
    states = predict_dynamics(gen, kron(rho_s0, rho_er0), times)
    on_grid = _integer_periods(times, cm.tau)
    periods = np.array(list(on_grid.values()), dtype=int)
    exact_states, exact_chans = exact_reference_dynamics(truth, periods)
    exact_bloch = dict(zip(on_grid, bloch_vector(exact_states)))
    grid_times = [times[i] for i, k in on_grid.items() if k >= 1]
    exact_chois = choi_from_superop(exact_chans[periods >= 1], dims.d_s)
    # Every fit and map comes first: a failure (exit 4) leaves no partial outputs.
    errors = 0.5 * trace_norm(dynamics_maps(gen, rho_er0, grid_times) - exact_chois)
    rows = []
    fit_cfg = replace(cfg.train.fit, seed=cfg.seed)
    for n, prefix, cont in scan:
        gen_n = extract_generator(fit(prefix, cont, dims, fit_cfg)[0])
        maps = dynamics_maps(gen_n, equilibrium_er_state(gen_n), grid_times)
        rows.append((n, float(np.mean(0.5 * trace_norm(maps - exact_chois)))))

    with open(out / "bloch.csv", "w", encoding="utf-8") as fh:
        fh.write("time,x_model,y_model,z_model,x_exact,y_exact,z_exact\n")
        for i, (t, model_bloch) in enumerate(zip(times, bloch_vector(states))):
            cells = [_fmt(t)] + [_fmt(c) for c in model_bloch]
            cells += [_fmt(c) for c in exact_bloch[i]] if i in on_grid else ["", "", ""]
            fh.write(",".join(cells) + "\n")

    if grid_times:
        with open(out / "choi_error.csv", "w", encoding="utf-8") as fh:
            fh.write("time,choi_error\n")
            for t, e in zip(grid_times, errors):
                fh.write(f"{_fmt(t)},{_fmt(e)}\n")
        _say(quiet, f"mean process-matrix error over {len(errors)} times: "
                    f"{float(np.mean(errors)):.6f}")

    if rows:
        with open(out / "error_vs_n.csv", "w", encoding="utf-8") as fh:
            fh.write("n_records,mean_choi_error\n")
            for n, e in rows:
                _say(quiet, f"n={n}: mean process-matrix error {e:.6f}")
                fh.write(f"{n},{_fmt(e)}\n")
        if len(rows) >= 2:
            slope = float(np.polyfit(np.log([n for n, _ in rows]),
                                     np.log([e for _, e in rows]), 1)[0])
            _say(quiet, f"error-vs-n log-log slope {slope:.3f}")
    _say(quiet, f"wrote predictions for d_er={dims.d_er} to {out}")


def cmd_bayes(cfg: RunConfig, out: Path, quiet: bool) -> None:
    b = cfg.bayes
    model = _load_model_for(out, b.d_er)
    ds_train = _load_data(out / "train.jsonl")
    if b.n_records is not None:
        try:
            ds_train = dataset_prefix(ds_train, b.n_records)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    posterior = fit_posterior(model, ds_train, replace(b.fit, seed=cfg.seed))
    save_posterior(posterior, out / "posterior.json")
    rho_s0 = ptrace(model.rho0_ser, [model.dims.d_s, model.dims.d_er], [0])
    dyn = sample_dynamics(posterior, rho_s0, b.times, b.n_draws,
                          seeds.stream(cfg.seed, "bayes-choi"))
    dyn.bands_to_csv(out / "posterior_bands.csv")
    spread = bayes_channel_error(dyn)
    std = np.sort(posterior.std)
    n = std.size
    summary = {
        "d_er": model.dims.d_er,
        "n_records": len(ds_train.records),
        # The mean of the two middle entries, as np.median takes it; the
        # first np.median call would import numpy.ma (numpy 2), which no
        # other part of a command needs.
        "median_std": float(std[[(n - 1) // 2, n // 2]].mean()),
        "channel_spread": spread,
        "final_objective": posterior.objective_trace[-1],
    }
    with open(out / "bayes_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _say(quiet, f"posterior median std {summary['median_std']:.3e}, "
                f"channel spread {spread:.6f}")


def _tomography_errors(truth: PeriodChannel, groups: list[tuple[str, list[int], int, tuple]],
                       seed: int) -> list[list[float]]:
    """Choi-matrix errors of simulated tomography of the reduced maps of the
    truth's channel, one list per group.

    A group is (label, periods, shots per setting, stream names); period
    ``k`` of a group samples its counts from ``seeds.stream(seed, *names,
    k)``.  The channels of all groups are reconstructed in one lockstep
    MLE, which reads only the inputs and effects the groups share.  A
    channel whose fit fails is reported by period and group (exit 4).
    """
    lanes = [(label, k, shots, names) for label, periods, shots, names in groups
             for k in periods]
    _, chans = exact_reference_dynamics(truth, [k for _, k, _, _ in lanes])
    base = default_design(1)
    counts = [simulate_tomography_counts(ch, replace(base, shots=shots),
                                         seeds.stream(seed, *names, k))
              for ch, (_, k, shots, names) in zip(chans, lanes)]
    try:
        ests = tomography_mle(np.stack(counts), base)
    except TomographyError as exc:
        label, k, _, _ = lanes[exc.channel]
        raise NumericalError(f"tomography of period {k} in the {label} group failed: "
                             f"{exc}") from exc
    errors = iter((0.5 * trace_norm(ests - choi_from_superop(chans, 2))).tolist())
    return [[next(errors) for _ in periods] for _, periods, _, _ in groups]


def cmd_tomo(cfg: RunConfig, out: Path, quiet: bool) -> None:
    cm, tm = cfg.data.collision, cfg.tomo
    shots = tm.shots_per_channel or max(1, cfg.data.n_train // len(tm.times))
    groups = [("main", tm.times, shots, ("tomo",))]
    # Optional budget-split scan: same total shot count spread over the
    # first K channels, one row per K.
    ks = sorted(set(tm.k_values or ()))
    groups += [(f"K = {kk}", list(range(1, kk + 1)), max(1, cfg.data.n_train // kk),
                ("tomo-scan", kk)) for kk in ks]

    errors, *scan = _tomography_errors(period_channel(cm), groups, cfg.seed)
    with open(out / "tomo_error.csv", "w", encoding="utf-8") as fh:
        fh.write("time,choi_error\n")
        for k, e in zip(tm.times, errors):
            fh.write(f"{_fmt(k * cm.tau)},{_fmt(e)}\n")
    avg = float(np.mean(errors))
    _say(quiet, f"tomography with {shots} shots per channel: "
                f"mean process-matrix error {avg:.6f}")
    if not ks:
        return
    scan_rows = []
    for kk, (_, _, per, _), errs in zip(ks, groups[1:], scan):
        scan_rows.append((kk, per, float(np.mean(errs))))
        _say(quiet, f"K={kk}: {per} shots per channel, mean error {scan_rows[-1][2]:.6f}")
    with open(out / "tomo_vs_k.csv", "w", encoding="utf-8") as fh:
        fh.write("k_channels,shots_per_channel,mean_choi_error\n")
        for kk, per, e in scan_rows:
            fh.write(f"{kk},{per},{_fmt(e)}\n")


def cmd_compare(cfg: RunConfig, out: Path, quiet: bool) -> None:
    c, cm = cfg.compare, cfg.data.collision
    gate = _GATES[c.gate.lower()]
    gen = extract_generator(_load_model_for(out, c.d_er, cm.tau))
    times = [k * cm.tau for k in c.times]
    event = ControlEvent(time=c.gate_period * cm.tau, gate=gate)

    truth = period_channel(cm)
    exact = predict_with_control(truth, truth.rho0, [ControlEvent(c.gate_period, gate)], c.times)
    rho_s0, rho_er0 = _model_start(truth, gen)
    embed = predict_with_control(gen, kron(rho_s0, rho_er0), [event], times)
    _, chans = exact_reference_dynamics(truth, c.times)
    concat, flags = concatenation_prediction(times, chans, event, rho_s0)

    d_embed = trace_distance_trajectory(embed, exact)
    d_concat = trace_distance_trajectory(concat, exact)
    with open(out / "control.csv", "w", encoding="utf-8") as fh:
        fh.write("time,x_exact,y_exact,z_exact,x_embed,y_embed,z_embed,"
                 "x_concat,y_concat,z_concat,dist_embed,dist_concat,"
                 "concat_positivity_violation\n")
        blochs = np.concatenate([bloch_vector(s) for s in (exact, embed, concat)], axis=1)
        for t, row, de, dc, flag in zip(times, blochs, d_embed, d_concat, flags):
            cells = [_fmt(t)] + [_fmt(x) for x in row]
            cells += [_fmt(de), _fmt(dc), str(int(flag))]
            fh.write(",".join(cells) + "\n")
    _say(quiet, f"time-averaged trace distance to ground truth: "
                f"embedding {float(d_embed.mean()):.6f}, "
                f"concatenation {float(d_concat.mean()):.6f}")
    after = [i for i, t in enumerate(times) if t > event.time]
    if after:
        _say(quiet, f"post-gate average: "
                    f"embedding {float(d_embed[after].mean()):.6f}, "
                    f"concatenation {float(d_concat[after].mean()):.6f}")


_HANDLERS = {
    "generate": (cmd_generate, "simulate a measurement record and split it"),
    "train": (cmd_train, "fit embeddings over candidate reservoir dimensions"),
    "validate": (cmd_validate, "score saved models on the validation split"),
    "predict": (cmd_predict, "predict reduced dynamics and process matrices"),
    "bayes": (cmd_bayes, "variational error bars around a fitted model"),
    "tomo": (cmd_tomo, "process-tomography baseline on the same budget"),
    "compare": (cmd_compare, "predictions under an instantaneous control gate"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="embedlearn",
        description="Markovian embeddings of non-Markovian dynamics, learned "
                    "from a single sequence of projective measurements.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_txt) in _HANDLERS.items():
        sp = sub.add_parser(name, help=help_txt)
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="run configuration JSON (defaults are used if omitted)")
        sp.add_argument("--out", default="runs", metavar="DIR",
                        help="output directory (created if missing)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the configured global seed")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    args = parser.parse_args(argv)
    try:
        resolved = load_run_config(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "resolved_config.json").write_text(
            json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        # Every section is checked, whatever the command, before it runs.
        _HANDLERS[args.command][0](build_config(RunConfig, resolved), out, args.quiet)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
