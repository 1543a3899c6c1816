"""Command-line entry point.

One executable, seven subcommands covering the whole workflow: simulate a
measurement record, fit embeddings across reservoir dimensions, score saved
models, predict reduced dynamics, attach variational error bars, run the
process-tomography baseline on the same measurement budget, and compare
predictions under an instantaneous control gate.

All run parameters live in a single JSON file with strictly checked keys;
every invocation writes the fully resolved configuration next to its
outputs.  Exit codes: 0 success, 2 configuration problem, 3 data problem,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import jsonio, seeds
from .assess import (ControlEvent, choi_from_superop, concatenation_prediction,
                     default_design, dynamics_maps, predict_with_control,
                     simulate_tomography_counts, tomography_mle,
                     trace_distance_trajectory)
from .bayes import (BayesConfig, bayes_channel_error, fit_posterior,
                    sample_dynamics, save_posterior)
from .datagen import (CollisionModelConfig, dataset_prefix,
                      exact_controlled_dynamics, exact_reference_dynamics,
                      generate_trajectory, load_dataset, save_dataset,
                      split_dataset, validation_continuation)
from .embedding import (equilibrium_er_state, extract_generator, load_model,
                        predict_dynamics, save_model)
from .errors import ConfigError, DataError, NumericalError
from .likelihood import conditional_validation_ll, forward_pass
from .qla import (SIGMA_X, SIGMA_Y, SIGMA_Z, DimSpec, bloch_vector, kron,
                  ptrace, trace_norm)
from .train import TrainConfig, fit, select_d_er

_GATES = {
    "x": SIGMA_X,
    "y": SIGMA_Y,
    "z": SIGMA_Z,
    "h": np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0),
}


def _default_config() -> dict:
    return {
        "seed": 0,
        "data": {
            "tau": 1.0,
            "delta_t": None,
            "collisions_per_period": 5,
            "hamiltonian": None,
            "n_train": 20000,
            "n_val": 4000,
        },
        "train": {
            "candidates": [1, 2],
            "n_records": None,
            "epochs": 3000,
            "batch_size": 1000,
            "init_scale": 0.1,
            "convergence_window": 100,
            "convergence_tol": 1e-4,
            "lr": 1e-3,
            "beta1": 0.9,
            "beta2": 0.95,
            "eps_adam": 1e-4,
            "restarts": 3,
            "val_every": 20,
        },
        "predict": {
            "d_er": None,
            "times": [float(t) for t in range(21)],
            "n_values": None,
        },
        "bayes": {
            "d_er": None,
            "iterations": 1000,
            "mc_samples": 8,
            "lr": 0.01,
            "beta1": 0.9,
            "beta2": 0.95,
            "eps_adam": 1e-8,
            "init_sigma": 0.01,
            "floor_log_likelihood": -1e6,
            "n_draws": 50,
            "n_records": None,
            "times": [float(t) for t in range(21)],
        },
        "tomo": {
            "times": list(range(1, 21)),
            "shots_per_channel": None,
            "k_values": None,
        },
        "compare": {
            "d_er": None,
            "gate": "x",
            "gate_period": 20,
            "times": list(range(41)),
        },
    }


def _merge_section(defaults: dict, raw, name: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{name}' must be a JSON object")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in section '{name}': {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(raw)
    return merged


def load_run_config(path: str | None, seed_override: int | None) -> dict:
    """Resolve the run configuration: file contents over defaults, the
    --seed flag over both.  Unknown keys anywhere are rejected."""
    resolved = _default_config()
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
        if "seed" in raw:
            resolved["seed"] = _ensure_int(raw["seed"], "seed")
        for name in resolved:
            if name != "seed" and name in raw:
                resolved[name] = _merge_section(resolved[name], raw[name], name)
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    return resolved


def _value(section: dict, key: str, cast, allow_none: bool = False):
    val = section[key]
    if val is None:
        if allow_none:
            return None
        raise ConfigError(f"'{key}' must not be null")
    if cast is int:
        return _ensure_int(val, key)
    return _ensure_number(val, key)


def _times_list(section: dict, key: str = "times") -> list[float]:
    raw = section[key]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"'{key}' must be a nonempty list")
    times = [_ensure_number(x, key) for x in raw]
    if any(t < 0 for t in times):
        raise ConfigError(f"'{key}' entries must be nonnegative")
    return times


def _int_list(section: dict, key: str) -> list[int]:
    """A nonempty JSON list of integers, in the order given."""
    raw = section[key]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"'{key}' must be a nonempty list")
    return [_ensure_int(x, key) for x in raw]


def _ensure_number(x, key: str) -> float:
    # Compared, not converted: an integer beyond the float range is refused
    # here instead of overflowing in float().
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or not abs(x) <= sys.float_info.max):
        raise ConfigError(f"'{key}' takes finite numbers, got {x!r}")
    return float(x)


def _ensure_int(x, key: str) -> int:
    try:
        return jsonio.ensure_int(x, f"'{key}'")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _fmt(x) -> str:
    return repr(float(x))


def _write_resolved(out: Path, resolved: dict) -> None:
    with open(out / "resolved_config.json", "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _collision_config(resolved: dict) -> CollisionModelConfig:
    d = resolved["data"]
    ham = d.get("hamiltonian")
    if ham is not None:
        try:
            ham = jsonio.pairs_to_matrix(ham, 8, 8)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad data.hamiltonian: {exc}") from exc
    try:
        return CollisionModelConfig(
            tau=_value(d, "tau", float),
            delta_t=_value(d, "delta_t", float, allow_none=True),
            collisions_per_period=_value(d, "collisions_per_period", int),
            hamiltonian=ham,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_data(path: Path):
    if not path.exists():
        raise DataError(f"missing dataset file {path}; run 'generate' first")
    return load_dataset(path)


def _model_path(out: Path, d_er: int) -> Path:
    return out / f"model_der{d_er}.json"


def _resolve_d_er(requested, out: Path) -> int:
    if requested is not None:
        d_er = _ensure_int(requested, "d_er")
        if d_er < 1:
            raise ConfigError(f"d_er must be >= 1, got {d_er}")
        return d_er
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
    return winner


def _load_model(path: Path):
    """A saved model; a malformed or invalid file is a data problem."""
    try:
        return load_model(path)
    except KeyError as exc:
        raise DataError(f"bad model file {path}: missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise DataError(f"bad model file {path}: {exc}") from exc


def _load_model_for(out: Path, d_er: int):
    p = _model_path(out, d_er)
    if not p.exists():
        raise DataError(f"missing model file {p}; run 'train' first")
    return _load_model(p)


def _integer_periods(times: list[float], tau: float) -> dict[int, int]:
    """Map from position in ``times`` to period count, for times that sit
    on the period grid within 1e-9."""
    out = {}
    for i, t in enumerate(times):
        k = round(t / tau)
        if k >= 0 and abs(t - k * tau) < 1e-9:
            out[i] = int(k)
    return out


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_generate(resolved: dict, out: Path, quiet: bool) -> None:
    cm = _collision_config(resolved)
    d = resolved["data"]
    n_train = _value(d, "n_train", int)
    n_val = _value(d, "n_val", int)
    if n_train < 1 or n_val < 1:
        raise ConfigError(f"n_train and n_val must be >= 1, got {n_train}, {n_val}")
    ds = generate_trajectory(cm, n_train + n_val, resolved["seed"])
    ds_train, ds_val = split_dataset(ds, n_train)
    save_dataset(ds_train, out / "train.jsonl")
    save_dataset(ds_val, out / "val.jsonl")
    freq0 = sum(1 for r in ds_train.records if r.outcome == 0) / n_train
    _say(quiet, f"wrote {n_train} training and {n_val} validation records to {out}")
    _say(quiet, f"training outcome frequencies: 0 -> {freq0:.4f}, 1 -> {1.0 - freq0:.4f}")


def _train_config(resolved: dict, d_er: int) -> TrainConfig:
    t = resolved["train"]
    try:
        return TrainConfig(
            d_er=d_er,
            epochs=_value(t, "epochs", int),
            batch_size=_value(t, "batch_size", int),
            seed=resolved["seed"],
            init_scale=_value(t, "init_scale", float),
            convergence_window=_value(t, "convergence_window", int),
            convergence_tol=_value(t, "convergence_tol", float),
            lr=_value(t, "lr", float),
            beta1=_value(t, "beta1", float),
            beta2=_value(t, "beta2", float),
            eps_adam=_value(t, "eps_adam", float),
            restarts=_value(t, "restarts", int),
            val_every=_value(t, "val_every", int),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_train(resolved: dict, out: Path, quiet: bool) -> None:
    ds_train = _load_data(out / "train.jsonl")
    ds_val = _load_data(out / "val.jsonl")
    t = resolved["train"]
    n_records = _value(t, "n_records", int, allow_none=True)
    if n_records is not None:
        try:
            ds_val = validation_continuation(ds_train, ds_val, n_records)
            ds_train = dataset_prefix(ds_train, n_records)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    candidates = sorted(set(_int_list(t, "candidates")))
    if candidates[0] < 1:
        raise ConfigError(f"candidates must be >= 1, got {candidates}")
    cfg = _train_config(resolved, candidates[0])
    best_k, table, models, curves = select_d_er(ds_train, ds_val, candidates, cfg)
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


def cmd_validate(resolved: dict, out: Path, quiet: bool) -> None:
    ds_train = _load_data(out / "train.jsonl")
    ds_val = _load_data(out / "val.jsonl")
    n = len(ds_train.records)
    rows = []
    for p in sorted(out.glob("model_der*.json")):
        model = _load_model(p)
        cache = forward_pass(model, ds_train)
        train_ps = cache.log_likelihood() / n
        val_ps = conditional_validation_ll(model, ds_train, ds_val, cache)
        rows.append((p.name, model.dims.d_er, train_ps, val_ps))
        _say(quiet, f"{p.name}: train {train_ps:.6f}, validation {val_ps:.6f} per step")
    if not rows:
        raise DataError(f"no model_der*.json files in {out}; run 'train' first")
    with open(out / "validation.csv", "w", encoding="utf-8") as fh:
        fh.write("file,d_er,train_per_step,val_per_step\n")
        for name, k, tr, va in rows:
            fh.write(f"{name},{k},{_fmt(tr)},{_fmt(va)}\n")


def _choi_errors(gen, dims: DimSpec, times: list[float], exact_chois) -> list[float]:
    """Trace-norm error of the learned reduced maps (reservoir at its
    equilibrium state) against the exact Choi matrices, one per time."""
    maps = dynamics_maps(gen, dims, equilibrium_er_state(gen, dims), times)
    return [0.5 * trace_norm(c.matrix - e.matrix) for c, e in zip(maps, exact_chois)]


def cmd_predict(resolved: dict, out: Path, quiet: bool) -> None:
    p = resolved["predict"]
    d_er = _resolve_d_er(p["d_er"], out)
    model = _load_model_for(out, d_er)
    gen = extract_generator(model)
    dims = model.dims
    times = _times_list(p)

    cm = _collision_config(resolved)
    rho_s0 = ptrace(np.asarray(cm.rho_ss1_0, dtype=np.complex128), [2, 2], [0])
    rho_ser0 = kron(rho_s0, equilibrium_er_state(gen, dims))
    states = predict_dynamics(gen, dims, rho_ser0, times)
    on_grid = _integer_periods(times, cm.tau)
    ks = sorted(set(on_grid.values()))
    exact_states, exact_chans = exact_reference_dynamics(cm, ks)
    by_k_state = dict(zip(ks, exact_states))
    by_k_chan = dict(zip(ks, exact_chans))

    with open(out / "bloch.csv", "w", encoding="utf-8") as fh:
        fh.write("time,x_model,y_model,z_model,x_exact,y_exact,z_exact\n")
        for i, (t, rho) in enumerate(zip(times, states)):
            cells = [_fmt(t)] + [_fmt(c) for c in bloch_vector(rho)]
            if i in on_grid:
                cells += [_fmt(c) for c in bloch_vector(by_k_state[on_grid[i]])]
            else:
                cells += ["", "", ""]
            fh.write(",".join(cells) + "\n")

    pos_idx = [i for i in sorted(on_grid) if on_grid[i] >= 1]
    grid_times = [times[i] for i in pos_idx]
    exact_chois = [choi_from_superop(by_k_chan[on_grid[i]], dims.d_s)
                   for i in pos_idx]
    if grid_times:
        errors = _choi_errors(gen, dims, grid_times, exact_chois)
        with open(out / "choi_error.csv", "w", encoding="utf-8") as fh:
            fh.write("time,choi_error\n")
            for t, e in zip(grid_times, errors):
                fh.write(f"{_fmt(t)},{_fmt(e)}\n")
        _say(quiet, f"mean process-matrix error over {len(errors)} times: "
                    f"{float(np.mean(errors)):.6f}")

    if p["n_values"] is not None:
        if not grid_times:
            raise ConfigError("n_values scan needs at least one positive "
                              "integer-period prediction time")
        ns = sorted(set(_int_list(p, "n_values")))
        ds_train = _load_data(out / "train.jsonl")
        ds_val = _load_data(out / "val.jsonl")
        rows = []
        for n in ns:
            try:
                prefix = dataset_prefix(ds_train, n)
                cont = validation_continuation(ds_train, ds_val, n)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            fitted, _ = fit(prefix, cont, dims, _train_config(resolved, d_er))
            err = float(np.mean(_choi_errors(extract_generator(fitted), dims,
                                             grid_times, exact_chois)))
            rows.append((n, err))
            _say(quiet, f"n={n}: mean process-matrix error {err:.6f}")
        with open(out / "error_vs_n.csv", "w", encoding="utf-8") as fh:
            fh.write("n_records,mean_choi_error\n")
            for n, e in rows:
                fh.write(f"{n},{_fmt(e)}\n")
        if len(rows) >= 2:
            slope = float(np.polyfit(np.log([n for n, _ in rows]),
                                     np.log([e for _, e in rows]), 1)[0])
            _say(quiet, f"error-vs-n log-log slope {slope:.3f}")
    _say(quiet, f"wrote predictions for d_er={d_er} to {out}")


def cmd_bayes(resolved: dict, out: Path, quiet: bool) -> None:
    b = resolved["bayes"]
    d_er = _resolve_d_er(b["d_er"], out)
    model = _load_model_for(out, d_er)
    ds_train = _load_data(out / "train.jsonl")
    n_records = _value(b, "n_records", int, allow_none=True)
    if n_records is not None:
        try:
            ds_train = dataset_prefix(ds_train, n_records)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    times = _times_list(b)
    n_draws = _value(b, "n_draws", int)
    if n_draws < 2:
        raise ConfigError(f"n_draws must be >= 2, got {n_draws}")
    try:
        bcfg = BayesConfig(
            iterations=_value(b, "iterations", int),
            mc_samples=_value(b, "mc_samples", int),
            lr=_value(b, "lr", float),
            beta1=_value(b, "beta1", float),
            beta2=_value(b, "beta2", float),
            eps_adam=_value(b, "eps_adam", float),
            init_sigma=_value(b, "init_sigma", float),
            seed=resolved["seed"],
            floor_log_likelihood=_value(b, "floor_log_likelihood", float),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    posterior = fit_posterior(model, ds_train, bcfg)
    save_posterior(posterior, out / "posterior.json")
    rho_s0 = ptrace(model.rho0_ser, [model.dims.d_s, model.dims.d_er], [0])
    dyn = sample_dynamics(posterior, rho_s0, times, n_draws,
                          seeds.stream(resolved["seed"], "bayes-choi"))
    dyn.bands_to_csv(out / "posterior_bands.csv")
    spread = bayes_channel_error(dyn)
    summary = {
        "d_er": d_er,
        "n_records": len(ds_train.records),
        "median_std": float(np.median(posterior.std)),
        "channel_spread": spread,
        "final_objective": posterior.objective_trace[-1],
    }
    with open(out / "bayes_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _say(quiet, f"posterior median std {summary['median_std']:.3e}, "
                f"channel spread {spread:.6f}")


def _tomography_errors(cm: CollisionModelConfig, periods: list[int], shots: int,
                       seed: int, *stream_names) -> list[float]:
    """Simulate tomography of the exact channel at each period with ``shots``
    per setting, reconstruct all of them in one lockstep MLE and return each
    Choi-matrix error.  Period ``k`` samples from
    ``seeds.stream(seed, *stream_names, k)``."""
    _, chans = exact_reference_dynamics(cm, periods)
    design = default_design(shots)
    counts = np.stack([simulate_tomography_counts(ch, design, seeds.stream(seed, *stream_names, k))
                       for k, ch in zip(periods, chans)])
    ests = tomography_mle(counts, design)
    return [0.5 * trace_norm(est.matrix - choi_from_superop(ch, 2).matrix)
            for est, ch in zip(ests, chans)]


def cmd_tomo(resolved: dict, out: Path, quiet: bool) -> None:
    cm = _collision_config(resolved)
    tm = resolved["tomo"]
    periods = _int_list(tm, "times")
    if min(periods) < 1:
        raise ConfigError(f"tomo times must be periods >= 1, got {periods}")
    shots = _value(tm, "shots_per_channel", int, allow_none=True)
    if shots is None:
        shots = max(1, _value(resolved["data"], "n_train", int) // len(periods))
    elif shots < 1:
        raise ConfigError(f"shots_per_channel must be >= 1, got {shots}")
    errors = _tomography_errors(cm, periods, shots, resolved["seed"], "tomo")
    with open(out / "tomo_error.csv", "w", encoding="utf-8") as fh:
        fh.write("time,choi_error\n")
        for k, e in zip(periods, errors):
            fh.write(f"{_fmt(k * cm.tau)},{_fmt(e)}\n")
    avg = float(np.mean(errors))
    _say(quiet, f"tomography with {shots} shots per channel: "
                f"mean process-matrix error {avg:.6f}")

    # Optional budget-split scan: same total shot count spread over the
    # first K channels, one row per K.
    if tm["k_values"] is None:
        return
    ks = sorted(set(_int_list(tm, "k_values")))
    if ks[0] < 1:
        raise ConfigError(f"k_values must be >= 1, got {ks}")
    budget = _value(resolved["data"], "n_train", int)
    scan_rows = []
    for kk in ks:
        per = max(1, budget // kk)
        errs = _tomography_errors(cm, list(range(1, kk + 1)), per,
                                  resolved["seed"], "tomo-scan", kk)
        scan_rows.append((kk, per, float(np.mean(errs))))
        _say(quiet, f"K={kk}: {per} shots per channel, mean error {scan_rows[-1][2]:.6f}")
    with open(out / "tomo_vs_k.csv", "w", encoding="utf-8") as fh:
        fh.write("k_channels,shots_per_channel,mean_choi_error\n")
        for kk, per, e in scan_rows:
            fh.write(f"{kk},{per},{_fmt(e)}\n")


def cmd_compare(resolved: dict, out: Path, quiet: bool) -> None:
    c = resolved["compare"]
    cm = _collision_config(resolved)
    gate_name = str(c["gate"]).lower()
    if gate_name not in _GATES:
        raise ConfigError(f"unknown gate '{c['gate']}'; choose from "
                          f"{sorted(_GATES)}")
    gate = _GATES[gate_name]
    gate_period = _value(c, "gate_period", int)
    if gate_period < 0:
        raise ConfigError(f"gate_period must be nonnegative, got {gate_period}")
    periods = _int_list(c, "times")
    if min(periods) < 0:
        raise ConfigError(f"compare times must be periods >= 0, got {periods}")
    if gate_period not in periods:
        raise ConfigError("gate_period must be on the time grid")
    d_er = _resolve_d_er(c["d_er"], out)
    model = _load_model_for(out, d_er)
    gen = extract_generator(model)
    times = [k * cm.tau for k in periods]
    event = ControlEvent(time=gate_period * cm.tau, gate=gate)

    exact = exact_controlled_dynamics(cm, gate, gate_period, periods)
    rho_s0 = ptrace(np.asarray(cm.rho_ss1_0, dtype=np.complex128), [2, 2], [0])
    rho_ser0 = kron(rho_s0, equilibrium_er_state(gen, model.dims))
    embed = predict_with_control(gen, model.dims, rho_ser0, [event], times)
    _, chans = exact_reference_dynamics(cm, periods)
    concat, flags = concatenation_prediction(times, chans, event, rho_s0)

    d_embed = trace_distance_trajectory(embed, exact)
    d_concat = trace_distance_trajectory(concat, exact)
    with open(out / "control.csv", "w", encoding="utf-8") as fh:
        fh.write("time,x_exact,y_exact,z_exact,x_embed,y_embed,z_embed,"
                 "x_concat,y_concat,z_concat,dist_embed,dist_concat,"
                 "concat_positivity_violation\n")
        for i, t in enumerate(times):
            cells = [_fmt(t)]
            for rho in (exact[i], embed[i], concat[i]):
                cells += [_fmt(x) for x in bloch_vector(rho)]
            cells += [_fmt(d_embed[i]), _fmt(d_concat[i]), str(int(flags[i]))]
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
        _write_resolved(out, resolved)
        _HANDLERS[args.command][0](resolved, out, args.quiet)
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
