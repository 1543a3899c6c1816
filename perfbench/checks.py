"""Output checks of the benchmark; any problem marks its command as failed.

Three kinds, all outside the timed region:

* structure at every seed: files present, row counts, finite values in range;
* repeatability: a repeated command with the same config and inputs must
  write the same bytes (the README's reproducibility promise; the timing
  column of ``curves_der*.csv`` is left out);
* reference values at ``REFERENCE_SEED``, stored in ``reference.json`` by
  ``run.py --write-reference``: per-step selection log-likelihoods to 1e-8,
  the posterior summary and the tomography tables.

The merge-point check runs in a child (``child.py merge-check``): the total
log-likelihood reconstructed at seeded merge points must equal the forward
log p of every saved model.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

SELECTION_ATOL = 1e-8      # per-step log-likelihood, the selection gate
SUMMARY_RTOL = 1e-6        # bayes_summary.json entries
TOMO_ATOL = 1e-9           # tomography errors
MERGE_RTOL = 1e-9          # merge-point residual relative to |log p|


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def save_reference(refs: dict) -> None:
    REFERENCE_PATH.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(x: str) -> float:
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {x}")
    return v


def _digest(h, path: Path, columns: list[str] | None = None) -> None:
    h.update(path.name.encode())
    if columns is None:
        h.update(path.read_bytes())
    else:
        for row in _rows(path):
            h.update(repr([row[c] for c in columns]).encode())


def generate_problems(out: Path, size: dict) -> list[str]:
    problems = []
    for name, n in (("train.jsonl", size["n_train"]), ("val.jsonl", size["n_val"])):
        path = out / name
        if not path.is_file():
            problems.append(f"generate: {name} missing")
            continue
        with open(path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != n + 1:
            problems.append(f"generate: {name} has {lines - 1} records, expected {n}")
    return problems


def _train_outputs(wl, out: Path, size: dict, h) -> tuple[list[str], dict]:
    problems = []
    candidates = wl.sections["train"]["candidates"]
    rows = _rows(out / "selection.csv")
    table = {int(r["d_er"]): _finite(r["val_per_step"]) for r in rows}
    if sorted(table) != sorted(candidates):
        problems.append(f"selection.csv rows {sorted(table)} != candidates {candidates}")
    for k, v in table.items():
        if v > 0.0:
            problems.append(f"selection.csv: d_er={k} per-step ll {v} is positive")
    selected = [int(r["d_er"]) for r in rows if r["selected"] == "1"]
    best = max(table, key=lambda k: (table[k], -k))
    if selected != [best]:
        problems.append(f"selection.csv selects {selected}, best is {best}")
    _digest(h, out / "selection.csv")
    for k in candidates:
        curve = _rows(out / f"curves_der{k}.csv")
        if len(curve) != size["epochs"]:
            problems.append(f"curves_der{k}.csv has {len(curve)} epochs, "
                            f"expected {size['epochs']}")
        for r in curve:
            _finite(r["train_per_step"])
        _digest(h, out / f"curves_der{k}.csv", ["epoch", "train_per_step", "val_per_step"])
        _digest(h, out / f"model_der{k}.json")
    _digest(h, out / "model_best.json")
    return problems, {"selection": {str(k): v for k, v in sorted(table.items())}}


def _bayes_outputs(wl, out: Path, size: dict, h) -> tuple[list[str], dict]:
    problems = []
    summary = json.loads((out / "bayes_summary.json").read_text(encoding="utf-8"))
    values = {k: float(summary[k]) for k in ("median_std", "channel_spread",
                                            "final_objective")}
    if not all(math.isfinite(v) for v in values.values()):
        problems.append(f"bayes_summary.json has non-finite values: {values}")
    if not values["median_std"] > 0 or not 0 <= values["channel_spread"] <= 1:
        problems.append(f"bayes_summary.json out of range: {values}")
    if summary["n_records"] != size["n_train"]:
        problems.append(f"bayes_summary.json n_records {summary['n_records']}")
    bands = _rows(out / "posterior_bands.csv")
    if len(bands) != 21:
        problems.append(f"posterior_bands.csv has {len(bands)} rows, expected 21")
    for r in bands:
        for v in r.values():
            _finite(v)
    for name in ("bayes_summary.json", "posterior_bands.csv", "posterior.json"):
        _digest(h, out / name)
    return problems, values


def _tomo_outputs(wl, out: Path, size: dict, h) -> tuple[list[str], dict]:
    problems = []
    errors = [_finite(r["choi_error"]) for r in _rows(out / "tomo_error.csv")]
    if len(errors) != 20:
        problems.append(f"tomo_error.csv has {len(errors)} rows, expected 20")
    scan = {r["k_channels"]: _finite(r["mean_choi_error"])
            for r in _rows(out / "tomo_vs_k.csv")}
    if sorted(int(k) for k in scan) != wl.sections["tomo"]["k_values"]:
        problems.append(f"tomo_vs_k.csv rows {sorted(scan)}")
    if not all(0.0 <= e <= 1.0 for e in errors + list(scan.values())):
        problems.append("tomography errors outside [0, 1]")
    for name in ("tomo_error.csv", "tomo_vs_k.csv"):
        _digest(h, out / name)
    return problems, {"tomo_error": errors, "tomo_vs_k": scan}


OUTPUTS = {"train": _train_outputs, "bayes": _bayes_outputs, "tomo": _tomo_outputs}


def output_problems(wl, out: Path, size: dict) -> tuple[list[str], dict, str]:
    """(problems, values compared with the reference, digest of the outputs)."""
    h = hashlib.sha256()
    try:
        problems, values = OUTPUTS[wl.command](wl, out, size, h)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return [f"{wl.command} outputs unreadable: {type(exc).__name__}: {exc}"], {}, ""
    return problems, values, h.hexdigest()


def _close(a: float, b: float, atol: float, rtol: float) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def reference_problems(ref: dict, values: dict) -> list[str]:
    problems = []
    if "selection" in ref:
        for k, v in ref["selection"].items():
            got = values.get("selection", {}).get(k)
            if got is None or not _close(got, v, SELECTION_ATOL, 0.0):
                problems.append(f"selection d_er={k}: {got!r} != reference {v!r}")
    for k in ("median_std", "channel_spread", "final_objective"):
        if k in ref and not _close(values.get(k, math.nan), ref[k], 0.0, SUMMARY_RTOL):
            problems.append(f"bayes {k}: {values.get(k)!r} != reference {ref[k]!r}")
    if "tomo_error" in ref:
        got = values.get("tomo_error", [])
        if len(got) != len(ref["tomo_error"]) or not all(
                _close(a, b, TOMO_ATOL, 0.0) for a, b in zip(got, ref["tomo_error"])):
            problems.append("tomo_error.csv differs from the reference")
        got_k = values.get("tomo_vs_k", {})
        if set(got_k) != set(ref["tomo_vs_k"]) or not all(
                _close(got_k[k], v, TOMO_ATOL, 0.0) for k, v in ref["tomo_vs_k"].items()):
            problems.append("tomo_vs_k.csv differs from the reference")
    return problems


def merge_problems(value: dict) -> list[str]:
    problems = []
    for name, r in value.items():
        if not r["residual"] <= MERGE_RTOL * max(1.0, abs(r["log_p"])):
            problems.append(f"merge-point check {name}: |merged - forward log p| = "
                            f"{r['residual']:.3e} at log p {r['log_p']:.6f}")
    return problems


def epoch_p50(out: Path) -> float:
    """Median epoch time from the cumulative ``seconds`` column of the curves."""
    epochs = []
    for path in sorted(out.glob("curves_der*.csv")):
        prev = 0.0
        for r in _rows(path):
            t = float(r["seconds"])
            epochs.append(t - prev)
            prev = t
    return statistics.median(epochs) if epochs else 0.0
