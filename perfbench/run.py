"""Pipeline benchmark of embedlearn: end-to-end CLI workloads, traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Every step runs in a fresh child interpreter (``perfbench/child.py``), one
at a time, from this one process: a closed loop with one client.  The seed
goes only into the generated run config and set-up files.

A run sets the workload up ``SETUP_REPS`` times, then repeats the timed CLI
command until ``--seconds`` have passed, checks every output, and prints one
JSON line last.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs untraced and traced commands in turn and reports per-layer metrics from
the spans the traced children record.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402  (sibling module of this script)

SETUP_REPS = 3
RUN_LIMIT_S = 170.0     # a run must end within 180 s
CHECK_RESERVE_S = 20.0  # kept free for the output checks after the last command
MERGE_POINTS = 4
# One BLAS thread: with two on a 2-core machine the timed commands spread by
# up to 49% between repeats (train-d3), with one by 15%, at ~20% more time.
BLAS_THREADS = 1

SIZES = {
    # n_train/n_val hold the trajectory; epochs, iterations x mc_samples and
    # n_draws fix the work of the timed command.
    "full": {"n_train": 5000, "n_val": 1000, "epochs": 2, "iterations": 1,
             "mc_samples": 2, "n_draws": 50},
    "smoke": {"n_train": 200, "n_val": 50, "epochs": 2, "iterations": 1,
              "mc_samples": 2, "n_draws": 4},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                 # the timed CLI subcommand
    sections: dict = field(default_factory=dict)
    generate: bool = True        # set-up runs CLI generate
    model_d_er: int | None = None  # set-up writes an init_model file
    fixed_seed: int | None = None  # program seed that replaces --seed


def workloads(size: dict) -> dict[str, Workload]:
    def train(candidates):
        return {"train": {"candidates": candidates, "epochs": size["epochs"],
                          "restarts": 1, "batch_size": 1000,
                          "convergence_window": 1000, "val_every": 1000}}
    items = [
        Workload("train-d12", "per-record sweeps and validation re-filtering "
                 "dominate; the gradient is small", "train", train([1, 2])),
        Workload("train-d3", "batched gradient at d_total = 216 with batch 1000 "
                 "dominates: per-record intermediates and 216-side eigh", "train",
                 train([3])),
        Workload("bayes-d2", "full-batch gradient per posterior draw dominates; "
                 "only workload with posterior push-forward", "bayes",
                 {"bayes": {"d_er": 2, "iterations": size["iterations"],
                            "mc_samples": size["mc_samples"],
                            "n_draws": size["n_draws"]}},
                 model_d_er=2),
        # The MLE's iteration count is heavy-tailed in the sampled counts: over
        # seeds 101-110 one command took 3.6-7.0 s (IQR 45% of the median), a
        # few boundary estimates taking most of it.  A control workload needs
        # fixed work, so its counts come from the reference seed at every --seed.
        Workload("tomo-scan", "tomography MLE dominates and no likelihood code "
                 "runs", "tomo", {"tomo": {"k_values": [5, 10, 20]}},
                 generate=False, fixed_seed=checks.REFERENCE_SEED),
    ]
    return {w.name: w for w in items}


END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# (metric, unit, better); "<layer>.<field>" reads the layer's span totals.
PER_LAYER = [
    ("likelihood.forward_pass.calls", "count", "lower"),
    ("likelihood.forward_pass.s", "s", "lower"),
    ("likelihood.forward_pass.self_s", "s", "lower"),
    ("likelihood.forward_pass.us_per_record", "us", "lower"),
    ("likelihood.backward_pass.calls", "count", "lower"),
    ("likelihood.backward_pass.s", "s", "lower"),
    ("likelihood.backward_pass.self_s", "s", "lower"),
    ("likelihood.backward_pass.us_per_record", "us", "lower"),
    ("likelihood.conditional_validation_ll.calls", "count", "lower"),
    ("likelihood.conditional_validation_ll.s", "s", "lower"),
    ("likelihood.conditional_validation_ll.records", "count", "lower"),
    ("likelihood.log_likelihood_gradient.calls", "count", "lower"),
    ("likelihood.log_likelihood_gradient.s", "s", "lower"),
    ("likelihood.log_likelihood_gradient.self_s", "s", "lower"),
    ("likelihood.log_likelihood_gradient.merge_points", "count", "lower"),
    ("likelihood.log_likelihood_gradient.us_per_merge_point", "us", "lower"),
    ("likelihood.log_likelihood_gradient.peak_mb", "MB", "lower"),
    ("qla.herm_eig.calls", "count", "lower"),
    ("qla.herm_eig.s", "s", "lower"),
    ("embedding.superoperator_matrix.calls", "count", "lower"),
    ("embedding.superoperator_matrix.s", "s", "lower"),
    ("datagen.generate_trajectory.s", "s", "lower"),
    ("datagen.generate_trajectory.records_per_s", "1/s", "higher"),
    ("datagen.save_dataset.s", "s", "lower"),
    ("datagen.load_dataset.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("train.fit.s", "s", "lower"),
    ("train.fit.self_s", "s", "lower"),
    ("train.epochs", "count", "lower"),
    ("train.epoch_p50_s", "s", "lower"),
    ("train.retries", "count", "lower"),
    ("bayes.fit_posterior.s", "s", "lower"),
    ("bayes.fit_posterior.self_s", "s", "lower"),
    ("bayes.draws", "count", "lower"),
    ("bayes.floor_draws", "count", "lower"),
    ("bayes.draw_attempts", "count", "lower"),
    ("bayes.usable_draw_ratio", "ratio", "higher"),
    ("embedding.extract_generator.s", "s", "lower"),
    ("qla.logm_principal.s", "s", "lower"),
    ("embedding.predict_dynamics.s", "s", "lower"),
    ("assess.dynamics_maps.s", "s", "lower"),
    ("bayes.sample_dynamics.s", "s", "lower"),
    ("bayes.bayes_channel_error.s", "s", "lower"),
    ("assess.tomography_mle.calls", "count", "lower"),
    ("assess.tomography_mle.s", "s", "lower"),
    ("assess.tomography_mle.self_s", "s", "lower"),
    ("assess.simulate_tomography_counts.s", "s", "lower"),
    ("datagen.exact_reference_dynamics.s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


# ---------------------------------------------------------------------------
# Children.
# ---------------------------------------------------------------------------

@dataclass
class Step:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    result: dict

    @property
    def error(self) -> str | None:
        if self.result.get("error"):
            return self.result["error"]
        if self.exit_code != 0:
            return f"exit code {self.exit_code}"
        return None


class Runner:
    """Starts one child at a time and waits for it; nothing outlives a step."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def run(self, step: str, args: dict, trace: bool = False) -> Step:
        self.count += 1
        stem = self.work / f"{self.count:03d}-{step}"
        spec = {"step": step, "args": args, "trace": trace,
                "result": str(stem.with_suffix(".result.json"))}
        stem.with_suffix(".spec.json").write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "child.py"), str(stem.with_suffix(".spec.json"))]
        with open(stem.with_suffix(".log"), "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.daemon = True
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = {"error": "child wrote no result (killed or crashed)"}
        return Step(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode, result)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


# ---------------------------------------------------------------------------
# Tracing analysis.
# ---------------------------------------------------------------------------

def span_totals(spans: list[dict], restarts: int) -> dict[str, float]:
    """Per-layer sums for one child: calls, s, self_s, work, peak and the
    failure/waste counters, each read at the span boundary."""
    by_id = {s["id"]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s["name"]

    tot: dict[str, float] = defaultdict(float)
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        tot[f"{name}.calls"] += 1
        tot[f"{name}.s"] += dur
        tot[f"{name}.self_s"] += dur - child_s[s["id"]]
        tot[f"{name}.work"] += s.get("work", 0)
        if "peak_bytes" in s:
            tot[f"{name}.peak_mb"] = max(tot[f"{name}.peak_mb"], s["peak_bytes"] / 2**20)
        up = set(ancestors(s))
        parent = by_id[s["parent"]]["name"] if s["parent"] is not None else None
        if name == "likelihood.build_cache" and "train.fit" in up:
            tot["train.epochs"] += 1
        if name == "train.init_model" and "train.fit" in up:
            tot["train.init_models"] += 1
        if name == "likelihood.build_cache" and "bayes.fit_posterior" in up:
            tot["bayes.draws"] += 1
        if (name in ("likelihood.build_cache", "likelihood.log_likelihood_gradient")
                and "bayes.fit_posterior" in up
                and s.get("error") == "ZeroProbabilityError"):
            tot["bayes.floor_draws"] += 1
        if parent in ("bayes.sample_dynamics", "bayes.bayes_channel_error"):
            if name == "embedding.extract_generator":
                tot["bayes.draw_attempts"] += 1
            if name == "embedding.equilibrium_er_state" and "error" not in s:
                tot["bayes.usable_draws"] += 1
    tot["train.retries"] = tot["train.init_models"] - tot["train.fit.calls"] * restarts
    return tot


def layer_metrics(tot: dict[str, float]) -> dict[str, float]:
    def per(num, den, scale=1.0):
        return scale * tot[num] / tot[den] if tot[den] else 0.0
    out = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("trace.") or name == "train.epoch_p50_s":
            continue
        layer, _, fld = name.rpartition(".")
        if fld in ("records", "merge_points"):
            out[name] = tot[f"{layer}.work"]
        elif fld in ("us_per_record", "us_per_merge_point"):
            out[name] = per(f"{layer}.s", f"{layer}.work", 1e6)
        elif fld == "records_per_s":
            out[name] = per(f"{layer}.work", f"{layer}.s")
        elif fld == "usable_draw_ratio":
            out[name] = per("bayes.usable_draws", "bayes.draw_attempts")
        else:
            out[name] = tot[name]
    return out


def add_totals(a: dict[str, float], b: dict[str, float]) -> dict[str, float]:
    out = defaultdict(float, a)
    for k, v in b.items():
        out[k] = max(out[k], v) if k.endswith(".peak_mb") else out[k] + v
    return out


# ---------------------------------------------------------------------------
# One workload.
# ---------------------------------------------------------------------------

class WorkloadRun:
    def __init__(self, wl: Workload, size: dict, seed: int, seconds: float,
                 trace: bool, reference: dict | None):
        self.wl, self.size = wl, size
        self.seed = seed if wl.fixed_seed is None else wl.fixed_seed
        self.seconds, self.trace = seconds, trace
        self.reference = reference if self.seed == checks.REFERENCE_SEED else None
        self.work = WORK / wl.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.out = self.work / "out"
        self.out.mkdir(parents=True)
        self.runner = Runner(self.work, time.monotonic() + RUN_LIMIT_S)
        self.config_path = self.work / "config.json"
        config = {"seed": self.seed, "data": {"n_train": self.size["n_train"],
                                         "n_val": self.size["n_val"]}}
        config.update(wl.sections)
        self.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.last_failed = False

    def cli(self, command: str, trace: bool = False) -> Step:
        return self.runner.run("cli", {"argv": [command, "--config", str(self.config_path),
                                                "--out", str(self.out), "--quiet"]},
                               trace)

    def operation(self, label: str, step: Step, problems: list[str]) -> None:
        """Count one CLI command; it fails on a bad exit or a failed check."""
        self.attempted += 1
        if step.error:
            problems = [f"{label}: {step.error}"] + problems
        self.last_failed = bool(problems)
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def setup(self, trace: bool) -> tuple[float, dict, list[Step]]:
        """One set-up pass: preflight, then the workload's set-up steps."""
        pre = self.runner.run("preflight", {})
        if pre.error:
            self.problems.append(f"preflight: {pre.error}")
        wall, steps = pre.wall_s, []
        if self.wl.generate:
            gen = self.cli("generate", trace)
            self.operation("generate", gen, checks.generate_problems(
                self.out, self.size) if not gen.error else [])
            wall += gen.wall_s
            steps.append(gen)
        if self.wl.model_d_er is not None:
            path = self.out / f"model_der{self.wl.model_d_er}.json"
            mod = self.runner.run("init-model", {"d_er": self.wl.model_d_er, "tau": 1.0,
                                                 "seed": self.seed, "path": str(path)},
                                  trace)
            if mod.error:
                self.problems.append(f"init-model: {mod.error}")
            wall += mod.wall_s
            steps.append(mod)
        return wall, pre.result.get("value") or {}, steps

    def timed(self, trace: bool, first_digest: list) -> Step:
        step = self.cli(self.wl.command, trace)
        problems: list[str] = []
        if not step.error:
            problems, values, digest = checks.output_problems(self.wl, self.out, self.size)
            if not first_digest:
                first_digest.append(digest)
                if self.reference is not None:
                    problems += checks.reference_problems(self.reference, values)
            elif digest != first_digest[0]:
                problems.append("outputs differ from the first repeat of the same command")
        self.operation(self.wl.command, step, problems)
        return step

    def keep_going(self, t_start: float, last: Step, per_round: int) -> bool:
        if time.monotonic() - t_start >= self.seconds:
            return False
        return self.runner.time_left() > per_round * 1.5 * last.wall_s + CHECK_RESERVE_S

    def merge_check(self) -> None:
        """Check the saved models; a failure counts against the last command."""
        models = sorted(str(p) for p in self.out.glob("model_der*.json"))
        if not models:
            return
        step = self.runner.run("merge-check", {"data": str(self.out / "train.jsonl"),
                                               "models": models, "seed": self.seed,
                                               "points": MERGE_POINTS})
        if step.error:
            problems = [f"merge-point check: {step.error}"]
        else:
            problems = checks.merge_problems(step.result["value"])
        if problems:
            self.problems.extend(problems)
            if not self.last_failed:
                self.failed += 1
                self.last_failed = True

    def execute(self) -> tuple[dict, dict]:
        if self.trace:
            metrics, stamp = self.execute_traced()
        else:
            metrics, stamp = self.execute_plain()
        self.merge_check()
        return metrics, stamp

    def execute_plain(self) -> tuple[dict, dict]:
        setups = [self.setup(trace=False) for _ in range(SETUP_REPS)]
        stamp = setups[0][1]
        ops: list[Step] = []
        digest: list = []
        t_start = time.monotonic()
        while True:
            ops.append(self.timed(False, digest))
            if not self.keep_going(t_start, ops[-1], 1):
                break
        self.samples = {"setup_s": [s[0] for s in setups],
                        "run_s": [s.wall_s for s in ops],
                        "run_cpu_s": [s.cpu_s for s in ops],
                        "peak_rss_mb": [s.rss_mb for s in ops]}
        metrics = {k: statistics.median(v) for k, v in self.samples.items()}
        return metrics, stamp

    def execute_traced(self) -> tuple[dict, dict]:
        _, stamp, steps = self.setup(trace=True)
        restarts = self.wl.sections.get("train", {}).get("restarts", 1)
        setup_tot: dict[str, float] = defaultdict(float)
        for s in steps:
            setup_tot = add_totals(setup_tot, span_totals(s.result.get("spans", []), restarts))
        plain: list[Step] = []
        traced: list[Step] = []
        layers: list[dict] = []
        epoch_p50: list[float] = []
        digest: list = []
        t_start = time.monotonic()
        while True:
            plain.append(self.timed(False, digest))
            epoch_p50.append(checks.epoch_p50(self.out))
            traced.append(self.timed(True, digest))
            tot = add_totals(setup_tot, span_totals(traced[-1].result.get("spans", []),
                                                    restarts))
            layers.append(layer_metrics(tot))
            if not self.keep_going(t_start, traced[-1], 2):
                break
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["train.epoch_p50_s"] = statistics.median(epoch_p50)
        metrics["trace.traced_s"] = statistics.median(s.wall_s for s in traced)
        metrics["trace.untraced_s"] = statistics.median(s.wall_s for s in plain)
        metrics["trace.overhead_ratio"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"]
        self.samples = {"traced_s": [s.wall_s for s in traced],
                        "untraced_s": [s.wall_s for s in plain]}
        self.self_share_report(traced[-1])
        return metrics, stamp

    def self_share_report(self, traced: Step) -> None:
        """Print the layers by self time in the last traced command."""
        tot = span_totals(traced.result.get("spans", []), 1)
        total = tot.get("cli.main.s", 0.0)
        rows = sorted(((v, k[:-7]) for k, v in tot.items() if k.endswith(".self_s")),
                      reverse=True)
        print(f"# {self.wl.name}: self time of the traced '{self.wl.command}' "
              f"command ({total:.3f} s in cli.main)")
        for v, k in rows[:8]:
            share = v / total if total else 0.0
            print(f"#   {k:45s} {v:9.3f} s  {share:6.1%}")


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text(encoding="utf-8").strip()
            packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
            return next((ln.split()[0] for ln in packed.splitlines()
                         if ln.endswith(" " + name)), "unknown")
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_one(wl: Workload, args, reference: dict | None) -> dict:
    wr = WorkloadRun(wl, SIZES[args.size], args.seed, args.seconds, bool(args.trace), reference)
    metrics, stamp = wr.execute()
    stamp.update({"workload": wl.name, "seed": args.seed, "program_seed": wr.seed,
                  "size": args.size,
                  "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
                  "cpu": cpu_model(), "blas_threads_requested": BLAS_THREADS,
                  "commit": git_commit()})
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in PER_LAYER}
    result = {"correct": not wr.problems and wr.failed == 0,
              "attempted": wr.attempted, "failed": wr.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = {"stamp": stamp, "samples": wr.samples, "problems": wr.problems, **result}
    (wr.work / "result.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    print("# samples " + json.dumps(wr.samples))
    for p in wr.problems:
        print(f"# problem: {p}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="'smoke' shrinks every workload for a quick self-test")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the reference for its "
                         "size at the reference seed")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "embedlearn" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/embedlearn; run from a full checkout",
              file=sys.stderr)
        return 2
    wls = workloads(SIZES[args.size])
    names = list(wls) if args.workload == "all" else [args.workload]
    if any(n not in wls for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(wls)} or 'all'", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != checks.REFERENCE_SEED:
        print(f"error: references are kept for seed {checks.REFERENCE_SEED} only",
              file=sys.stderr)
        return 2
    refs = checks.load_reference()
    results = {}
    for name in names:
        reference = None if args.write_reference else refs.get(args.size, {}).get(name)
        results[name] = run_one(wls[name], args, reference)
        if args.write_reference:
            if not results[name]["correct"]:
                print(f"error: {name} failed; no reference written", file=sys.stderr)
                return 1
            _, values, _ = checks.output_problems(wls[name], WORK / name / "out",
                                                  SIZES[args.size])
            refs.setdefault(args.size, {})[name] = values
            checks.save_reference(refs)
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
