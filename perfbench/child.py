"""One benchmark step, run in a fresh interpreter by ``perfbench/run.py``.

    python3 perfbench/child.py SPEC.json

SPEC is a JSON object with keys ``step`` (``preflight``, ``cli``,
``init-model`` or ``merge-check``), ``args`` (step arguments), ``trace``
(bool) and ``result`` (path of the JSON result this process writes).

With tracing on, every listed public function is wrapped in every
``embedlearn.*`` namespace that binds the same function object, so names
brought in with ``from .x import y`` are caught too.  Each call records a
span (id, name, parent, start, end, error, work count) in memory; the spans
go into the result file when the step ends.  ``tracemalloc`` runs only
around gradient calls, so the sweeps are timed without it.  No code of the
package is changed.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import inspect
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (module, function, work counter).  The work counter names the argument
# whose size is the unit of work of one call.
TRACED = [
    ("cli", "main", None),
    ("datagen", "generate_trajectory", "n"),
    ("datagen", "save_dataset", None),
    ("datagen", "load_dataset", None),
    ("datagen", "exact_reference_dynamics", None),
    ("qla", "herm_eig", None),
    ("qla", "logm_principal", None),
    ("embedding", "superoperator_matrix", None),
    ("embedding", "extract_generator", None),
    ("embedding", "equilibrium_er_state", None),
    ("embedding", "predict_dynamics", None),
    ("embedding", "save_model", None),
    ("embedding", "load_model", None),
    ("likelihood", "forward_pass", "records"),
    ("likelihood", "backward_pass", "records"),
    ("likelihood", "build_cache", None),
    ("likelihood", "conditional_validation_ll", "records"),
    ("likelihood", "log_likelihood_gradient", "merge_points"),
    ("train", "init_model", None),
    ("train", "fit", None),
    ("bayes", "fit_posterior", None),
    ("bayes", "sample_dynamics", None),
    ("bayes", "bayes_channel_error", None),
    ("assess", "simulate_tomography_counts", None),
    ("assess", "tomography_mle", None),
    ("assess", "dynamics_maps", None),
]
MEMORY_TRACED = {"likelihood.log_likelihood_gradient"}


def _work(kind: str, bound: dict) -> int:
    if kind == "n":
        return int(bound["n"])
    if kind == "records":
        if "data_train" in bound:
            return len(bound["data_train"].records) + len(bound["data_val"].records)
        return len(bound["data"].records)
    if kind == "merge_points":
        batch = bound.get("batch")
        return len(bound["data"].records) if batch is None else len(batch)
    raise ValueError(kind)


class Tracer:
    """Span recorder for one synchronous process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work: str | None):
        sig = inspect.signature(fn)
        track_memory = name in MEMORY_TRACED

        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            if work is not None:
                span["work"] = _work(work, sig.bind(*args, **kwargs).arguments)
            self.spans.append(span)
            self._stack.append(span["id"])
            if track_memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                if track_memory:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "embedlearn" or name.startswith("embedlearn.")]
        for mod_name, fn_name, work in TRACED:
            fn = getattr(importlib.import_module(f"embedlearn.{mod_name}"), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", fn, work)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)


def _blas_threads() -> int | None:
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def step_preflight(_args: dict) -> dict:
    """Import the checkout's package and report the software stamp."""
    import numpy
    import scipy
    import embedlearn.cli  # noqa: F401  (the import is what set-up checks)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def step_cli(args: dict) -> dict:
    from embedlearn import cli
    return {"exit_code": cli.main(args["argv"])}


def step_init_model(args: dict) -> dict:
    """Write the random starting model ``train.init_model`` gives for a seed."""
    import numpy as np
    from embedlearn.embedding import save_model
    from embedlearn.qla import DimSpec
    from embedlearn.train import init_model
    model = init_model(DimSpec(d_s=2, d_er=args["d_er"]), args["tau"],
                       np.random.default_rng([args["seed"] % 2**32, 17]))
    save_model(model, args["path"])
    return {}


def step_merge_check(args: dict) -> dict:
    """Largest |merged log p at m - forward log p| over seeded merge points m."""
    import numpy as np
    from embedlearn.datagen import load_dataset
    from embedlearn.embedding import load_model
    from embedlearn.likelihood import build_cache
    data = load_dataset(args["data"])
    n = len(data.records)
    rng = np.random.default_rng([args["seed"] % 2**32, 29])
    points = sorted({0, n, *rng.integers(0, n + 1, size=args["points"]).tolist()})
    out = {}
    for path in args["models"]:
        cache = build_cache(load_model(path), data)
        logp = cache.log_likelihood()
        resid = max(abs(cache.merged_log_likelihood(m) - logp) for m in points)
        out[Path(path).name] = {"log_p": logp, "residual": resid, "points": points}
    return out


STEPS = {"preflight": step_preflight, "cli": step_cli,
         "init-model": step_init_model, "merge-check": step_merge_check}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    result: dict = {"error": None}
    tracer = None
    code = 1
    try:
        import embedlearn
        import embedlearn.cli  # noqa: F401  (binds every submodule before wrapping)
        if Path(embedlearn.__file__).resolve().parent != SRC / "embedlearn":
            raise ImportError(f"embedlearn imported from {embedlearn.__file__}, "
                              f"not from {SRC}")
        if spec["trace"]:
            tracer = Tracer()
            tracer.install()
        result["value"] = STEPS[spec["step"]](spec["args"])
        code = int(result["value"].get("exit_code", 0))
    except BaseException as exc:  # reported to the parent as a failed step
        result["error"] = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, Exception):
            raise
    finally:
        if tracer is not None:
            result["spans"] = tracer.spans
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
