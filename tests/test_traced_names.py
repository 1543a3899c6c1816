"""The functions the benchmark harness traces exist under the names it looks
up, and take the arguments its work counters read.

``perfbench/child.py`` wraps each entry of its ``TRACED`` list by module and
function name, and counts the work of a call from that call's bound
arguments.  A removed or renamed function or argument would only show when
the traced benchmark runs; these tests catch it with the package alone.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)  # the standard library only
    return child.TRACED


TRACED = _traced()

# The arguments each work counter reads, as alternatives: every name of one
# alternative must be a parameter of the traced function.
WORK_ARGUMENTS = {"n": [("n",)],
                  "records": [("data",), ("data_train", "data_val")],
                  "merge_points": [("batch",)]}


@pytest.mark.parametrize("module, name, work", TRACED,
                         ids=[f"{m}.{f}" for m, f, _ in TRACED])
def test_traced_function_resolves(module, name, work):
    fn = getattr(importlib.import_module(f"embedlearn.{module}"), name, None)
    assert callable(fn), f"embedlearn.{module}.{name} is gone"
    if work is None:
        return
    params = inspect.signature(fn).parameters
    assert any(all(p in params for p in names) for names in WORK_ARGUMENTS[work]), (
        f"embedlearn.{module}.{name} takes none of {WORK_ARGUMENTS[work]}")
    if work == "merge_points":
        # The counter reads the batch from the bound arguments, which hold
        # no defaults.  A call that left a defaulted batch out would send
        # the counter to a ``data`` argument that the gradient does not take.
        assert params["batch"].default is inspect.Parameter.empty
