"""The benchmark's span tracer names auxlab functions and parameters as
strings; these checks fail as soon as a rename leaves one of them behind,
without running a traced benchmark."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library only
    return module


tracer = _load_tracer()


def _resolve(dotted: str):
    short, attr = dotted.split(".", 1)
    return getattr(importlib.import_module(f"auxlab.{short}"), attr)


@pytest.mark.parametrize("name", [f"{short}.{attr}"
                                  for short, attrs in tracer.SPANNED.items()
                                  for attr in attrs])
def test_every_spanned_name_is_an_auxlab_function(name):
    assert inspect.isfunction(_resolve(name))


def test_counted_names_exist():
    assert inspect.isfunction(_resolve("nn.param_layout"))
    assert inspect.isfunction(_resolve("vectors.RngStream").generator)


def test_values_read_parameters_of_their_function():
    # a value reads the call's arguments by name: the string constants of
    # its lambda, such as "split" in args["split"]
    reads = {name: {c for c in fn.__code__.co_consts if isinstance(c, str)}
             for name, fn in tracer.VALUES.items()}
    assert reads["nn.evaluate"] == {"split"}
    assert reads["forkmerge.train_branch"] == {"opt"}
    for name, params in reads.items():
        assert params <= set(inspect.signature(_resolve(name)).parameters), name
