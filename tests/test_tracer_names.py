"""The benchmark tracer's names exist in the package.

``perfbench/tracer.py`` looks up each function named in its ``TRACED``
table with ``getattr`` when a traced run starts, and wraps
``CovarianceMatrix.__init__`` and ``CovarianceMatrix.identity`` on the
class, so a renamed or deleted one breaks every traced run. The table is
read from the file's source, without running it.
"""

import ast
import importlib
from pathlib import Path

import pytest

from misolim.randmat import CovarianceMatrix

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


TRACED = [f"{layer}.{name}" for layer, names in _traced().items()
          for name in names]


def test_table_is_not_empty():
    assert TRACED


@pytest.mark.parametrize("traced", TRACED)
def test_traced_function_exists(traced):
    layer, name = traced.split(".")
    module = importlib.import_module(f"misolim.{layer}")
    assert callable(getattr(module, name, None)), traced


def test_covariance_hooks_exist():
    assert callable(CovarianceMatrix.__dict__["__init__"])
    assert isinstance(CovarianceMatrix.__dict__["identity"], classmethod)
