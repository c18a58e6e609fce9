"""The benchmark tracer's targets still name attributes of the package."""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "tracer.py")


def _targets():
    # read TARGETS from the source, so nothing under bench/ is imported
    # (or byte-compiled) by the test run
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("layer, module, attr", _targets())
def test_tracer_target_resolves(layer, module, attr):
    # the tracer patches "Class.method" in the class's own __dict__ and any
    # other name as a module attribute; a refactor that drops one would
    # otherwise break only the traced benchmark run
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__.get(meth)), layer
    else:
        assert callable(getattr(owner, attr, None)), layer
