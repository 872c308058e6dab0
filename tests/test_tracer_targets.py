"""Every name the benchmark tracer wraps still exists in pcurvkit.

perfbench/tracer.py wraps public functions and methods by name and lists a
name that no longer resolves as unwrapped, which the benchmark's own slow
suite rejects.  This check runs the same lookup in the fast suite, so a
change that renames or drops a traced name fails here, with the name.  The
tracer module is only imported and read: install() would patch classes.
"""

import importlib.util
from pathlib import Path

import pytest

import pcurvkit.cli  # noqa: F401  (makes cli, specdoc and exprs resolvable)
from pcurvkit import GF

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("span, path", tracer.SPAN_TARGETS,
                         ids=[span for span, _ in tracer.SPAN_TARGETS])
def test_span_target_resolves(span, path):
    assert tracer.resolve(path) is not None, f"{span}: {path} no longer resolves"


def test_gf_element_defines_counted_ops():
    defined = vars(type(GF(2).one))
    assert [op for op in tracer.GF_OPS if op not in defined] == []
