"""The benchmark tracer's hooks still name functions that exist.

perfbench/tracer.py wraps the functions its HOOKS table names, and reports a
per-layer metric as absent when no hook of the span it reads is left.  Here
the table is only read: each span must keep at least one hook whose module
imports and whose function exists, so deleting or renaming the last one
fails here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("_tracer_under_test", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


HOOKS = _hooks()
SPANS = sorted({span for _, _, span, _ in HOOKS})


def _live(module, attr):
    try:
        return hasattr(importlib.import_module(module), attr)
    except ImportError:
        return False


@pytest.mark.parametrize("span", SPANS)
def test_every_traced_span_keeps_a_live_hook(span):
    targets = [(module, attr) for module, attr, name, _ in HOOKS if name == span]
    assert any(_live(module, attr) for module, attr in targets), (span, targets)
