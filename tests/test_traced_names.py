"""Every name the benchmark's ``--trace 1`` wraps still exists in icotherm.

``perfbench/spans.py`` resolves each entry of ``TRACED`` with ``getattr`` on
``icotherm.<module>``; a deleted or renamed function would break tracing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [f"{home}.{name}" for home, names in spans.TRACED.items()
            for name in names]


@pytest.mark.parametrize("traced", _traced())
def test_traced_name_resolves(traced):
    home, name = traced.split(".")
    assert callable(getattr(importlib.import_module(f"icotherm.{home}"), name))
