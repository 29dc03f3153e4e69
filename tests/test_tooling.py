"""The benchmark's tracer (``perfbench/spans.py``) wraps tnsc entry points by
module and name, so renaming or moving one must fail here, not first in a
traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.ENTRY_POINTS
    for module_name, attr, _counter in spans.ENTRY_POINTS:
        target = importlib.import_module(f"tnsc.{module_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"tnsc.{module_name}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), f"tnsc.{module_name}.{attr}"
