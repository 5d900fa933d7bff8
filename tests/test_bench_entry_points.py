"""The benchmark tracer patches named entry points; each must still exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_entry_points_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{owner.__name__}.{attr}" for _, owner, attr in spans.ENTRY_POINTS if attr not in owner.__dict__
    ]
    assert not missing, f"entry points the benchmark tracer patches are gone: {missing}"
