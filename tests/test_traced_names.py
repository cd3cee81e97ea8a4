"""The benchmark tracer wraps library functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [f"{module}.{name}" for module, name in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"ionbridge.{module}"),
                                       name, None))]
    assert missing == []
