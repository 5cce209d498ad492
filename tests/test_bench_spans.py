"""Every name the benchmark's tracer wraps must resolve.

``bench/layers.py`` wraps functions by module and attribute name and reports
a span whose first target is gone as null. Its self-test is not part of this
suite, so this test catches a rename in ``src/`` when it is made.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_first_target_of_every_traced_span_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        (span, f"{module}.{attr}")
        for span, ((module, attr), *_) in layers.SPANS.items()
        if getattr(importlib.import_module(module), attr, None) is None
    ]
    assert layers.SPANS
    assert missing == []
