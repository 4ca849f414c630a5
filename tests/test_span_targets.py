"""Every fairfront attribute the benchmark's tracer patches exists.

bench/spans.py wraps functions by (module, attribute) name from outside the
package.  A refactor that drops or renames one of those names would only show
when `bench/run.py --trace 1` fails to install its tracer; this test fails
first.  spans.py imports only the standard library, so it is loaded from its
file here.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves_on_fairfront():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(module, attr) for module, attr, *_ in spans.PATCHES + spans.WORKERS]
    assert targets
    missing = [
        f"fairfront.{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"fairfront.{module}"), attr, None))
    ]
    assert not missing
