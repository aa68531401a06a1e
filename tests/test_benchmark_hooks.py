"""The benchmark's tracer reaches fmethod through fixed names; keep them bound.

`perfbench/tracer.py` wraps each traced callable through
`owner.__dict__[name]` and reads `cache_info()` of the cached ones, so a
rename inside the package would break a traced benchmark run.  These tests
break first.
"""

import importlib
import importlib.util
import pathlib

import pytest

from fmethod import engine

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("modname, path", [t[:2] for t in tracer.TARGETS])
def test_traced_callable_is_bound(modname, path):
    owner = importlib.import_module(f"fmethod.{modname}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr))


@pytest.mark.parametrize("modname, attr", tracer.CACHED)
def test_cached_callable_reports_cache_info(modname, attr):
    module = importlib.import_module(f"fmethod.{modname}")
    assert callable(vars(module)[attr].cache_info)


def test_scan_cells_run_through_module_bindings(monkeypatch):
    seen = []
    real = engine.classify_sl_cell

    def spy(n, cell):
        seen.append(cell)
        return real(n, cell)

    monkeypatch.setattr(engine, "classify_sl_cell", spy)
    rows = engine.classify(2, m_max=0, l_max=0, lambda_samples=())
    assert len(seen) == len(rows) == 4
