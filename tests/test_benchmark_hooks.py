"""The benchmark reaches fmethod through fixed names; keep them bound and working.

`perfbench/tracer.py` wraps each traced callable through
`owner.__dict__[name]` and reads `cache_info()` of the cached ones, and the
`verify-identities` suites in `perfbench/suites.py` call the library
directly, so a rename or deletion inside the package would break a
benchmark run.  These tests break first.
"""

import importlib
import importlib.util
import pathlib

import pytest

from fmethod import engine

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _perfbench_module("tracer")
suites = _perfbench_module("suites")
workloads = _perfbench_module("workloads")


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


# one small scan per family kind, with the row builder that kind must reach
KIND_SCANS = {
    "sl": ({"m_max": 1, "l_max": 0}, "classify_sl_cell"),
    "gp": ({"homs": True, "m_max": 1, "l_max": 0}, "classify_sl_cell"),
    "gprime": ({"homs": True, "connected": True, "m_max": 1, "l_max": 0}, "classify_sl_cell"),
    "gl": ({"flavor": "gl", "m_max": 1, "l_max": 0}, "classify_gl_cell"),
    "sl-ido": ({"ido": True, "k_max": 2}, "classify_ido_cell"),
    "gl-ido": ({"flavor": "gl", "ido": True, "k_max": 2}, "classify_ido_cell"),
}
ROW_BUILDERS = ("classify_sl_cell", "classify_gl_cell", "classify_ido_cell")


@pytest.mark.parametrize("kind", KIND_SCANS)
def test_scan_cells_run_through_module_bindings(monkeypatch, kind):
    options, builder = KIND_SCANS[kind]
    seen = []
    for name in ROW_BUILDERS:
        def spy(family, name=name, real=getattr(engine, name)):
            seen.append((name, family))
            return real(family)

        monkeypatch.setattr(engine, name, spy)
    families = engine.scan_jobs(2, lambda_samples=(), **options)
    rows = engine.classify(2, lambda_samples=(), **options)
    # every family reaches exactly one traced name, exactly once
    assert seen == [(builder, family) for family in families]
    assert {family.kind for family in families} == {kind}
    # one row per member: per sign pair, lambda and lambda_2
    assert len(rows) == sum(len(f.signs) * len(f.lams) * len(f.lam2s) for f in families) > 0


# the seed-0 parameters of each verify-identities suite
SUITE_PARAMS = {job["suite"]: job["params"] for job in workloads.jobs("verify-identities", 0)}


@pytest.mark.parametrize("suite", suites.SUITES)
def test_benchmark_suite_first_item_is_judged_correct(suite):
    name, thunk, expected = suites.SUITES[suite](SUITE_PARAMS[suite])[0]
    assert suites.judge(thunk(), expected), name
