"""The benchmark's traced pass wraps freemagma functions by name; a name
that no longer resolves would crash it.  Its toy density jobs, which every
warm-up pass and ``bench/run.py --smoke`` check, must pass its check."""

import contextlib
import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
CHILD = BENCH / "child.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [
        f"{layer}.{name}"
        for layer, names in child.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"freemagma.{layer}"), name, None))
    ]
    assert missing == []


def _bench_module(monkeypatch, name):
    # Registered in sys.modules for the test only: run.py imports check by
    # that name, and its dataclass looks its own module up there.
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_toy_density_jobs_pass_the_bench_check(tmp_path, monkeypatch):
    from freemagma import cli

    monkeypatch.syspath_prepend(str(BENCH))
    check = _bench_module(monkeypatch, "check")
    run = _bench_module(monkeypatch, "run")
    jobs = run.workload_jobs("density-n2000", run.TOY, tmp_path)
    assert len(jobs) == 4
    for job in jobs:
        with open(job.stdout_file, "w") as fh, contextlib.redirect_stdout(fh):
            assert cli.main(job.command[1:]) == 0, job.name
        assert check.CHECKERS["density"](job) == [], job.name
        check.corrupt(job)
        assert check.CHECKERS["density"](job) != [], job.name
