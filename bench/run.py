"""Benchmark of the freemagma command line.

    python3 bench/run.py --workload density-n2000 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the repository root.  Each job is one fresh ``python -m
freemagma.cli ...`` process (the oracle job is ``bench/child.py oracle``),
run with ``src`` on PYTHONPATH.  Jobs run one at a time in a closed loop with
a single client; each is reaped with ``os.wait4`` for its wall time, CPU time
and peak RSS, and its output is checked by ``bench/check.py``.  A pass runs
every job of the workload once, in an order permuted by ``--seed``; the work
itself does not depend on the seed.

``--trace 0`` reports the end-to-end metrics of untraced passes.  ``--trace
1`` alternates untraced and traced passes (traced jobs run under
``bench/child.py trace``) and reports the per-layer metrics.  The last line
of standard output is one JSON object; a readable report goes to standard
error, and the full record of the run (environment, passes, spans) to
``.bench_work/<workload>/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import Checker, corrupt, density_error

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = str(BENCH / "child.py")
WORK = ROOT / ".bench_work"

# Horizons of the timed workloads and of the toy runs used by the warm-up
# pass and by --smoke.
FULL = {"density_n": 2000, "enum_n": 14, "oracle_n": 12, "seq_n": 5000,
        "transform_n": 400, "motzkin_len": 1000, "probe_n": 8000}
TOY = {"density_n": 50, "enum_n": 6, "oracle_n": 6, "seq_n": 50,
       "transform_n": 20, "motzkin_len": 20, "probe_n": 50}
DENSITY_FAMILIES = [  # (label, family, length of the shifting term or None)
    ("shift1", "shifted:1", 1),
    ("shift2", "shifted:(1+1)", 2),
    ("shift3", "shifted:(1+(1+1))", 3),
    ("finite", "finite:[(1+1),((1+1)+1),(1+(1+1))]", None),
]
WORKLOADS = ("density-n2000", "terms-n14", "seq-io")
# setup_s samples: 5 after warm-up, then after every job one per started
# 2 s of that job's wall time, so that samples spread evenly over the run.
SETUP_SAMPLES_START = 5
SETUP_SAMPLE_EVERY_S = 2.0
MIN_PASSES = 2
HARD_LIMIT_S = 150  # no pass starts after this, so a run ends well within 180 s
JOB_TIMEOUT_S = 120
INT_MAX_STR_DIGITS = sys.get_int_max_str_digits()  # what the jobs run with


@dataclass
class Job:
    name: str
    kind: str  # key of check.CHECKERS
    command: list[str]  # ["cli", <freemagma.cli args>] or ["oracle", ...]
    stdout_file: Path
    out_file: Path | None = None
    params: dict = field(default_factory=dict)
    probe: bool = False  # attempted and checked, but kept out of the timings
    after: str | None = None  # a job whose output this one reads

    @property
    def stderr_file(self) -> Path:
        return self.stdout_file.with_suffix(".stderr")

    def argv(self, spans: Path | None = None, job_id: str = "") -> list[str]:
        if spans is not None:
            return [CHILD, "trace", str(spans), job_id, *self.command]
        if self.command[0] == "cli":
            return ["-m", "freemagma.cli", *self.command[1:]]
        return [CHILD, *self.command]


def _cli(name: str, kind: str, d: Path, args: list[str], out: str, **params) -> Job:
    """A freemagma.cli job writing to `d/out` (a directory for density)."""
    out_file = d / out
    command = ["cli", *args, "--out", str(out_file)]
    return Job(name, kind, command, d / f"{name}.stdout", out_file, params)


def workload_jobs(workload: str, h: dict, d: Path) -> list[Job]:
    toy = h is TOY
    if workload == "density-n2000":
        return [
            _cli(f"density-{label}", "density", d,
                 ["density", "--n", family, "--m", "full", "--nmax", str(h["density_n"]),
                  "--precision", "8"],
                 label, shift=shift, toy=toy)
            for label, family, shift in DENSITY_FAMILIES
        ]
    if workload == "terms-n14":
        return [
            _cli("enumerate", "enumerate", d, ["enumerate", "--n", str(h["enum_n"])],
                 "enumerate.txt", n=h["enum_n"]),
            Job("oracle", "oracle", ["oracle", "--n", str(h["oracle_n"])], d / "oracle.stdout",
                params={"sets": 60}),
            _cli("verify", "verify", d, ["verify", "--scope", "fast"], "verify.txt"),
        ]
    if workload == "seq-io":
        n = h["seq_n"]
        jobs = [
            _cli("count-csv", "count", d, ["count", "--family", "full", "--n", str(n)],
                 "count.csv", family="full", n=n, format="csv"),
            _cli("count-json", "count", d,
                 ["count", "--family", "full", "--n", str(n), "--format", "json"],
                 "count.json", family="full", n=n, format="json"),
            _cli("count-longitudinal", "count", d,
                 ["count", "--family", "longitudinal:[2,3]", "--n", str(n), "--format", "json"],
                 "count-longitudinal.json", family="longitudinal", lengths=(2, 3), n=n,
                 format="json"),
            _cli("transform", "transform", d,
                 ["transform", "--seqfile", str(d / "count.csv"), "--n", str(h["transform_n"])],
                 "transform.csv", n=h["transform_n"]),
            _cli("longitudinal", "longitudinal", d,
                 ["longitudinal", "--lengths", "4,6", "--nmax", str(n)],
                 "longitudinal.json", lengths=(4, 6), n=n),
            _cli("motzkin", "motzkin", d,
                 ["motzkin", "--length", str(h["motzkin_len"]), "--forbid", "FU,FF",
                  "--colors", "F=2"],
                 "motzkin.txt", length=h["motzkin_len"], forbid=("FU", "FF"), colors={"F": 2}),
            # Past n ~ 7150 the values exceed Python's default 4300-digit
            # int->str limit; the probe shows whether that limit still breaks
            # the command.
            _cli("digit-limit-probe", "count", d,
                 ["count", "--family", "full", "--n", str(h["probe_n"])],
                 "probe.csv", family="full", n=h["probe_n"], format="csv"),
        ]
        jobs[3].after = "count-csv"
        jobs[-1].probe = True
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def version_job(d: Path) -> Job:
    return Job("version", "version", ["cli", "--version"], d / "version.stdout")


def pass_order(jobs: list[Job], rng: random.Random) -> list[Job]:
    """A seeded permutation that keeps each job after the one it reads."""
    order = jobs[:]
    rng.shuffle(order)
    for job in jobs:
        if job.after:
            i = order.index(job)
            j = next(k for k, other in enumerate(order) if other.name == job.after)
            if i < j:
                order[i], order[j] = order[j], order[i]
    return order


@dataclass
class Result:
    job: Job
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    out_bytes: int
    problems: list[str]


class Runner:
    """Runs jobs one at a time through bench/launch.py, a small long-lived
    process that spawns each job and reaps it with os.wait4."""

    def __init__(self, checker: Checker, deadline: float) -> None:
        self.checker = checker
        self.deadline = deadline
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launch.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        signal.signal(signal.SIGTERM, self._terminate)

    def _terminate(self, *_):
        raise SystemExit(1)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *_) -> None:
        """Stop the launcher, and with it any job still running, and wait."""
        if self.launcher.poll() is None:
            self.launcher.send_signal(signal.SIGTERM)
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def run(self, job: Job, spans: Path | None = None, job_id: str = "") -> Result:
        for path in (job.stdout_file, job.out_file):
            if path is not None and path.is_file():
                path.unlink()
            elif path is not None and path.is_dir():
                shutil.rmtree(path)
        job.stdout_file.parent.mkdir(parents=True, exist_ok=True)
        request = {
            "argv": [sys.executable, *job.argv(spans, job_id)],
            "stdout": str(job.stdout_file),
            "stderr": str(job.stderr_file),
            "timeout": max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.perf_counter())),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("job launcher exited")
        got = json.loads(reply)
        rc = got["returncode"]
        out_bytes = _size(job.stdout_file) + (_size(job.out_file) if job.out_file else 0)
        return Result(job, got["wall"], got["cpu"], got["rss_kb"] / 1024, rc, out_bytes,
                      self.checker.check(job, rc))


def _size(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size if path.exists() else 0


@dataclass
class Pass:
    traced: bool
    results: list[Result]
    spans: list[dict]
    seconds: float  # whole pass, checking included

    @property
    def timed(self) -> list[Result]:
        return [r for r in self.results if not r.job.probe]

    def wall(self) -> float:
        return sum(r.wall for r in self.timed)

    def cpu(self) -> float:
        return sum(r.cpu for r in self.timed)

    def peak_rss(self) -> float:
        return max(r.rss_mb for r in self.timed)


def run_pass(runner: Runner, jobs: list[Job], rng: random.Random, index: int, traced: bool,
             spans_dir: Path, between) -> Pass:
    """Run every job once in a seeded order, calling `between` with each result."""
    start = time.perf_counter()
    results, spans = [], []
    for job in pass_order(jobs, rng):
        job_id = f"p{index}-{job.name}"
        if traced and not job.probe:
            spans_dir.mkdir(parents=True, exist_ok=True)
            path = spans_dir / f"{job_id}.json"
            results.append(runner.run(job, path, job_id))
            if path.is_file():
                spans.append(json.loads(path.read_text()))
                path.unlink()
        else:
            results.append(runner.run(job))
        between(results[-1])
    return Pass(traced, results, spans, time.perf_counter() - start)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def span_stats(spans_by_job: list[dict]) -> dict[str, dict]:
    """Per function: busy (outermost spans), self time, calls and counts."""
    stats: dict[str, dict] = {}
    for record in spans_by_job:
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            s = stats.setdefault(name, {"busy": 0.0, "self": 0.0, "calls": 0, "counts": {}})
            s["calls"] += 1
            s["self"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                s["busy"] += end - start
            for key, value in counts.items():
                if key.startswith("max_"):
                    s["counts"][key] = max(s["counts"].get(key, 0), value)
                else:
                    s["counts"][key] = s["counts"].get(key, 0) + value
    return stats


def _layer(unit: str, fn: str, field: str):
    """Metric read from the span stats of `fn`: busy, self, calls, or a count."""
    def value(stats: dict, _: Pass) -> float:
        s = stats.get(fn)
        if s is None:
            return 0
        return s["counts"].get(field, 0) if field not in ("busy", "self", "calls") else s[field]
    return unit, fn, value


def _out_bytes(_: dict, p: Pass) -> float:
    return sum(r.out_bytes for r in p.timed if r.job.command[0] == "cli")


# name -> (unit, traced function or None, value from (span stats, traced
# pass)).  With the run-level RUN_LAYER_UNITS these are exactly the
# per_layer metrics of BENCHMARK.json.
PER_PASS_LAYER_METRICS = {
    "sequences.cat_transform.busy_s": _layer("s", "sequences.cat_transform", "busy"),
    "sequences.cat_transform.calls": _layer("count", "sequences.cat_transform", "calls"),
    "sequences.cat_transform.horizon_sum": _layer("count", "sequences.cat_transform", "horizon"),
    "sequences.max_operand_digits":
        _layer("digits", "sequences.cat_transform", "max_operand_digits"),
    "sequences.catalan_numbers.busy_s": _layer("s", "sequences.catalan_numbers", "busy"),
    "sequences.read_sequence_csv.busy_s": _layer("s", "sequences.read_sequence_csv", "busy"),
    "subgroupoids.counting_sequence.self_s":
        _layer("s", "subgroupoids.counting_sequence", "self"),
    "subgroupoids.longitudinal_counting.busy_s":
        _layer("s", "subgroupoids.longitudinal_counting", "busy"),
    "subgroupoids.brute_count.busy_s": _layer("s", "subgroupoids.brute_count", "busy"),
    "terms.enumerate_terms.busy_s": _layer("s", "terms.enumerate_terms", "busy"),
    "terms.enumerate_terms.terms": _layer("count", "terms.enumerate_terms", "terms"),
    "terms.enumerate_terms.rss_growth_mb": _layer("MB", "terms.enumerate_terms", "rss_growth_mb"),
    "density.ratio_trace.busy_s": _layer("s", "density.ratio_trace", "busy"),
    "density.aitken.busy_s": _layer("s", "density.aitken", "busy"),
    "density.estimate_density.self_s": _layer("s", "density.estimate_density", "self"),
    "density.trace_samples": _layer("count", "density.estimate_density", "trace_samples"),
    "motzkin_paths.count_paths.busy_s": _layer("s", "motzkin_paths.count_paths", "busy"),
    "cli.main.self_s": _layer("s", "cli.main", "self"),
    "cli.out_bytes": ("bytes", None, _out_bytes),
    "verify.verify_all.busy_s": _layer("s", "verify.verify_all", "busy"),
}
RUN_LAYER_UNITS = {"failed_ops": "ratio", "density_abs_err": "1", "trace_overhead_s": "s"}
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def failed_ops(passes: list[Pass]) -> tuple[int, int]:
    """(failed, attempted) over every job of every pass, probes included."""
    results = [r for p in passes for r in p.results]
    return sum(bool(r.problems) for r in results), len(results)


def end_to_end_metrics(passes: list[Pass], setup: list[float]) -> dict[str, list[float]]:
    plain = [p for p in passes if not p.traced]
    return {
        "wall_s": [p.wall() for p in plain],
        "cpu_s": [p.cpu() for p in plain],
        "peak_rss_mb": [p.peak_rss() for p in plain],
        "setup_s": setup,
    }


def layer_metrics(passes: list[Pass]) -> tuple[dict[str, list[float]], dict[str, str]]:
    """Per-layer samples (one per traced pass) and a note per absent metric."""
    traced = [p for p in passes if p.traced]
    samples: dict[str, list[float]] = {}
    notes: dict[str, str] = {}
    stats = [span_stats(p.spans) for p in traced]
    for name, (_, fn, value) in PER_PASS_LAYER_METRICS.items():
        samples[name] = [float(value(st, p)) for st, p in zip(stats, traced)]
        if fn is not None and not any(fn in st for st in stats):
            notes[name] = f"0: {fn} ran no span on this workload"
    failed, attempted = failed_ops(passes)
    samples["failed_ops"] = [failed / attempted]
    errors = [density_error(r.job) for p in passes for r in p.results
              if r.job.kind == "density" and not r.problems]
    errors = [e for e in errors if e is not None]
    samples["density_abs_err"] = [float(max(errors))] if errors else [0.0]
    if not errors:
        notes["density_abs_err"] = "0: no shifted-family density job on this workload"
    plain_wall = statistics.median(p.wall() for p in passes if not p.traced)
    traced_wall = statistics.median(p.wall() for p in traced)
    samples["trace_overhead_s"] = [traced_wall - plain_wall]
    return samples, notes


# ---------------------------------------------------------------------------
# Environment


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "git_commit": git_commit(),
        "int_max_str_digits": INT_MAX_STR_DIGITS,
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# A run


@dataclass
class Run:
    workload: str
    passes: list[Pass]
    setup: list[float]
    failures: list[str]
    attempted: int
    failed: int
    env: dict


def measure(workload: str, seed: int, seconds: float, trace: bool, horizons: dict,
            smoke: bool = False) -> Run:
    """Warm up, then run passes for about `seconds`: always at least
    MIN_PASSES, and at least one traced pass with trace."""
    began = time.perf_counter()
    env = environment()
    d = WORK / workload
    for sub in ("out", "warmup", "spans"):
        shutil.rmtree(d / sub, ignore_errors=True)
    rng = random.Random(seed)
    jobs = workload_jobs(workload, horizons, d / "out")
    version = version_job(d / "out")
    setup: list[float] = []
    version_failures: list[str] = []
    passes: list[Pass] = []
    with Runner(Checker(), began + HARD_LIMIT_S + 20) as runner:

        def sample_setup(count: int) -> None:
            for _ in range(count):
                r = runner.run(version)
                setup.append(r.wall)
                version_failures.extend(r.problems)

        # Warm-up: compiles .pyc files and fills the page cache; discarded.
        for job in [version_job(d / "warmup"), *workload_jobs(workload, TOY, d / "warmup")]:
            runner.run(job)
            if trace:
                runner.run(job, d / "warmup" / "spans.json", "warmup")
        sample_setup(SETUP_SAMPLES_START)
        start = time.perf_counter()
        last: dict[bool, float] = {}  # wall time of the last pass of each kind
        kinds = [False, True] if trace else [False]
        while True:
            traced = kinds[len(passes) % len(kinds)]
            now = time.perf_counter()
            # A pass starts only if its expected midpoint is within `seconds`.
            late = smoke or now + last.get(traced, 0) / 2 > start + seconds
            if all(k in last for k in kinds) and (
                now - began > HARD_LIMIT_S or (len(passes) >= MIN_PASSES and late)
            ):
                break
            p = run_pass(runner, jobs, rng, len(passes), traced, d / "spans",
                         lambda r: sample_setup(1 + int(r.wall // SETUP_SAMPLE_EVERY_S)))
            last[traced] = sum(r.wall for r in p.results)
            passes.append(p)
    env["loadavg_after"] = os.getloadavg()
    timed = [r for p in passes for r in p.timed]
    failures = version_failures + [msg for r in timed for msg in r.problems]
    failed = len(version_failures) + sum(bool(r.problems) for r in timed)
    return Run(workload, passes, setup, failures, len(setup) + len(timed), failed, env)


def probe_failures(run: Run) -> list[str]:
    return [m for p in run.passes for r in p.results if r.job.probe for m in r.problems]


def probe_output_wrong(run: Run) -> bool:
    """A probe that exits 0 must still produce correct output."""
    return any(r.returncode == 0 and r.problems
               for p in run.passes for r in p.results if r.job.probe)


def report(run: Run, trace: bool) -> dict:
    """Print the readable report to stderr; return the metrics object."""
    err = sys.stderr
    print(f"workload {run.workload}: {len(run.passes)} passes "
          f"({sum(p.traced for p in run.passes)} traced), {len(run.setup)} setup samples",
          file=err)
    print("environment: " + json.dumps(run.env), file=err)
    e2e = end_to_end_metrics(run.passes, run.setup)
    metrics = {}
    print(f"{'metric':45} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14}  n", file=err)
    for name, values in e2e.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:45} {END_TO_END_UNITS[name]:>6} {med:14.6f} {q1:14.6f} {q3:14.6f}  "
              f"{len(values)}", file=err)
        if not trace:
            metrics[name] = {"value": med, "unit": END_TO_END_UNITS[name]}
    failed, attempted = failed_ops(run.passes)
    print(f"{'failed_ops':45} {'ratio':>6} {failed / attempted:14.6f}  "
          f"({failed} of {attempted} jobs, digit-limit probe included)", file=err)
    for msg in sorted(set(probe_failures(run))):
        print(f"  probe failed: {msg}", file=err)
    if trace:
        samples, notes = layer_metrics(run.passes)
        units = {n: u for n, (u, _, _) in PER_PASS_LAYER_METRICS.items()} | RUN_LAYER_UNITS
        print("per-layer (traced passes):", file=err)
        for name, values in samples.items():
            med = statistics.median(values)
            print(f"{name:45} {units[name]:>6} {med:14.6f}  {notes.get(name, '')}", file=err)
            metrics[name] = {"value": med, "unit": units[name]}
        stats = span_stats([s for p in run.passes if p.traced for s in p.spans])
        print("all traced functions (summed over traced passes):", file=err)
        for fn, s in sorted(stats.items(), key=lambda kv: -kv[1]["busy"]):
            print(f"  {fn:45} busy {s['busy']:10.4f}s self {s['self']:10.4f}s "
                  f"calls {s['calls']:6d} {s['counts'] or ''}", file=err)
    for msg in sorted(set(run.failures)):
        print(f"FAILED: {msg}", file=err)
    return metrics


def save(run: Run, seed: int, trace: bool) -> None:
    """Write the run record and the spans, then drop the bulky outputs."""
    d = WORK / run.workload
    record = {
        "workload": run.workload, "seed": seed, "trace": trace, "env": run.env,
        "setup_s": run.setup,
        "passes": [
            {"traced": p.traced, "seconds": p.seconds, "jobs": [
                {"name": r.job.name, "wall_s": r.wall, "cpu_s": r.cpu, "rss_mb": r.rss_mb,
                 "returncode": r.returncode, "out_bytes": r.out_bytes, "problems": r.problems,
                 "probe": r.job.probe}
                for r in p.results]}
            for p in run.passes],
    }
    tag = f"seed{seed}-trace{int(trace)}"
    (d / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    spans = [s for p in run.passes for s in p.spans]
    if spans:
        (d / f"spans-{tag}.json").write_text(json.dumps(spans))
    for sub in ("out", "warmup", "spans"):
        shutil.rmtree(d / sub, ignore_errors=True)


# ---------------------------------------------------------------------------
# Smoke mode: toy horizons, every metric name, and the checker catching a
# corrupted output.


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        run = measure(workload, seed=1, seconds=0, trace=True, horizons=TOY, smoke=True)
        problems += run.failures + [f"{workload}: {m}" for m in probe_failures(run)]
        got_e2e = set(end_to_end_metrics(run.passes, run.setup))
        got_layer = set(layer_metrics(run.passes)[0])
        if got_e2e != want_e2e or got_layer != want_layer:
            problems.append(f"{workload}: metric names differ from BENCHMARK.json: "
                            f"{sorted(got_e2e ^ want_e2e)} {sorted(got_layer ^ want_layer)}")
        for r in run.passes[0].results:
            corrupt(r.job)
            if not Checker().check(r.job, 0):
                problems.append(f"{workload}: corrupted output of {r.job.name} passed the check")
        save(run, 1, True)
    for msg in problems:
        print(f"smoke: {msg}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy self-test of the harness")
    args = parser.parse_args()
    if not (SRC / "freemagma" / "cli.py").is_file():
        print(f"error: no freemagma sources under {SRC}", file=sys.stderr)
        return 2
    # The checker converts big integers of every size to text.
    sys.set_int_max_str_digits(0)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    metrics = report(run, bool(args.trace))
    save(run, args.seed, bool(args.trace))
    correct = not run.failures and not probe_output_wrong(run)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
