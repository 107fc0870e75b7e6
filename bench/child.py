"""Entry points the benchmark runs in its child processes.

    python3 bench/child.py oracle --n 12
        Checks brute_count(g, n) == counting_sequence(FiniteSet(g), n) for
        the 60 generator sets of the full-scope oracle (all single, all
        pairs and the first 15 triples of terms of length <= 4) and prints
        one JSON object.

    python3 bench/child.py trace SPANS JOB_ID cli ARGS...
    python3 bench/child.py trace SPANS JOB_ID oracle --n 12
        Runs the same job with every function in TRACED wrapped in a span
        recorder.  Spans stay in memory and are written to SPANS as JSON
        when the job ends.

Run with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import resource
import sys
import time
from itertools import combinations

# Public functions wrapped per layer.  Per-term helpers (format_term,
# sum_terms, product, contains, ...) are left out on purpose: they run
# millions of times and their time falls into the caller's self time.
TRACED = {
    "terms": ["enumerate_terms"],
    "subgroupoids": [
        "parse_family", "closure_up_to", "brute_count", "family_levels",
        "minimal_generating_up_to", "generator_counting_sequence",
        "counting_sequence", "longitudinal_counting", "semigroup_info",
    ],
    "sequences": [
        "catalan_numbers", "catalan_c", "cat_transform", "motzkin_numbers",
        "read_sequence_csv", "write_sequence_csv", "series_identity_check",
        "catalan_bounds_check", "catalan_motzkin_identities",
    ],
    "density": [
        "ratio_trace", "aitken", "estimate_density", "density_report",
        "write_trace_csv", "longitudinal_asymptote", "longitudinal_convergence_check",
        "density_algebra_checks",
    ],
    "motzkin_paths": ["count_paths", "enumerate_paths", "crosscheck_subgroupoid"],
    "cli": ["main"],
    "verify": ["verify_all"],
}
LOG10_2 = math.log10(2)


def _max_digits(seq) -> int:
    return max((int(v.bit_length() * LOG10_2) + 1 for v in seq if v), default=1)


# Counts recorded at the same boundaries as the spans.
COUNTERS = {
    "sequences.cat_transform": lambda args, out: {
        "horizon": len(args[0]), "max_operand_digits": _max_digits(out),
    },
    "terms.enumerate_terms": lambda args, out: {"terms": len(out)},
    "density.estimate_density": lambda args, out: {"trace_samples": len(out.trace.samples)},
}
MEMORY = {"terms.enumerate_terms"}


class Tracer:
    """In-memory span store: [name, start, end, parent index, counts]."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        memory = name in MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if memory else 0
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if memory:
                rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                span[4]["rss_growth_mb"] = (rss1 - rss0) / 1024
            if counter is not None:
                span[4].update(counter(args, out))
            return out

        return traced

    def install(self) -> None:
        """Replace each traced function at every freemagma module that
        binds it by name, the package namespace included."""
        modules = [importlib.import_module("freemagma")]
        modules += [importlib.import_module(f"freemagma.{m}") for m in TRACED]
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"freemagma.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"job": self.job_id, "spans": self.spans}, fh)


def oracle(argv: list[str]) -> int:
    from freemagma import FiniteSet, brute_count, counting_sequence, iter_terms_up_to

    if len(argv) != 2 or argv[0] != "--n":
        raise SystemExit("usage: child.py oracle --n N")
    horizon = int(argv[1])
    pool = list(iter_terms_up_to(4))
    sets = [frozenset({t}) for t in pool]
    sets += [frozenset(c) for c in combinations(pool, 2)]
    sets += [frozenset(c) for c in list(combinations(pool, 3))[:15]]
    agree = sum(
        brute_count(gens, horizon) == counting_sequence(FiniteSet(gens), horizon) for gens in sets
    )
    print(json.dumps({"sets": len(sets), "horizon": horizon, "agree": agree}))
    return 0


def run(argv: list[str]) -> int:
    if argv[0] == "oracle":
        return oracle(argv[1:])
    if argv[0] == "cli":
        from freemagma import cli

        return cli.main(argv[1:])
    raise SystemExit(f"unknown child command {argv[0]!r}")


def main(argv: list[str]) -> int:
    if argv and argv[0] == "trace":
        spans_path, job_id, rest = argv[1], argv[2], argv[3:]
        tracer = Tracer(job_id)
        tracer.install()
        try:
            return run(rest)
        finally:
            tracer.dump(spans_path)
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
