"""gptdyn benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gptdyn is imported from ``src``.
Set-up (import, seeded inputs, config texts) is timed several times and
reported as ``setup_s``.  Then whole passes over the workload's fixed
operation list run until ``S`` (scaled) seconds have passed, and at least
four of them; every operation's output is checked exactly after its pass, outside
the timed region, and the pass's outputs are then dropped.  Times are
scaled to a fixed machine speed by a probe timeline (see ``ProbeClock``).

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` MIN_PASSES untraced passes run first, then traced passes,
and the last line carries the per-layer metrics (see ``perfbench/README.md``).
The line before it is a report with the input shape, sample counts, the
tail percentile used and the pinned known defects still open.

Exit status 0 when a result is printed (``correct`` says whether every check
held), 2 if there are no gptdyn sources to import.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import workloads
from oracle import row_reduce, slice_facets
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
# At least four passes, so the tail of every workload has more than ten
# samples.  Which operation the tail lands on still depends on the pass count,
# and so on gptdyn's speed: perfbench/README.md names, for each workload, the
# pass counts at which it moves to another kind of operation.
MIN_PASSES = 4


# Shared machines (small cloud VMs in particular) change speed by 15-30% over
# minutes, whatever runs on them, so raw wall times of one run say as much
# about the machine as about gptdyn.  A fixed probe of the benchmark's own
# exact arithmetic (no gptdyn code) runs before each set-up and pass, every
# PROBE_EVERY_S between operations, and at the end.  Each raw time is scaled
# by PROBE_REFERENCE_S over the median of the PROBE_WINDOW probes around it,
# so times read as seconds on a machine that runs the probe in
# PROBE_REFERENCE_S.  One probe alone jitters too much to scale by.  The run
# length --seconds is counted in the same scaled seconds, so a run makes the
# same number of passes however fast the machine is at the time.  The raw
# times are in the report line.
PROBE_REFERENCE_S = 0.05
PROBE_EVERY_S = 0.5
PROBE_WINDOW = 4
# The probe does the two kinds of exact work gptdyn spends its time on: a
# brute-force facet enumeration (eight grid points spanning four dimensions)
# and the row operations of a wide tableau (12 x 26), as in the simplex.
_GRID = list(itertools.product((Fraction(0), Fraction(1, 2), Fraction(1)), repeat=4))
_PROBE_POINTS = [_GRID[i] for i in (5, 14, 25, 34, 47, 52, 66, 71)]
_PROBE_TABLEAU = [
    tuple(Fraction((i * 5 + j * 7) % 13 - 6, (i + 3 * j) % 4 + 1) for j in range(26))
    for i in range(12)
]


class ProbeClock:
    """The probe timeline of one run."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.last = 0.0

    def probe(self) -> float:
        start = time.perf_counter()
        slice_facets(_PROBE_POINTS)
        row_reduce(_PROBE_TABLEAU)
        self.last = time.perf_counter()
        self.probes.append(self.last - start)
        return self.probes[-1]

    def due(self) -> bool:
        return time.perf_counter() - self.last >= PROBE_EVERY_S

    def index(self) -> int:
        """Index of the latest probe; a time measured now sits just after it."""
        return len(self.probes) - 1

    def scale(self, k: int) -> float:
        half = PROBE_WINDOW // 2
        window = self.probes[max(0, k - half + 1) : k + half + 1]
        return PROBE_REFERENCE_S / statistics.median(window)

    def scale_now(self) -> float:
        """Scale from the latest probes, for decisions made while the run goes on."""
        return self.scale(self.index() - PROBE_WINDOW // 2 + 1)


def _import_gptdyn():
    """Import gptdyn afresh, so each timed set-up pays for the import."""
    for name in [n for n in sys.modules if n == "gptdyn" or n.startswith("gptdyn.")]:
        del sys.modules[name]
    gd = importlib.import_module("gptdyn")
    importlib.import_module("gptdyn.cli")
    return gd


def _setup(name: str, seed: int, tmp: str, clock: ProbeClock):
    """Time SETUP_REPEATS set-ups; returns the last workload and [(raw seconds, probe index)]."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        clock.probe()
        start = time.perf_counter()
        gd = _import_gptdyn()
        workload = workloads.WORKLOADS[name](gd, random.Random(seed), tmp)
        times.append((time.perf_counter() - start, clock.index()))
    return workload, times


class Pass:
    """Raw timings of one pass: its wall time without probes, and each operation's."""

    def __init__(self, wall: float, ops: list[tuple[float, int]]) -> None:
        self.wall = wall
        self.ops = ops  # (raw seconds, probe index)

    def scaled_ops(self, clock: ProbeClock) -> list[float]:
        return [dt * clock.scale(k) for dt, k in self.ops]

    def scaled(self, clock: ProbeClock) -> float:
        between = self.wall - sum(dt for dt, _ in self.ops)
        return sum(self.scaled_ops(clock)) + between * clock.scale(self.ops[0][1])


def _run_pass(workload, clock: ProbeClock):
    """Run one pass; returns its Pass and [(op, output)].

    As ``timeit`` does, the cyclic garbage collector is off while the pass
    runs, so its collections do not land at random inside operations; it
    runs to completion before the pass instead.
    """
    gc.collect()
    gc.disable()
    try:
        ctx = {}
        records, times = [], []
        clock.probe()
        probing = 0.0
        start = time.perf_counter()
        for op in workload.ops(ctx):
            if clock.due():
                probing += clock.probe()
            t0 = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # a raising operation is checked like any output
                output = exc
            times.append((time.perf_counter() - t0, clock.index()))
            records.append((op, output))
            ctx[op.label] = output
        wall = time.perf_counter() - start - probing
    finally:
        gc.enable()
    return Pass(wall, times), records


def _tail(samples):
    """Value with exactly ten samples above it, and the percentile it sits at."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], "p100"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f}"


def _shape(records) -> dict:
    """Share of each operation kind, and of each solve result, in one pass."""
    kinds = Counter(op.kind for op, _ in records)
    total = sum(kinds.values())
    shape = {f"{k}_share": v / total for k, v in sorted(kinds.items())}
    results = Counter(
        out.result_kind()
        for op, out in records
        if op.kind == "solve" and not isinstance(out, BaseException)
    )
    solves = sum(results.values())
    shape.update({f"{k}_share_of_solves": v / solves for k, v in sorted(results.items())})
    return shape


def _ns(entry, stat, clock: ProbeClock) -> float:
    """A span time of one pass, each part scaled by the probes around it."""
    return sum(
        v * clock.scale(key[1]) for key, v in entry.items() if isinstance(key, tuple) and key[0] == stat
    )


def _median(passes, key, stat):
    return statistics.median(p[key][stat] for p in passes)


def _median_ms(passes, key, stat, clock):
    return statistics.median(_ns(p[key], stat, clock) for p in passes) * 1e-6


def _share(passes, pass_times, parts, clock):
    """Median over passes of the traced time in ``parts`` over the pass time."""
    return statistics.median(
        sum(_ns(p[key], stat, clock) for key, stat in parts) / 1e9 / t
        for p, t in zip(passes, pass_times)
    )


def _ratio(passes, key_a, stat_a, key_b, stat_b):
    a = sum(p[key_a][stat_a] for p in passes)
    b = sum(p[key_b][stat_b] for p in passes)
    return a / b if b else 0.0


CLI_COMMANDS = ("demo", "theorem", "analyze", "mub", "solve", "verify")


def _layer_metrics(passes, pass_times, trace_ratio, clock):
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    lp, sls, isp, ac = (
        "simplex.lp_optimize",
        "solver.solve_linear_stage",
        "solver.impose_state_preservation",
        "solver.assemble_constraints",
    )
    put(f"{sls}.self_ms", _median_ms(passes, sls, "self_ns", clock), "ms")
    put(f"{sls}.unknowns", _median(passes, sls, "unknowns"), "count")
    put(f"{ac}.equations", _median(passes, ac, "equations"), "count")
    put(f"{ac}.per_solve", _ratio(passes, ac, "in_solve", "solver.allowed_transform_set", "calls"), "count")
    put("exactla.nullspace.calls", _median(passes, "exactla.nullspace", "calls"), "count")
    put("exactla.nullspace.self_ms", _median_ms(passes, "exactla.nullspace", "self_ns", clock), "ms")
    put("exactla.rank.calls", _median(passes, "exactla.rank", "calls"), "count")
    put("exactla.solve_linear.calls", _median(passes, "exactla.solve_linear", "calls"), "count")
    put(f"{isp}.self_ms", _median_ms(passes, isp, "self_ns", clock), "ms")
    put(f"{isp}.pairs", _median(passes, isp, "pairs"), "count")
    put(f"{isp}.rows_kept", _median(passes, isp, "rows_kept"), "count")
    put(f"{lp}.calls", _median(passes, lp, "calls"), "count")
    put(f"{lp}.self_ms", _median_ms(passes, lp, "self_ns", clock), "ms")
    put(f"{lp}.rows_mean", _ratio(passes, lp, "rows_sum", lp, "calls"), "count")
    put(f"{lp}.rows_max", max(p[lp]["rows_max"] for p in passes), "count")
    frd = "polytopes.feasible_region_dim"
    put(f"{frd}.self_ms", _median_ms(passes, frd, "self_ns", clock), "ms")
    for enum in ("polytopes.facet_enumeration", "polytopes.vertex_enumeration"):
        put(f"{enum}.self_ms", _median_ms(passes, enum, "self_ns", clock), "ms")
        put(f"{enum}.subsets", _median(passes, enum, "subsets"), "count")
        put(f"{enum}.useful_ratio", _ratio(passes, enum, "found", enum, "subsets"), "ratio")
    for name in (
        "polytopes.is_bounded",
        "theory_io.load_theory",
        "solver.verify_transformation",
        "mub.is_mutually_unbiased",
        "restriction.classify_restriction",
        "theory_io.render_json",
    ):
        put(f"{name}.self_ms", _median_ms(passes, name, "self_ns", clock), "ms")
    put("theories.membership.calls", _median(passes, "theories.membership", "calls"), "count")
    css = "restriction.conditional_state_set"
    put(f"{css}.calls", _median(passes, css, "calls"), "count")
    for command in CLI_COMMANDS:
        put(f"cli.main.{command}.ms", _median_ms(passes, f"cli.main.{command}", "total_ns", clock), "ms")
    put(f"{lp}.share", _share(passes, pass_times, [(lp, "total_ns")], clock), "ratio")
    linear_and_assembly = [(sls, "total_ns"), (isp, "self_ns")]
    put("solver.linear_stage_and_assembly.share", _share(passes, pass_times, linear_and_assembly, clock), "ratio")
    enumeration = [("polytopes.facet_enumeration", "total_ns"), ("polytopes.vertex_enumeration", "total_ns")]
    put("polytopes.enumeration.share", _share(passes, pass_times, enumeration, clock), "ratio")
    put("trace.pass_s_ratio", trace_ratio, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gptdyn" / "__init__.py").is_file():
        print(f"error: no gptdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    clock = ProbeClock()
    try:
        workload, setups = _setup(args.workload, args.seed, str(tmp), clock)
        start = time.perf_counter()
        workload.reference()
        reference_s = time.perf_counter() - start

        tracer = Tracer(clock.probes) if args.trace else None
        if tracer:
            untraced = [_run_pass(workload, clock)[0] for _ in range(MIN_PASSES)]
            tracer.install()
        statuses = Counter()
        failures = []
        open_defects = set()
        passes, layer_stats = [], []
        shape = None
        measured = 0.0  # scaled seconds
        while len(passes) < MIN_PASSES or measured < args.seconds:
            timing, records = _run_pass(workload, clock)
            measured += timing.wall * clock.scale_now()
            if tracer:
                layer_stats.append(tracer.take())
            passes.append(timing)
            shape = shape or _shape(records)
            for op, output in records:
                status = op.check(output)
                if status in ("exact", "defect"):
                    statuses[status] += 1
                    if status == "defect":
                        open_defects.add(op.label)
                else:
                    statuses["failed"] += 1
                    failures.append(f"{op.label}: {status}")
            if tracer:
                tracer.take()  # drop the spans of the checks
        if tracer:
            tracer.uninstall()
        clock.probe()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()

    attempted = sum(statuses.values())
    pass_times = [p.scaled(clock) for p in passes]
    op_ms = [dt * 1e3 for p in passes for dt in p.scaled_ops(clock)]
    tail_ms, tail_pct = _tail(op_ms)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "pass_s": pass_times,
        "raw_pass_s": [p.wall for p in passes],
        "probe_ms_median": statistics.median(clock.probes) * 1e3,
        "op_samples": len(op_ms),
        "op_ms_tail_percentile": tail_pct,
        "failed_ratio": statuses["failed"] / attempted,
        "open_known_defects": sorted(open_defects),
        "failures": failures[:5],
        "shape": shape,
        "setup_repeats": SETUP_REPEATS,
        "raw_setup_s": statistics.median(dt for dt, _ in setups),
        "reference_s": reference_s,
    }
    if tracer:
        untraced_s = statistics.median(p.scaled(clock) for p in untraced)
        metrics = _layer_metrics(layer_stats, pass_times, statistics.median(pass_times) / untraced_s, clock)
        report["untraced_pass_s"] = untraced_s
    else:
        metrics = {
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "op_ms_p50": {"value": statistics.median(op_ms), "unit": "ms"},
            "op_ms_tail": {"value": tail_ms, "unit": "ms"},
            "setup_s": {"value": statistics.median(dt * clock.scale(k) for dt, k in setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "exact_ratio": {"value": statuses["exact"] / attempted, "unit": "ratio"},
        }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": statuses["failed"] == 0,
                "attempted": attempted,
                "failed": statuses["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
