"""grmcodes benchmark: time and check the verification workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload hermitian-mds --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the case list runs in a closed loop (one case after the
next, one process, no threads), in the order the seed shuffles, for as many
passes as fit in ``--seconds`` at the workload's nominal pass time; every
case's output is checked against the paper's closed forms.  The last line
printed is the result: ``{"correct", "attempted", "failed", "metrics"}``
with every end-to-end metric.  With ``--trace 1`` it runs the case list once untraced and twice
traced (the second time in reverse order), requires the two traced runs to
give identical work counts, and reports the per-layer metrics instead.
The line before the result describes the run environment.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
# nominal seconds per pass (initial commit, 2 vCPUs); a run makes
# max(1, seconds // this) passes, so the pass count does not depend on how
# fast the host happens to be and both sides of a comparison do the same work
PASS_SECONDS = {"hermitian-mds": 22, "grm-css-sweep": 7, "puncture-build": 13}

# layers each workload is meant to exercise; a traced run in which one of
# them made no call has lost a binding and fails
REQUIRED_LAYERS = {
    "hermitian-mds": (
        "gf.matmul", "grm.build_grm", "lincode.rref", "lincode.kernel_basis",
        "lincode.support_search", "lincode.distance", "lincode.span", "lincode.reduce",
        "lincode.algebra", "qcode", "puncture.pcode", "puncture.witness",
        "puncture.materialize",
    ),
    "grm-css-sweep": (
        "grm.build_grm", "lincode.rref", "lincode.kernel_basis", "lincode.distance",
        "lincode.span", "lincode.min_weight", "lincode.algebra", "qcode", "cli",
    ),
    "puncture-build": (
        "gf.matmul", "grm.build_grm", "lincode.rref", "lincode.kernel_basis",
        "lincode.span", "lincode.reduce", "lincode.algebra", "qcode", "puncture.pcode",
        "puncture.witness", "puncture.materialize", "cli",
    ),
}


@dataclass
class Pass:
    """One run through the case list."""

    times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    exact: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(cases) -> Pass:
    """Run the cases in the given order; time each run, check it untimed."""
    out = Pass()
    for case in cases:
        out.attempted += case.ops
        t0 = time.perf_counter()
        try:
            result = case.run()
        except Exception:  # a raising case is a failed operation, not a crash
            out.times.append(time.perf_counter() - t0)
            out.failed += case.ops
            print(f"case {case.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        out.times.append(time.perf_counter() - t0)
        try:
            outcome = case.check(result)
        except Exception:
            print(f"check of {case.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            out.failed += case.ops
            continue
        if outcome.failed:
            print(f"case {case.label}: {outcome.failed} operation(s) failed the check", file=sys.stderr)
        out.failed += outcome.failed
        out.exact.extend(outcome.exact)
    return out


def measure_setup() -> tuple[float, float]:
    """Medians of (set-up, table-building) time over fresh processes."""
    setup, tables = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(probe["setup_s"])
        tables.append(probe["tables_s"])
    return statistics.median(setup), statistics.median(tables)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    # the ceiling stops git from reporting an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, cap: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg": os.getloadavg(),
        "commit": git_commit(),
        "cap": cap,
    }


def warm_up() -> None:
    """Build every table and touch the numpy paths before anything is timed."""
    import grmcodes
    from grmcodes import gf
    from setup_probe import build_tables

    build_tables(gf)
    grmcodes.mds_chain(3, 1)


def untraced(cases, rng, count: int, setup: tuple[float, float]) -> tuple[dict, list, dict, list]:
    passes = []
    for _ in range(count):
        order = list(cases)
        rng.shuffle(order)
        passes.append(run_pass(order))
    records = sum(len(p.exact) for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "case_max_s": (statistics.median(max(p.times) for p in passes), "s"),
        "exact_fraction": (sum(sum(p.exact) for p in passes) / records if records else 0.0, "fraction"),
        "ok_fraction": ((attempted - failed) / attempted, "fraction"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"passes": len(passes), "pass_wall_s": [p.wall for p in passes]}
    return metrics, passes, detail, []


def traced(cases, rng, workload: str, setup: tuple[float, float]) -> tuple[dict, list, dict, list]:
    from tracer import LAYERS, Tracer

    order = list(cases)
    rng.shuffle(order)
    plain = run_pass(order)
    with Tracer() as first:
        traced_pass = run_pass(order)
    with Tracer() as second:
        repeat = run_pass(order[::-1])

    problems = []
    a, b = first.counts(), second.counts()
    for key in sorted(a.keys() | b.keys()):
        if a.get(key, 0) != b.get(key, 0):
            problems.append(f"count {key} differs between traced runs: {a.get(key, 0)} != {b.get(key, 0)}")
    for layer in REQUIRED_LAYERS[workload]:
        if first.layer_calls(layer) == 0:
            problems.append(f"layer {layer} recorded no calls")

    metrics = first.metrics()
    metrics["gf.tables_s"] = (setup[1], "s")
    metrics["trace.overhead_s"] = (traced_pass.wall - plain.wall, "s")
    total_self = sum(first.layer_self_s(layer) for layer in LAYERS) or 1.0
    detail = {
        "untraced_wall_s": plain.wall,
        "traced_wall_s": [traced_pass.wall, repeat.wall],
        "self_share": {
            layer: round(first.layer_self_s(layer) / total_self, 4)
            for layer in sorted(LAYERS, key=first.layer_self_s, reverse=True)
        },
        "counts": a,
        "unbound": sorted(first.unbound),
    }
    return metrics, [plain, traced_pass, repeat], detail, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "grmcodes" / "__init__.py").is_file():
        print(f"error: no grmcodes sources under {SRC}", file=sys.stderr)
        return 2
    # reports depend on the cap; pin it to the library default
    os.environ.pop("GRMCODES_CAP", None)
    sys.path.insert(0, str(SRC))
    import grmcodes

    if Path(grmcodes.__file__).resolve().parent != SRC / "grmcodes":
        print(f"error: imported grmcodes from {grmcodes.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    env = environment(args, grmcodes.DEFAULT_CAP)
    setup = measure_setup()
    warm_up()
    cases = workloads.WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    if args.trace:
        metrics, passes, detail, problems = traced(cases, rng, args.workload, setup)
    else:
        count = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
        metrics, passes, detail, problems = untraced(cases, rng, count, setup)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    print(json.dumps({"env": env, **detail}))
    correct = failed == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
