"""ridesim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the benchmark imports ``ridesim``
from ``src/`` of that checkout and refuses any other copy. ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` runs
untraced and traced iterations in pairs and reports per-layer self time,
counts and the tracing overhead. The last line of standard output is the
result object; the line before it carries provenance and sample counts.
Outputs, spans and results go to ``perfbench/out/`` (``--tiny`` shrinks
every workload for the smoke test).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def import_checkout_ridesim() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ridesim
    except ImportError as exc:
        sys.exit(f"error: cannot import ridesim from {src}: {exc}")
    if Path(ridesim.__file__).resolve().parent != (src / "ridesim").resolve():
        sys.exit(f"error: ridesim imported from {ridesim.__file__}, not from {src}")


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def provenance() -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ridesim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(ROOT).as_posix().encode())
            source.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": Path("/proc/loadavg").read_text().split()[:3],
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test only)")
    args = parser.parse_args(argv)
    import_checkout_ridesim()
    prov = provenance()  # before any work, so the load average is the start's

    import harness
    from workloads import WORKLOADS, make_plan

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    out = BENCH / "out" / args.workload
    plan = make_plan(args.workload, out / "inputs", args.tiny)
    try:
        if args.trace:
            outcome = harness.trace(plan, args.seed, args.seconds, out,
                                    out / "spans.npz")
            units = harness.PER_LAYER
        else:
            outcome = harness.measure(plan, args.seed, args.seconds, out)
            units = harness.END_TO_END
    except harness.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    tallies = outcome.tallies
    problems: dict[str, int] = {}
    for tally in tallies:
        for problem, count in tally.problems.items():
            problems[problem] = problems.get(problem, 0) + count
    result = {
        "correct": not any(t.incorrect for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "provenance": prov,
              "failures": problems, **outcome.detail}
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
