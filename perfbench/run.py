"""tnsc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid-churn --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; tnsc is imported from its ``src``
directory. The run reproduces the golden report before timing anything,
checks every output it produces, prints each metric with its unit and sample
count, writes the full result (and, when traced, the spans) under
``.bench_out/``, and ends with one JSON line. It exits 1 when an output
check failed and 2 when the checkout lacks the sources or the golden files.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("grid-churn", "failover-storm", "score-table")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_checkout() -> None:
    """Make ``import tnsc`` resolve to this checkout's sources, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tnsc
    except ImportError as err:
        print(f"perfbench: cannot import tnsc from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        sys.exit(2)
    if Path(tnsc.__file__).resolve().parent != ROOT / "src" / "tnsc":
        print(f"perfbench: tnsc resolved to {tnsc.__file__}, not this checkout",
              file=sys.stderr)
        sys.exit(2)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    import_checkout()
    import drive
    import workloads

    try:
        golden_ok = drive.check_golden(ROOT)
    except OSError as err:
        print(f"perfbench: golden scenario unreadable: {err}", file=sys.stderr)
        return 2

    info = machine(args)
    print("# " + " ".join(f"{key}={value}" for key, value in info.items()))
    tally = workloads.Tally()
    tally.check(golden_ok, "driver loop does not reproduce the golden report")
    print(f"# golden report: {'reproduced' if golden_ok else 'DIFFERS'}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.make_workload(args.workload, args.seed,
                                       OUT_DIR / f"tmp-{stem}-{os.getpid()}")
    try:
        if args.trace:
            result = workloads.measure_traced(workload, args.seconds, tally)
        else:
            result = workloads.measure(workload, args.seconds, tally)
    finally:
        workload.close()

    if args.trace:
        spans_path = OUT_DIR / f"{stem}.spans.jsonl.gz"
        result.pop("tracer").write(spans_path)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
        for name, (value, unit) in result["layers"].items():
            print(f"{name:45s} {value:14.6g} {unit}")
        print(f"# spans: {spans_path.relative_to(ROOT)}")
    else:
        rss = peak_rss_mib()
        named = dict(result["named"])
        named["peak_rss_mib"] = (rss, "MiB", 1)
        named["ops_failed_ratio"] = (tally.failed / max(tally.attempted, 1), "ratio",
                                     f"{tally.failed}/{tally.attempted}")
        print(f"{'metric':18s} {'value':>14s} {'unit':6s} samples")
        for name, (value, unit, samples) in named.items():
            print(f"{name:18s} {value:14.6g} {unit:6s} {samples}")
        gated = dict(result["gated"], peak_rss_mib=(rss, "MiB"))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in gated.items()}
        result["named"] = {name: {"value": v, "unit": u, "samples": n}
                           for name, (v, u, n) in named.items()}
    print(f"# output sha256: {result['digest']}")
    for problem in tally.problems[:20]:
        print(f"# FAILED CHECK: {problem}")

    correct = tally.failed == 0
    line = {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}
    record = {"machine": info, "result": line, "problems": tally.problems,
              **{key: value for key, value in result.items() if key != "layers"}}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
