"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off.  With ``--trace 1`` the timed phase runs twice, untraced then traced,
and the metrics are the per-layer ones; the spans are written to
``perfbench/out/``.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("figures", "fleet_warm", "serve_mixed")

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # A terminated run still closes its workload: server, store, temp dirs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_before = os.getloadavg()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro
        import workloads
        from metrics import end_to_end, per_layer, samples
        from tracing import Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    import_s = time.perf_counter() - STARTED

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tracer: Optional[Tracer] = None
    try:
        setup_samples = workload.setup()
        setup_s = import_s + statistics.median(setup_samples)
        plain = workload.measure(args.seconds)
        phases = [plain]
        if args.trace:
            tracer = Tracer()
            workloads.install_layers(tracer)
            workload.instrument(tracer)
            try:
                phases.append(workload.measure(args.seconds))
            finally:
                tracer.uninstall()
                workload.instrument(None)
        checks = [(f"{p}: no failed operations", phase.failed == 0,
                   f"{phase.failed}/{phase.attempted} failed")
                  for p, phase in zip(("untraced", "traced"), phases)]
        checks += workload.checks()
        provenance = workload.provenance()
    finally:
        workload.close()

    if args.trace:
        metrics = per_layer(plain, phases[1], tracer)
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
    else:
        metrics = end_to_end(plain, setup_s)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    correct = failed == 0 and all(ok for _name, ok, _detail in checks)

    report = {
        "schema": "perfbench-report-v1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "repro_version": repro.__version__,
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "affinity_count": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            **provenance,
        },
        "setup_samples_s": setup_samples,
        "import_s": import_s,
        "samples": [samples(phase) for phase in phases],
        "latency_ms": [phase.latency_ms for phase in phases],
        "checks": [{"name": n, "passed": ok, "detail": d}
                   for n, ok, d in checks],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report_path = os.path.join(
        OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({detail})")
    print(f"samples: {json.dumps(report['samples'])}")
    print(f"provenance: {json.dumps(report['provenance'], sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:<40} {value['value']:>16.6f} {value['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
