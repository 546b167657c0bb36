"""Timing, reporting and baseline comparison for ``repro bench``.

A benchmark is a :class:`BenchSpec`: a name, a kind (``micro`` or ``e2e``),
a fixed operation count and a callable ``fn(ops)`` that performs that many
operations.  Fixed counts (scaled down by ``--quick``) keep the suite
deterministic in shape and its runtime predictable; the per-op cost is
simply ``wall / ops``.

Reports are JSON documents (schema ``repro-bench-v1``) carrying one entry
per benchmark (ns/op, wall seconds, op count) plus machine/env metadata so
a number can always be traced back to the interpreter and host that
produced it.  :func:`compare_reports` matches benchmarks by name against a
baseline report and flags anything slower than ``(1 + tolerance)`` times
the baseline ns/op — the tolerance is deliberately generous because
wall-clock noise on shared CI runners easily reaches tens of percent.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..analysis import scenario

BENCH_SCHEMA = "repro-bench-v1"

#: Default regression tolerance: a benchmark must be >35% slower than the
#: baseline before it is reported.
DEFAULT_TOLERANCE = 0.35

#: The wall clock every benchmark is timed with (tests substitute a
#: deterministic one).
clock = time.perf_counter


@dataclass
class BenchSpec:
    """One benchmark: ``fn(ops)`` performs ``ops`` operations."""

    name: str
    kind: str  # "micro" | "e2e"
    ops: int
    fn: Callable[[int], None]
    #: Optional human note stored alongside the numbers.
    note: str = ""


@dataclass
class BenchResult:
    """Measured outcome of one :class:`BenchSpec`."""

    name: str
    kind: str
    ops: int
    wall_s: float
    note: str = ""

    @property
    def ns_per_op(self) -> float:
        if self.ops <= 0:
            return 0.0
        return self.wall_s * 1e9 / self.ops

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "ops": self.ops,
            "wall_s": self.wall_s,
            "ns_per_op": self.ns_per_op,
            "note": self.note,
        }


def run_spec(spec: BenchSpec) -> BenchResult:
    """Time one benchmark (a single warm-free shot — cold costs are part
    of what the e2e benches measure, and the micro benches amortise any
    setup inside ``fn`` over their op count)."""
    start = clock()
    spec.fn(spec.ops)
    wall = clock() - start
    return BenchResult(name=spec.name, kind=spec.kind, ops=spec.ops,
                       wall_s=wall, note=spec.note)


def run_suite(quick: bool = False,
              only: Optional[Sequence[str]] = None,
              progress: Optional[Callable[[str], None]] = None,
              ) -> List[BenchResult]:
    """Run the full suite (micro then e2e) and return the results.

    ``only`` filters by substring match on benchmark names — applied
    *before* construction, so a filtered run never pays the setup cost of
    the benchmarks it skips; ``progress`` (when given) receives each
    benchmark name as it starts.
    """
    from .e2e import E2E_BUILDERS
    from .micro import MICRO_BUILDERS

    pairs = list(MICRO_BUILDERS) + list(E2E_BUILDERS)
    if only:
        pairs = [(name, builder) for name, builder in pairs
                 if any(token in name for token in only)]
    results: List[BenchResult] = []
    for name, builder in pairs:
        if progress is not None:
            progress(name)
        results.append(run_spec(builder(quick)))
    return results


def collect_metadata() -> Dict[str, Any]:
    """Machine/env provenance stored in every report."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
    }


def build_report(results: Sequence[BenchResult],
                 quick: bool = False) -> Dict[str, Any]:
    from .. import __version__

    return {
        "schema": BENCH_SCHEMA,
        "created_utc": datetime.datetime.utcnow().replace(
            microsecond=0).isoformat() + "Z",
        "repro_version": __version__,
        "quick": quick,
        "meta": collect_metadata(),
        "benchmarks": [r.to_dict() for r in results],
    }


def write_report(path: Union[str, Path], results: Sequence[BenchResult],
                 quick: bool = False) -> Dict[str, Any]:
    doc = build_report(results, quick=quick)
    scenario.write_report(path, doc)
    return doc


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: not a {BENCH_SCHEMA} report "
            f"(schema={doc.get('schema')!r})")
    return doc


@dataclass
class Regression:
    """One benchmark that got slower than the baseline allows."""

    name: str
    baseline_ns: float
    current_ns: float

    @property
    def ratio(self) -> float:
        if self.baseline_ns <= 0:
            return float("inf")
        return self.current_ns / self.baseline_ns

    def __str__(self) -> str:
        return (f"{self.name}: {self.current_ns:,.0f} ns/op vs baseline "
                f"{self.baseline_ns:,.0f} ns/op ({self.ratio:.2f}x)")


def compare_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                    tolerance: float = DEFAULT_TOLERANCE) -> List[Regression]:
    """Benchmarks in ``current`` slower than baseline by more than
    ``tolerance`` (relative).  Benchmarks present on only one side are
    skipped — suites are allowed to grow."""
    base = {b["name"]: b for b in baseline.get("benchmarks", [])}
    regressions: List[Regression] = []
    for bench in current.get("benchmarks", []):
        ref = base.get(bench["name"])
        if ref is None:
            continue
        base_ns = float(ref.get("ns_per_op", 0.0))
        cur_ns = float(bench.get("ns_per_op", 0.0))
        if base_ns > 0 and cur_ns > base_ns * (1.0 + tolerance):
            regressions.append(Regression(bench["name"], base_ns, cur_ns))
    return regressions


def format_table(results: Sequence[BenchResult]) -> str:
    """A fixed-width results table for terminal output."""
    header = (f"{'benchmark':<32} {'kind':<6} {'ops':>10} "
              f"{'wall (s)':>10} {'ns/op':>14}")
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(f"{r.name:<32} {r.kind:<6} {r.ops:>10,} "
                     f"{r.wall_s:>10.3f} {r.ns_per_op:>14,.0f}")
    return "\n".join(lines)
