"""Deterministic expansion of a :class:`FleetSpec` into experiment specs.

:func:`expand_fleet` walks the population host by host, drawing each
host's fate from its own seeded RNG stream (``fleet:<seed>:host:<i>``, so
host 17 of a 10k-host fleet is the same host in an 8-host prefix sweep),
and yields one :class:`FleetUnit` per metered guest slot.

The simulator is deterministic given a spec, so a population drawn from
finite mixes collapses to a *small* number of distinct spec identities no
matter how many hosts it covers — :func:`distinct_units` folds the
expansion stream into (unit, multiplicity) groups keyed by
:func:`~repro.runner.specs.spec_key`.  That is the trick that makes a
10k-host sweep tractable: run each distinct identity once, weight its
contribution by how many guests drew it.  Peak memory is bounded by the
mix cross-product, never by the host count.

Identity costs O(distinct draws), not O(slots): a slot's spec is a pure
function of its :class:`Draw` (plus fleet-wide constants), so
:func:`distinct_units` makes only the draw per slot and builds and
hashes a spec once per distinct draw.  What remains per host is seeding
its RNG stream and drawing from it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from ..errors import ReproError
from ..runner.specs import ExperimentSpec, spec_key
from .spec import FleetSpec


def check_host_range(fleet: FleetSpec,
                     host_range: Optional[Tuple[int, int]]
                     ) -> Optional[Tuple[int, int]]:
    """Validate a ``[lo, hi)`` host restriction against the fleet.

    ``None`` means the whole fleet and is passed through untouched — the
    unsharded paths never see a range at all, which is what keeps them
    byte-identical to the pre-sharding code.  An empty range (``lo ==
    hi``) is legal: it is the zero-coverage seed a shard merge starts
    from.
    """
    if host_range is None:
        return None
    try:
        lo, hi = int(host_range[0]), int(host_range[1])
    except (TypeError, ValueError, IndexError):
        raise ReproError(f"host_range must be a [lo, hi) pair, "
                         f"got {host_range!r}") from None
    if not 0 <= lo <= hi <= fleet.hosts:
        raise ReproError(f"host_range {[lo, hi]} out of bounds for a "
                         f"{fleet.hosts}-host fleet")
    return (lo, hi)

#: Process-level attack mounted on attacked bare-metal hosts (the paper's
#: §IV-B1 priority/fork scheduling attack); forks scale with the workload.
BARE_ATTACK = "scheduling"
BARE_ATTACK_NICE = -20
BARE_ATTACK_FORKS = 8_000


@dataclass(frozen=True)
class FleetUnit:
    """One metered guest slot: where it lives and what it runs."""

    host: int
    guest: int
    #: ``"vm"`` (hypervisor host) or ``"bare"`` (bare-metal host).
    kind: str
    workload: str
    #: An attacker is co-resident on this unit's host.
    attacked: bool
    #: Hardware-fault intensity drawn for the host (0.0 = honest).
    intensity: float
    spec: ExperimentSpec
    #: Network sync-attack target offset drawn for the host (0 = no
    #: time plane attached).
    sync_offset_ns: int = 0


def _draw(rng: random.Random, mix: Sequence[Tuple[Any, float]]) -> Any:
    """Weighted draw — one ``rng.random()`` per call, deterministic."""
    total = sum(weight for _, weight in mix)
    x = rng.random() * total
    acc = 0.0
    for value, weight in mix:
        acc += weight
        if x < acc:
            return value
    return mix[-1][0]


def _host_rng(fleet: FleetSpec, host: int) -> random.Random:
    # Seeding from a string hashes it through sha512 (random.seed
    # version 2): stable across processes, platforms and PYTHONHASHSEED.
    return random.Random(f"fleet:{fleet.seed}:host:{host}")


def _sync_active(fleet: FleetSpec) -> bool:
    """True when the sync mix can actually draw a nonzero offset."""
    return any(offset > 0 and weight > 0
               for offset, weight in fleet.sync_mix)


class Draw(NamedTuple):
    """Everything one guest slot draws that reaches its spec.

    Together with the fleet-wide constants bound by :func:`_spec_builder`
    a draw fixes the slot's spec up to the cosmetic label, so equal draws
    share one spec identity and need hashing only once.  Draws that
    cannot reach the spec are pinned (``nproc`` 1 on hypervisor hosts,
    ``burn`` 0.0 unless an attacked hypervisor host), so distinct draws
    track distinct identities.
    """

    kind: str
    workload: str
    attacked: bool
    nproc: int
    intensity: float
    burn: float
    sync_offset_ns: int


def _walk(fleet: FleetSpec, host_range: Optional[Tuple[int, int]]
          ) -> Iterator[Tuple[int, int, Draw]]:
    """(host, guest, draw) for every slot of ``host_range``, in order."""
    sync_active = _sync_active(fleet)
    host_range = check_host_range(fleet, host_range)
    lo, hi = host_range if host_range is not None else (0, fleet.hosts)
    for host in range(lo, hi):
        rng = _host_rng(fleet, host)
        attacked = rng.random() < fleet.prevalence
        kind = "vm" if rng.random() < fleet.vm_fraction else "bare"
        nproc = _draw(rng, fleet.nproc_mix)
        intensity = float(_draw(rng, fleet.fault_mix))
        burn = float(_draw(rng, fleet.burn_mix))
        # Pin what cannot reach the spec, so equal specs come from equal
        # draws: a hypervisor host runs on one pCPU, and only an attacked
        # hypervisor host burns ticks.
        if kind == "vm":
            nproc = 1
        if kind != "vm" or not attacked:
            burn = 0.0
        sync_offset = 0
        if sync_active and kind == "bare":
            sync_rng = random.Random(f"fleet:{fleet.seed}:host:{host}:sync")
            sync_offset = int(_draw(sync_rng, fleet.sync_mix))
        for guest in range(fleet.guests):
            workload = _draw(rng, fleet.workload_mix)
            yield host, guest, Draw(kind, workload, attacked, nproc,
                                    intensity, burn, sync_offset)


def _spec_builder(fleet: FleetSpec) -> Callable[[Draw, str], ExperimentSpec]:
    """Bind the fleet-wide constants and return the slot-spec function:
    a pure function of a slot's :class:`Draw` and its label.  Fault-plan
    and time-plane documents are pure functions of the drawn value, so
    each is built once per value and shared by every slot that drew it."""
    from ..analysis.figures import paper_workload_params
    from ..faults import sweep_plan
    from ..timesync import sweep_timesync

    workload_params = paper_workload_params(fleet.scale)
    forks = max(1, int(BARE_ATTACK_FORKS * fleet.scale))

    @functools.lru_cache(maxsize=None)
    def fault_doc(intensity: float) -> Optional[Dict[str, Any]]:
        return (sweep_plan(intensity, watchdog=True).to_dict()
                if intensity > 0 else None)

    @functools.lru_cache(maxsize=None)
    def sync_doc(offset: int) -> Optional[Dict[str, Any]]:
        return sweep_timesync(offset).to_dict() if offset > 0 else None

    def build(draw: Draw, label: str) -> ExperimentSpec:
        kwargs = dict(workload_params[draw.workload])
        faults = fault_doc(draw.intensity)
        if draw.kind == "vm":
            return ExperimentSpec(
                program=draw.workload, program_kwargs=kwargs,
                attack="vm-sched" if draw.attacked else None,
                attack_kwargs=({"burn_fraction": draw.burn}
                               if draw.attacked else {}),
                vm={}, faults=faults, label=label)
        return ExperimentSpec(
            program=draw.workload, program_kwargs=kwargs,
            attack=BARE_ATTACK if draw.attacked else None,
            attack_kwargs=({"nice": BARE_ATTACK_NICE, "forks": forks}
                           if draw.attacked else {}),
            nproc=draw.nproc, faults=faults,
            timesync=sync_doc(draw.sync_offset_ns), label=label)

    return build


def _unit(host: int, guest: int, draw: Draw,
          spec: ExperimentSpec) -> FleetUnit:
    return FleetUnit(host=host, guest=guest, kind=draw.kind,
                     workload=draw.workload, attacked=draw.attacked,
                     intensity=draw.intensity, spec=spec,
                     sync_offset_ns=draw.sync_offset_ns)


def expand_fleet(fleet: FleetSpec,
                 host_range: Optional[Tuple[int, int]] = None
                 ) -> Iterator[FleetUnit]:
    """Yield every guest slot of the population, in (host, guest) order.

    ``host_range`` restricts the walk to hosts ``[lo, hi)``.  Per-host
    draws come from each host's *own* seeded stream, so a restricted
    expansion yields exactly the same units those hosts produce in the
    full walk — shards of one fleet are prefix-stable by construction.

    A generator on purpose: expansion is O(1) memory regardless of the
    host count.  Draw order per host is fixed (attacked, kind, nproc,
    intensity, burn, then one workload per guest) so adding a mix never
    reshuffles the draws of unrelated dimensions.  The sync-attack
    offset draws from its own derived stream
    (``fleet:<seed>:host:<i>:sync``) — and only when the mix can draw a
    nonzero offset — so arming the time plane changes *which hosts are
    sync-attacked* without reshuffling who is attacked, what anyone
    runs, or any all-zero-mix population.
    """
    build = _spec_builder(fleet)
    for host, guest, draw in _walk(fleet, host_range):
        sync = draw.sync_offset_ns
        label = (f"fleet:h{host}:g{guest}:{draw.kind}:{draw.workload}"
                 f"{':attacked' if draw.attacked else ''}"
                 f"{f':sync={sync}' if sync else ''}")
        yield _unit(host, guest, draw, build(draw, label))


@dataclass(frozen=True)
class UnitGroup:
    """All guest slots sharing one spec identity."""

    key: str
    unit: FleetUnit  # the first-seen representative
    weight: int      # guest slots drawing this identity


def distinct_units(fleet: FleetSpec,
                   host_range: Optional[Tuple[int, int]] = None
                   ) -> List[UnitGroup]:
    """Fold the expansion stream into distinct-identity groups.

    Equal to grouping every unit of :func:`expand_fleet` by ``spec_key``,
    but each distinct draw is built and hashed once: per slot only the
    draw itself is made.  First-seen order, so the downstream
    run/aggregate order is a pure function of the fleet spec (and host
    range, when sharded).  The representative keeps the first unit's
    host/guest coordinates; its label is rewritten to carry the group's
    weight instead, since it now stands for many slots.
    """
    build = _spec_builder(fleet)
    keys: Dict[Draw, str] = {}
    first: Dict[str, Tuple[int, int, Draw]] = {}
    weights: Dict[str, int] = {}
    for host, guest, draw in _walk(fleet, host_range):
        key = keys.get(draw)
        if key is None:
            key = keys[draw] = spec_key(build(draw, ""))
        if key in weights:
            weights[key] += 1
        else:
            weights[key] = 1
            first[key] = (host, guest, draw)
    result: List[UnitGroup] = []
    for key, (host, guest, draw) in first.items():
        weight, sync = weights[key], draw.sync_offset_ns
        label = (f"fleet:{draw.kind}:{draw.workload}"
                 f"{':attacked' if draw.attacked else ''}"
                 f"{f':i={draw.intensity}' if draw.intensity else ''}"
                 f"{f':sync={sync}' if sync else ''}"
                 f":x{weight}")
        result.append(UnitGroup(key=key, weight=weight,
                                unit=_unit(host, guest, draw,
                                           build(draw, label))))
    return result
