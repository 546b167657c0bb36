"""Declarative, picklable experiment specifications.

``run_experiment`` takes live :class:`Program` and :class:`Attack` objects,
which hold machine references and guest closures — neither survives a trip
through ``pickle`` to a worker process.  An :class:`ExperimentSpec` instead
names the program and attack by registry key and carries only plain
constructor kwargs, so a sweep point can be shipped to a worker
process, rebuilt there from scratch, and executed with
:func:`run_spec` — producing the exact same result the serial path
would (the simulator is deterministic given the spec's config and seed).

The spec is also the cache identity: :func:`spec_key` hashes the canonical
JSON form of (spec, seed, repro version), so any change to the workload,
the attack parameters, the machine config or the simulator version misses
the cache and re-runs the point.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .. import __version__
from ..attacks import (
    Attack,
    ExceptionFloodAttack,
    InterruptFloodAttack,
    IrqSteerAttack,
    LibraryConstructorAttack,
    LibrarySubstitutionAttack,
    RuntimeLibraryAttack,
    SchedulingAttack,
    ShellAttack,
    SmpDodgeAttack,
    ThrashingAttack,
)
from ..config import MachineConfig, default_config
from ..errors import ConfigError, ReproError
from ..faults import FaultPlan
from ..programs.attackers import make_busyloop, make_fork_attacker
from ..programs.base import Program
from ..programs.workloads import PAPER_PROGRAMS, make_paper_program
from ..timesync import TimeSyncSpec

#: program registry key → factory.  The paper programs go through
#: ``make_paper_program``; the attacker-side programs are addressable too so
#: sweep grids and the scheduling figures can run them standalone.
PROGRAM_FACTORIES: Dict[str, Callable[..., Program]] = {
    **{name: (lambda name: lambda **kw: make_paper_program(name, **kw))(name)
       for name in PAPER_PROGRAMS},
    "fork": make_fork_attacker,
    "busyloop": make_busyloop,
}

#: attack registry key → class.  Keys match the comparison-matrix names.
ATTACK_CLASSES: Dict[str, Callable[..., Attack]] = {
    "shell": ShellAttack,
    "library-ctor": LibraryConstructorAttack,
    "library-subst": LibrarySubstitutionAttack,
    "library-runtime": RuntimeLibraryAttack,
    "scheduling": SchedulingAttack,
    "thrashing": ThrashingAttack,
    "irq-flood": InterruptFloodAttack,
    "fault-flood": ExceptionFloodAttack,
    "smp-dodge": SmpDodgeAttack,
    "irq-steer": IrqSteerAttack,
}


#: Spec field → the identity-neutral plan class its mapping holds.  An
#: empty plan is the same as None everywhere: in the cache key, at parse
#: time and at run time.
PLAN_FIELDS = {"faults": FaultPlan, "timesync": TimeSyncSpec}


class SpecError(ReproError):
    """An :class:`ExperimentSpec` references an unknown program/attack."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One point of a sweep: program × attack × config, all by value.

    ``attack=None`` (or ``"none"``) is the honest-platform control run.
    ``cfg=None`` means :func:`repro.config.default_config`.  ``label`` is
    cosmetic — it names the point in telemetry and reports but is excluded
    from the cache key.
    """

    program: str
    program_kwargs: Mapping[str, Any] = field(default_factory=dict)
    attack: Optional[str] = None
    attack_kwargs: Mapping[str, Any] = field(default_factory=dict)
    cfg: Optional[MachineConfig] = None
    run_attacker_to_completion: Optional[bool] = None
    max_ns: Optional[int] = None
    #: None defers to the process-wide default (set by --check-invariants);
    #: True/False pin the runtime invariant checker on/off for this point.
    check_invariants: Optional[bool] = None
    #: Not None → run the point under the hypervisor: the program becomes
    #: the victim VM's workload, ``attack`` names a VM-level attack
    #: (``"vm-sched"``) instead of a process-level one, and the mapping
    #: carries the hypervisor/scenario knobs
    #: (:data:`repro.virt.experiment.VM_PARAM_KEYS`; ``{}`` for defaults).
    vm: Optional[Mapping[str, Any]] = None
    #: Number of CPUs for this point.  The default of 1 is identity-neutral:
    #: it is popped from the canonical cfg document so every pre-SMP cache
    #: key (and cached result) remains valid.  Values > 1 override
    #: ``cfg.nproc`` and join the identity via the config document.
    nproc: int = 1
    #: Not None → a :meth:`repro.faults.FaultPlan.from_dict` mapping of
    #: deterministic hardware faults (plus the watchdog toggle) for this
    #: point.  An *empty* plan is identical to None — including in the
    #: cache key, so zero-fault results remain bit-compatible with runs
    #: from before the fault layer existed.
    faults: Optional[Mapping[str, Any]] = None
    #: Not None → a :meth:`repro.timesync.TimeSyncSpec.from_dict` mapping
    #: attaching the simulated network time plane (protocol, link, drift,
    #: attack plan, defense toggle) to this point.  An *inert* spec is
    #: identical to None — including in the cache key, so sync-free
    #: results remain bit-compatible with runs from before the time plane
    #: existed.
    timesync: Optional[Mapping[str, Any]] = None
    label: str = ""

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        base = f"{self.program}:{self.attack or 'none'}"
        return f"vm:{base}" if self.vm is not None else base

    def resolved_config(self) -> MachineConfig:
        cfg = self.cfg if self.cfg is not None else default_config()
        if self.nproc != 1 and cfg.nproc != self.nproc:
            cfg = cfg.with_(nproc=self.nproc)
        return cfg

    def build_program(self) -> Program:
        try:
            factory = PROGRAM_FACTORIES[self.program]
        except KeyError:
            raise SpecError(f"unknown program {self.program!r}; "
                            f"have {sorted(PROGRAM_FACTORIES)}") from None
        return factory(**dict(self.program_kwargs))

    def build_attack(self) -> Optional[Attack]:
        if self.attack is None or self.attack == "none":
            return None
        try:
            cls = ATTACK_CLASSES[self.attack]
        except KeyError:
            raise SpecError(f"unknown attack {self.attack!r}; "
                            f"have {sorted(ATTACK_CLASSES)}") from None
        return cls(**dict(self.attack_kwargs))


def _canonical(value: Any) -> Any:
    """Reduce spec fields to a canonical JSON-compatible form (tuples and
    lists collapse to lists; mapping keys are sorted by json.dumps)."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def spec_identity(spec: ExperimentSpec) -> Dict[str, Any]:
    """The JSON document hashed by :func:`spec_key`.

    Includes everything that can change the outcome: the full machine
    config (which carries the RNG seed) and the repro version, per the
    "results are only reusable for the code that produced them" rule.
    ``check_invariants`` is deliberately excluded — the checker observes
    the run without altering it, so results are interchangeable.
    """
    cfg_doc = _canonical(asdict(spec.resolved_config()))
    if cfg_doc.get("nproc") == 1:
        # A single CPU is the pre-SMP machine: drop the field so the
        # document (and hence the cache key) is byte-identical to specs
        # hashed before the SMP layer existed.
        cfg_doc.pop("nproc")
    doc = {
        "program": spec.program,
        "program_kwargs": _canonical(spec.program_kwargs),
        "attack": spec.attack or "none",
        "attack_kwargs": _canonical(spec.attack_kwargs),
        "cfg": cfg_doc,
        "run_attacker_to_completion": spec.run_attacker_to_completion,
        "max_ns": spec.max_ns,
        "vm": _canonical(spec.vm) if spec.vm is not None else None,
        "repro_version": __version__,
    }
    for name, plan_cls in PLAN_FIELDS.items():
        plan = plan_cls.normalize(getattr(spec, name))
        if plan is not None:
            # Only an active plan joins the identity: empty plans hash
            # exactly like the spec document from before the plan existed.
            doc[name] = _canonical(plan.to_dict())
    return doc


def spec_key(spec: ExperimentSpec) -> str:
    """Stable content hash of the spec — the cache key."""
    doc = json.dumps(spec_identity(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


#: Fields a wire-format spec document may carry (``repro serve`` job
#: submissions).  ``cfg`` is restricted to the *simple* top-level machine
#: knobs — nested cost/scheduler/memory sections stay server-side.
SPEC_DOC_FIELDS = frozenset({
    "program", "program_kwargs", "attack", "attack_kwargs", "cfg",
    "run_attacker_to_completion", "max_ns", "check_invariants", "vm",
    "nproc", "faults", "timesync", "label",
})

#: The MachineConfig fields a spec document's ``cfg`` mapping may set.
CFG_DOC_FIELDS = frozenset({
    "cpu_freq_hz", "nproc", "hz", "accounting",
    "process_aware_irq_accounting", "charge_switch_to", "seed",
    "max_time_ns",
})


def spec_from_dict(doc: Mapping[str, Any]) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from an untrusted JSON document.

    The inverse of :func:`spec_identity` for the wire: every field is
    validated (unknown keys, unknown program/attack names and malformed
    configs raise :class:`SpecError`) so a tenant submission can never
    reach :func:`run_spec` malformed.
    """
    if not isinstance(doc, Mapping):
        raise SpecError(f"spec document must be a mapping, got "
                        f"{type(doc).__name__}")
    unknown = set(doc) - SPEC_DOC_FIELDS
    if unknown:
        raise SpecError(f"unknown spec fields {sorted(unknown)}; "
                        f"have {sorted(SPEC_DOC_FIELDS)}")
    if "program" not in doc or not isinstance(doc["program"], str):
        raise SpecError("spec document needs a 'program' name")

    cfg = None
    cfg_doc = doc.get("cfg")
    if cfg_doc is not None:
        if not isinstance(cfg_doc, Mapping):
            raise SpecError("'cfg' must be a mapping of machine knobs")
        bad = set(cfg_doc) - CFG_DOC_FIELDS
        if bad:
            raise SpecError(f"unknown cfg fields {sorted(bad)}; "
                            f"have {sorted(CFG_DOC_FIELDS)}")
        try:
            cfg = default_config(**dict(cfg_doc))
        except (ConfigError, TypeError) as exc:
            raise SpecError(f"bad cfg: {exc}") from None

    attack = doc.get("attack")
    if attack in ("none", ""):
        attack = None
    vm = doc.get("vm")
    if attack is not None and vm is None and attack not in ATTACK_CLASSES:
        raise SpecError(f"unknown attack {attack!r}; "
                        f"have {sorted(ATTACK_CLASSES)}")
    program = doc["program"]
    if vm is None and program not in PROGRAM_FACTORIES:
        raise SpecError(f"unknown program {program!r}; "
                        f"have {sorted(PROGRAM_FACTORIES)}")

    def mapping_field(name):
        value = doc.get(name)
        if value is None:
            return {}
        if not isinstance(value, Mapping):
            raise SpecError(f"{name!r} must be a mapping")
        return dict(value)

    nproc = doc.get("nproc", 1)
    if not isinstance(nproc, int) or isinstance(nproc, bool) or nproc < 1:
        raise SpecError(f"nproc must be a positive integer, got {nproc!r}")
    max_ns = doc.get("max_ns")
    if max_ns is not None and (not isinstance(max_ns, int) or max_ns <= 0):
        raise SpecError(f"max_ns must be a positive integer, got {max_ns!r}")
    plan_docs = {}
    for name, plan_cls in PLAN_FIELDS.items():
        value = doc.get(name)
        if value is None:
            continue
        if not isinstance(value, Mapping):
            raise SpecError(f"{name!r} must be a {plan_cls.__name__} "
                            f"mapping")
        try:
            plan_cls.normalize(value)
        except (ReproError, TypeError, ValueError) as exc:
            raise SpecError(f"bad {name}: {exc}") from None
        plan_docs[name] = dict(value)
    if vm is not None:
        if not isinstance(vm, Mapping):
            raise SpecError("'vm' must be a mapping of hypervisor knobs")
        # Fail at submission, not deep inside a worker thread: mirror the
        # validation run_vm_experiment would do.
        from ..virt.experiment import VM_ATTACK_NAMES, VM_PARAM_KEYS

        bad_vm = set(vm) - VM_PARAM_KEYS
        if bad_vm:
            raise SpecError(f"unknown vm fields {sorted(bad_vm)}; "
                            f"have {sorted(VM_PARAM_KEYS)}")
        if attack is not None and attack not in VM_ATTACK_NAMES:
            raise SpecError(f"unknown vm attack {attack!r}; "
                            f"have {sorted(VM_ATTACK_NAMES)} or 'none'")
        _check_vm_support(nproc, plan_docs.get("timesync"))

    spec = ExperimentSpec(
        program=program,
        program_kwargs=mapping_field("program_kwargs"),
        attack=attack,
        attack_kwargs=mapping_field("attack_kwargs"),
        cfg=cfg,
        run_attacker_to_completion=doc.get("run_attacker_to_completion"),
        max_ns=max_ns,
        check_invariants=doc.get("check_invariants"),
        vm=dict(vm) if vm is not None else None,
        nproc=nproc,
        label=str(doc.get("label", "")),
        **plan_docs,
    )
    # Fail fast on constructor-level garbage (bad program kwargs are only
    # caught at build time otherwise — deep inside a worker thread).
    if vm is None:
        try:
            spec.build_program()
            spec.build_attack()
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad program/attack kwargs: {exc}") from None
    return spec


def _check_vm_support(nproc: int, timesync: Any) -> None:
    """Reject what the hypervisor path cannot run, at parse and run time
    alike.  An inert timesync is no time plane at all, so it passes."""
    if nproc != 1:
        raise SpecError("vm specs do not support nproc > 1 yet; "
                        "the hypervisor multiplexes vCPUs onto one pCPU")
    if TimeSyncSpec.normalize(timesync) is not None:
        raise SpecError("vm specs do not support timesync yet; the "
                        "time plane disciplines the bare-metal host")


def run_spec(spec: ExperimentSpec):
    """Execute one spec on a fresh machine — the worker-side entry point.

    Equivalent to building the program/attack by hand and calling
    :func:`repro.analysis.experiment.run_experiment`; the equivalence suite
    (tests/test_runner_equivalence.py) holds this to field-by-field
    equality.
    """
    from ..analysis.experiment import run_experiment

    kwargs: Dict[str, Any] = {}
    if spec.max_ns is not None:
        kwargs["max_ns"] = spec.max_ns
    if spec.faults is not None:
        kwargs["faults"] = spec.faults
    if spec.vm is not None:
        from ..virt.experiment import run_vm_experiment

        _check_vm_support(spec.nproc, spec.timesync)
        return run_vm_experiment(
            program=spec.program,
            program_kwargs=spec.program_kwargs,
            attack=spec.attack,
            attack_kwargs=spec.attack_kwargs,
            vm=spec.vm,
            cfg=spec.cfg,
            check_invariants=spec.check_invariants,
            **kwargs)
    if spec.timesync is not None:
        kwargs["timesync"] = spec.timesync
    return run_experiment(
        spec.build_program(),
        attack=spec.build_attack(),
        cfg=spec.cfg if spec.nproc == 1 else spec.resolved_config(),
        run_attacker_to_completion=spec.run_attacker_to_completion,
        check_invariants=spec.check_invariants,
        **kwargs)


def grid(programs, attacks, cfg: Optional[MachineConfig] = None,
         **common) -> Tuple[ExperimentSpec, ...]:
    """Cartesian sweep helper: ``programs`` and ``attacks`` are mappings
    name → kwargs; returns one spec per (program, attack) pair."""
    specs = []
    for pname, pkw in programs.items():
        for aname, akw in attacks.items():
            specs.append(ExperimentSpec(
                program=pname, program_kwargs=dict(pkw),
                attack=None if aname == "none" else aname,
                attack_kwargs=dict(akw), cfg=cfg,
                label=f"{pname}:{aname}", **common))
    return tuple(specs)
