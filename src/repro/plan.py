"""The identity-neutral plan protocol shared by every scenario plan.

Fault plans, time-sync attack plans, time-plane specs and chaos plans all
reach the simulator (or the serving plane) as frozen, plain-data
dataclasses, and all obey one rule: an *empty* plan — one that would
change nothing — is absent.  :meth:`Plan.normalize` collapses it to None,
so the spec key, the result document and the serving path of a run with
an empty plan are byte-identical to those of a run with no plan at all.

A subclass supplies ``is_empty()``, its own validation in
``__post_init__`` and any real format quirk; the mapping round trip, the
unknown-key check and the empty-to-None collapse live here, once.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, Mapping, Optional, Type, TypeVar

from .errors import ConfigError

P = TypeVar("P", bound="Plan")


class Plan:
    """Mixin for a frozen dataclass whose empty value is an identity."""

    def is_empty(self) -> bool:
        """True when the plan would change nothing about a run."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Full plain-data form: every field, defaults included, tuples as
        lists and nested plans as their own documents."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls: Type[P], doc: Mapping[str, Any]) -> P:
        """Inverse of :meth:`to_dict`; unknown keys fail loudly so a typo
        in a spec never silently runs without the plan it meant."""
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} field(s) "
                              f"{sorted(unknown)}; have {sorted(known)}")
        return cls(**doc)

    @classmethod
    def normalize(cls: Type[P], value: Any) -> Optional[P]:
        """Coerce None, a mapping or an instance to an *active* plan, or
        to None when the plan is empty."""
        if value is None:
            return None
        plan = value if isinstance(value, cls) else cls.from_dict(value)
        return None if plan.is_empty() else plan


def _plain(value: Any) -> Any:
    if isinstance(value, Plan):
        return value.to_dict()
    if isinstance(value, tuple):
        return list(value)
    return value
