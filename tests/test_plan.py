"""The identity-neutral plan protocol every scenario plan shares.

Fault plans, time-sync attack plans, time-plane specs and chaos plans
all normalize the same way: None, an empty mapping and the default
instance are *absent* (None), an active instance passes through as
itself, a mapping builds an equal instance, and an unknown key fails
loudly.  See :mod:`repro.plan`.
"""

import pytest

from repro.chaos import ChaosPlan
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.plan import Plan
from repro.timesync import SyncAttackPlan, TimeSyncSpec

ACTIVE = [
    FaultPlan(tick_loss_prob=0.1, tick_cpu=1),
    SyncAttackPlan(delay_asymmetry_ns=2_000),
    TimeSyncSpec(attack=SyncAttackPlan(loss_prob=0.5), drift_ppb=10),
    ChaosPlan(store_error_prob=0.1, down_shards=(1,)),
]


@pytest.mark.parametrize("active", ACTIVE,
                         ids=[type(p).__name__ for p in ACTIVE])
def test_plan_protocol(active):
    cls = type(active)
    assert isinstance(active, Plan)
    assert cls.normalize(None) is None
    assert cls.normalize({}) is None
    assert cls.normalize(cls()) is None
    assert cls.normalize(active) is active
    assert cls.normalize(active.to_dict()) == active
    assert cls.from_dict(active.to_dict()) == active
    with pytest.raises(ConfigError, match=f"{cls.__name__}.*bogus_knob"):
        cls.normalize({"bogus_knob": 1})
