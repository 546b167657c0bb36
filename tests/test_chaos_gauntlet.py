"""End-to-end: the ``repro chaos`` gauntlet passes its own checks.

One live run of the quick gauntlet — real daemons, real injected faults,
one deliberately dark shard — pinning the report document's shape and
that every self-check holds.  The unit contracts behind each check live
in test_chaos.py / test_fleet_shard.py / test_serve_chaos.py; this is
the integration seam the CI smoke leg exercises.
"""

import json

from repro.chaos.gauntlet import run_gauntlet

#: The ordered check names of the quick three-shard gauntlet.
CHECK_NAMES = [
    "every live shard completes under chaos",
    "the dark shard fails within its bounded budget",
    "faults were actually injected",
    "client absorbed faults on the way",
    "report declares the coverage gap",
    "coverage arithmetic verifies",
    "shard 0 store: no double billing",
    "shard 1 store: no double billing",
    "shard 0 state bit-identical to chaos-free run",
    "shard 1 state bit-identical to chaos-free run",
    "empty plan normalises to None (identity path)",
    "unsharded fleet key unchanged by the sharding plumbing",
    "fully-covered sharded statistics byte-identical to serial",
]


def test_quick_gauntlet_passes_every_check(tmp_path):
    report = run_gauntlet(str(tmp_path / "dbs"), intensity=0.4, shards=3,
                          seed=2010, quick=True, quiet=True)

    failed = [c for c in report["checks"] if not c["passed"]]
    assert report["passed"] is True, f"failed checks: {failed}"
    assert len(report["checks"]) >= 12

    # The report document is JSON-serialisable and self-describing.
    doc = json.loads(json.dumps(report, sort_keys=True))
    assert set(doc) == {"checks", "command", "coverage", "injected",
                        "intensity", "passed", "plan", "quick", "shards"}
    assert doc["command"] == "chaos"
    assert [c["name"] for c in doc["checks"]] == CHECK_NAMES
    assert doc["quick"] is True
    assert doc["shards"] == 3
    assert doc["plan"]["down_shards"] == [2]

    # Chaos actually happened: faults injected on every live shard, the
    # dark shard declared as a coverage gap rather than papered over.
    assert set(doc["injected"]) == {"shard0", "shard1"}
    assert all(sum(counts.values()) > 0
               for counts in doc["injected"].values())
    assert doc["coverage"]["grade"] == "PARTIAL"
    assert doc["coverage"]["shards_failed"] == 1
    assert doc["coverage"]["hosts_covered"] < doc["coverage"]["hosts_total"]
