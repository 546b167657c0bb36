"""``repro serve --selftest`` reports the same request counts however
long each simulated job takes, so its ``/metrics`` text is a reproducible
CI artifact."""

import re
import time

from repro.runner.specs import run_spec
from repro.serve import selftest
from repro.serve.service import MeteringService

GETS_OK = re.compile(
    r'^repro_serve_http_requests_total\{code="200",method="GET"\} (\d+)$',
    re.MULTILINE)


def _ok_gets(db) -> int:
    report = selftest.run_selftest(str(db), scale=0.05, quiet=True)
    assert report["passed"], [c for c in report["checks"]
                              if not c["passed"]]
    return int(GETS_OK.search(report["metrics"]).group(1))


def test_request_counts_do_not_depend_on_job_duration(tmp_path,
                                                      monkeypatch):
    undelayed = _ok_gets(tmp_path / "undelayed.db")

    def slow_run(spec):
        time.sleep(0.2)
        return run_spec(spec)

    monkeypatch.setattr(
        selftest, "MeteringService",
        lambda store, jobs: MeteringService(store, jobs=jobs, run=slow_run))
    assert _ok_gets(tmp_path / "delayed.db") == undelayed
