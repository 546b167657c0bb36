"""The check list and JSON report every self-checking scenario shares.

Figures, ``repro vm``/``faults``/``timesync``, the serve selftest and the
chaos gauntlet all reach the user the same way: a list of named checks
rendered as ``[PASS]/[FAIL]`` lines, and (with ``--json``) one report
document.  :class:`CheckList` is that list and :func:`write_report` that
document's writer, so every scenario prints and serialises alike.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Union


@dataclass
class Check:
    """One shape assertion, with its observed evidence."""

    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"  [{status}] {self.name} ({self.detail})"


class CheckList(list):
    """An ordered list of :class:`Check`; ``echo`` prints each one as it
    lands (long-running scenarios report progress that way)."""

    def __init__(self, echo: bool = False) -> None:
        super().__init__()
        self.echo = echo

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.append(Check(name, bool(passed), detail))
        if self.echo:
            print(self[-1].render())

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self)

    def render(self) -> str:
        return "\n".join(c.render() for c in self)

    def to_list(self) -> List[Dict[str, Any]]:
        return [asdict(c) for c in self]


def write_report(path: Union[str, Path], doc: Dict[str, Any]) -> None:
    """Write ``doc`` as stable, diffable JSON and say where it went."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {path}")
