"""Small result records shared by the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a batch of related checks.

    ``checks`` counts the individual assertions performed; ``failures`` holds
    one human-readable line per failed assertion (empty when ``passed``).
    ``params`` holds the bounds a check ran at when the check states them
    itself, such as the ``weight_max`` of a member-by-member check; it is
    empty for a report that ran at the parameters of the command.
    """

    name: str
    passed: bool
    checks: int
    failures: tuple[str, ...] = field(default=())
    params: Mapping[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": list(self.failures),
            "params": dict(self.params),
        }
