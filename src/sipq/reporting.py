"""The report record of the verification routines, and the one way to build it.

Every check report comes from :func:`build_report`:
- each check is one outcome, the check's failure lines, empty when it held;
- an arithmetic error (:class:`~sipq.series.SeriesError`) raised while the
  checks run fails only its own report, as that report's last failure line,
  and the report counts only the checks that ran before it;
- so ``verify --all`` always prints every report;
- parameter errors (``ValueError``, or :class:`~sipq.qseries.DomainError` for
  a summation check) still raise to the caller: each routine validates its
  parameters before it builds its outcomes.

Like every record in the package, :class:`CheckReport` is a
``typing.NamedTuple``, not a dataclass: it is immutable, and importing the
package loads neither the dataclass module nor ``inspect``, which would cost
each CLI call more start-up time than a small check takes.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .series import SeriesError


class CheckReport(NamedTuple):
    """Outcome of a batch of related checks.

    ``checks`` counts the checks that ran; ``failures`` holds their
    human-readable failure lines (empty when ``passed``).
    ``params`` holds every bound the report ran at other than the
    truncation, set by the routine that built it: the size of a table or a
    summation, or the ``weight_max`` of a member-by-member check.  A report
    that runs at the truncation alone has empty ``params``.
    """

    name: str
    passed: bool
    checks: int
    failures: tuple[str, ...] = ()
    params: Mapping[str, int] = MappingProxyType({})

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": list(self.failures),
            "params": dict(self.params),
        }


def build_report(
    name: str, outcomes: Iterable[Iterable[str]], params: Mapping[str, int] = MappingProxyType({})
) -> CheckReport:
    """The report of the checks ``outcomes`` yields, one item of failure
    lines per check; a :class:`SeriesError` raised while drawing them ends
    the report as its last failure line."""
    failures: list[str] = []
    checks = 0
    try:
        for lines in outcomes:
            checks += 1
            failures.extend(lines)
    except SeriesError as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    return CheckReport(name, not failures, checks, tuple(failures), params)
