"""Small result records shared by the verification routines.

Like every record in the package, :class:`CheckReport` is a
``typing.NamedTuple``, not a dataclass: it is immutable, and importing the
package loads neither the dataclass module nor ``inspect``, which would cost
each CLI call more start-up time than a small check takes.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple


class CheckReport(NamedTuple):
    """Outcome of a batch of related checks.

    ``checks`` counts the individual assertions performed; ``failures`` holds
    one human-readable line per failed assertion (empty when ``passed``).
    ``params`` holds the bounds a check ran at wherever they are not the
    command's parameters, such as the ``weight_max`` of a member-by-member
    check capped below the truncation or the fixed size of a table; it is
    empty exactly when the report ran at the parameters of the command.
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
