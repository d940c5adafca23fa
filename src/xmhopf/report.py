"""Witness-reporting validation results.

Every validator in this package returns a Report rather than a bare
boolean: each named check carries the first few concrete witnesses of a
violation, so user-supplied structure constants can be debugged.

Every exact identity is checked through `Report.identity(name, cases)`:
it opens the check `name` and walks a lazily generated stream of
(label, lhs, rhs) cases, recording the label of each case whose sides
differ.  A validator is then the list of its identities, each written once
as a generator over its index space; shapes and ranges are checked when
objects are built, so no validator opens a check by hand.  A verdict that
is not an identity of two sides is recorded by `Report.settle`.

Where a boolean predicate is also needed (is_grouplike, is_integral), it
is its report's `.ok`.
"""

from __future__ import annotations

from collections.abc import Iterable

from .record import Record

WITNESS_CAP = 10


class Check(Record, eq=True, frozen=False):
    __slots__ = ("name", "witnesses", "violations")  # the first WITNESS_CAP witnesses
    _defaults = {"witnesses": list, "violations": int}

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def add(self, witness: str) -> None:
        self.violations += 1
        if len(self.witnesses) < WITNESS_CAP:
            self.witnesses.append(witness)


class Report(Record, eq=True, frozen=False):
    __slots__ = ("title", "checks")
    _defaults = {"checks": list}

    def check(self, name: str) -> Check:
        c = Check(name)
        self.checks.append(c)
        return c

    def identity(self, name: str, cases: Iterable[tuple[str, object, object]]) -> None:
        """Open check `name`; record the label of each (label, lhs, rhs) case with lhs != rhs."""
        c = self.check(name)
        for label, lhs, rhs in cases:
            if lhs != rhs:
                c.add(label)

    def settle(self, name: str, ok: bool, witness: str = "") -> None:
        c = self.check(name)
        if not ok:
            c.add(witness or name)

    def merge(self, other: "Report") -> None:
        for c in other.checks:
            sub = Check(f"{other.title}: {c.name}", list(c.witnesses), c.violations)
            self.checks.append(sub)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)
