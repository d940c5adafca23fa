"""Witness-reporting validation results.

Every validator in this package returns a Report rather than a bare
boolean: each named check carries the first few concrete witnesses of a
violation, so user-supplied structure constants can be debugged.

Every exact identity is checked through `Report.identity(name, cases)`:
it opens the check `name` and walks a lazily generated stream of cases.  A
case is data, `(template, args, kind, operands)`: `kind(*operands)` computes
its two sides, and `template.format(*args)` is its label.  A validator is
then the list of its identities, each written once as a generator over its
index space; shapes and ranges are checked when objects are built, so no
validator opens a check by hand.  A case whose sides are values already
passes them as the operands of the kind `given`; so does `Report.settle`,
which records a verdict that is not an identity of two sides.

`identity` decides each distinct (kind, operands) once per call: the key is
the kind and the operands' values, and a later case with an equal key reuses
the verdict instead of computing its sides again.  The key is sound because a
kind's sides depend on its operands' values only, and every operand the
validators pass is an immutable value (a `Matrix`, a `Field`, a tuple, an int
or a bool) that compares and hashes by value; a `Matrix` has one canonical
(nz, den), so equal maps are equal keys however they were built.  Only the
verdict is kept, not the sides, and the keys go when the call returns.
`violations` counts every failing case, reused or not, in the order of the
stream, and a label is formatted only for the first WITNESS_CAP failing
cases, the witnesses a check keeps.

Where a boolean predicate is also needed (is_grouplike, is_integral), it
is its report's `.ok`.
"""

from __future__ import annotations

from collections.abc import Iterable

from .record import Record

WITNESS_CAP = 10


def given(lhs, rhs):
    """The kind of a case whose two sides are its operands."""
    return lhs, rhs


class _Verdicts(dict):
    """The verdict of each (kind, operands) key, by value, decided in one identity call."""


class Check(Record, eq=True, frozen=False):
    __slots__ = ("name", "witnesses", "violations")  # the first WITNESS_CAP witnesses
    _defaults = {"witnesses": list, "violations": int}

    @property
    def ok(self) -> bool:
        return self.violations == 0


class Report(Record, eq=True, frozen=False):
    __slots__ = ("title", "checks")
    _defaults = {"checks": list}

    def check(self, name: str) -> Check:
        c = Check(name)
        self.checks.append(c)
        return c

    def identity(self, name: str, cases: Iterable[tuple]) -> None:
        """Open check `name`; count each (template, args, kind, operands) case whose sides
        differ, deciding each distinct (kind, operands) once, and keep the labels of the
        first WITNESS_CAP of them."""
        c = self.check(name)
        witnesses, violations = c.witnesses, 0
        verdicts = _Verdicts()
        verdict = verdicts.get
        for template, args, kind, operands in cases:
            key = (kind, operands)
            ok = verdict(key)
            if ok is None:
                lhs, rhs = kind(*operands)
                ok = verdicts[key] = lhs == rhs
            if not ok:
                violations += 1
                if len(witnesses) < WITNESS_CAP:
                    witnesses.append(template.format(*args))
        c.violations = violations

    def settle(self, name: str, ok: bool, witness: str = "") -> None:
        self.identity(name, [("{}", (witness or name,), given, (ok, True))])

    def merge(self, other: "Report") -> None:
        for c in other.checks:
            sub = Check(f"{other.title}: {c.name}", list(c.witnesses), c.violations)
            self.checks.append(sub)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)
