"""Report.identity: each distinct (kind, operands) decided once per call, operands compared by
value, labels formatted only for the witnesses a check keeps.

The reuse of a verdict must change no report: every validator runs twice on every fixture,
every mutation and the perturbations of tests/oracles.py, once as written and once with the
verdict map replaced by one that never finds a key, and the two runs must give the same
check names, violation counts and witnesses.
"""

import pytest

from tests.conftest import FIXTURES, GF5, QQ
from tests.oracles import (
    conjugated_psi_perturbations,
    oracle_coker_action_on_kernel,
    perturbed_crossed_modules,
    perturbed_modules,
    perturbed_structures,
)
from xmhopf import report
from xmhopf.cli import _pairings
from xmhopf.crossed import validate_components, validate_crossed_module
from xmhopf.docio import parse
from xmhopf.errors import XmhopfError
from xmhopf.groups import validate_group
from xmhopf.hopf import enumerate_grouplikes, grouplike_report, is_pivotal_element
from xmhopf.hopfmod import (
    dual_hopf_module,
    integral_report,
    integral_space,
    regular_hopf_module,
    validate_hopf_xi_module,
    validate_module_premises,
)
from xmhopf.linalg import Matrix
from xmhopf.repcat import dual_zigzag_report, validate_module
from xmhopf.report import WITNESS_CAP, Report, given
from xmhopf.xihopf import dualize, full_validation_report, validate_hopf_xi_algebra

FIXTURE_DOCUMENTS = sorted(FIXTURES.glob("*.json"))
DOCUMENTS = FIXTURE_DOCUMENTS + sorted((FIXTURES / "mutations").glob("mut*.json"))


class NeverHits(dict):
    """A verdict map in which no key is ever found: every case computes its sides."""

    def get(self, key, default=None):
        return default


class Reports(list):
    """The reports of validator calls, or the error a call raised, in call order."""

    def run(self, validator, *args):
        """validator(*args), kept, or None where it raises, and then its error is kept."""
        try:
            rep = validator(*args)
        except XmhopfError as exc:
            self.append((type(exc).__name__, str(exc)))
            return None
        self.append(rep)
        return rep

    def lookup(self, section, name):
        """The entry `name` of a document section, or None where building it raises, and
        then its error is kept."""
        try:
            return section[name]
        except XmhopfError as exc:
            self.append((type(exc).__name__, str(exc)))
            return None


def integrals_and_grouplikes(a):
    """[(side, lambda)] for the integrals of `a` on both sides, and its grouplikes."""
    integrals = [(side, lam) for side in ("left", "right") for lam in integral_space(a, side)]
    return integrals, enumerate_grouplikes(a.base)


def structure_reports(out: Reports, a, integrals, fams, modules=()) -> None:
    """The validators of a Hopf structure `a`, with the candidate integrals and grouplike
    families given, and the zig-zags of each homogeneous module in `modules` with each
    family."""
    out.run(full_validation_report, a)
    out.run(validate_module_premises, a)
    for side, lam in integrals:
        out.run(integral_report, a, lam, side)
    pairings = Report("pairings")
    out.run(_pairings, a, fams, pairings)
    out.append(pairings)
    for fam in fams:
        out.run(grouplike_report, a.base, fam)
        out.run(is_pivotal_element, a.base, fam)
        for m in modules:
            if len(m.support()) == 1:
                out.run(dual_zigzag_report, a, m, fam)


def document_reports(path) -> Reports:
    doc, out = parse(path.read_bytes()), Reports()
    for g in doc.groups.values():
        out.run(validate_group, g)
    for cm in doc.crossed_modules.values():
        out.run(validate_components, cm)
        out.run(validate_crossed_module, cm)
        out.run(oracle_coker_action_on_kernel, cm)
    for name in sorted(doc.hopf):
        a = out.lookup(doc.hopf, name)
        if a is None:
            continue
        modules = [m for over, m in doc.modules.values() if over == name]
        found = out.run(integrals_and_grouplikes, a)
        structure_reports(out, a, *(found or ([], [])), modules)
        out.run(lambda: validate_hopf_xi_module(a, dual_hopf_module(a)))
        out.run(lambda: validate_hopf_xi_algebra(dualize(a)))
        for m in modules:
            out.run(validate_module, a, m)
    for name in sorted(doc.hopf_modules):
        entry = out.lookup(doc.hopf_modules, name)
        if entry is not None:
            out.run(validate_hopf_xi_module, doc.hopf[entry[0]], entry[1])
    for over, fam in doc.grouplikes.values():
        out.run(grouplike_report, doc.hopf[over].base, fam)
    for over, side, fam in doc.integrals.values():
        out.run(integral_report, doc.hopf[over], fam, side)
    return out


def perturbation_reports(path) -> Reports:
    """The validators on every single-entry perturbation of the crossed modules, Hopf
    structures and Hopf modules of one fixture, by the generators of tests/oracles.py; each
    perturbed structure with the integrals and grouplikes of the one it perturbs."""
    doc, out = parse(path.read_bytes()), Reports()
    for cm in doc.crossed_modules.values():
        for _, p in perturbed_crossed_modules(cm):
            out.run(validate_components, p)
            out.run(validate_crossed_module, p)
            out.run(oracle_coker_action_on_kernel, p)
    for name in sorted(doc.hopf):
        a = doc.hopf[name]
        integrals, fams = integrals_and_grouplikes(a)
        for _, p in perturbed_structures(a):
            structure_reports(out, p, integrals, fams)
        modules = [regular_hopf_module(a)]
        modules += [m for over, m in doc.hopf_modules.values() if over == name]
        for m in modules:
            for _, p in [*perturbed_modules(m), *conjugated_psi_perturbations(m)]:
                out.run(validate_hopf_xi_module, a, p)
    return out


def assert_reuse_changes_no_report(monkeypatch, reports, path):
    reused = reports(path)
    assert any(isinstance(r, Report) and r.checks for r in reused)
    monkeypatch.setattr(report, "_Verdicts", NeverHits)
    assert reports(path) == reused


@pytest.mark.parametrize("path", DOCUMENTS, ids=[p.name for p in DOCUMENTS])
def test_a_reused_verdict_changes_no_report_of_a_document(monkeypatch, path):
    assert_reuse_changes_no_report(monkeypatch, document_reports, path)


@pytest.mark.parametrize("path", FIXTURE_DOCUMENTS, ids=[p.name for p in FIXTURE_DOCUMENTS])
def test_a_reused_verdict_changes_no_report_of_a_perturbation(monkeypatch, path):
    assert_reuse_changes_no_report(monkeypatch, perturbation_reports, path)


class Template(str):
    """A label template that records the arguments of each format call."""

    formatted = []

    def format(self, *args):
        Template.formatted.append(args)
        return super().format(*args)


def test_only_the_kept_witnesses_are_formatted_and_every_failing_case_is_counted(monkeypatch):
    decided = []

    def differ(lhs, rhs):
        decided.append((lhs, rhs))
        return lhs, rhs

    monkeypatch.setattr(Template, "formatted", [])
    pairs = [(object(), object()) for _ in range(4)]  # distinct objects: each pair differs
    same = object()
    cases, failing = [], []
    for i in range(25):
        if i % 5 == 4:
            cases.append((Template("case {}"), (i,), differ, (same, same)))
        else:
            cases.append((Template("case {}"), (i,), differ, pairs[i % 4]))
            failing.append(i)
    rep = Report("spy")
    rep.identity("differ", cases)
    (check,) = rep.checks
    assert check.violations == len(failing) == 20 > WITNESS_CAP
    assert Template.formatted == [(i,) for i in failing[:WITNESS_CAP]]
    assert check.witnesses == [f"case {i}" for i in failing[:WITNESS_CAP]]
    assert len(decided) == 5  # each distinct (kind, operands) once
    # case 5 reuses case 1's verdict, and is named by its own index
    assert cases[5][3] is cases[1][3] and "case 5" in check.witnesses


def test_equal_matrices_built_apart_share_one_verdict_and_each_field_its_own():
    decided = []

    def over_q(m):
        decided.append(m)
        return m.field, QQ

    built = []
    for f in (QQ, GF5):
        eye = Matrix.identity(f, 2)
        built += [eye, eye @ eye, Matrix(f, [[f.one, f.zero], [f.zero, f.one]])]
    q, g = built[0], built[3]
    assert q.nz == g.nz and q.den == g.den and q != g
    assert len({id(m) for m in built}) == 6
    rep = Report("by value")
    rep.identity("over Q", [("{}", (k,), over_q, (m,)) for k, m in enumerate(built)])
    assert len(decided) == 2 and decided[0] is q and decided[1] is g  # once per field
    assert (rep.checks[0].violations, rep.checks[0].witnesses) == (3, ["3", "4", "5"])


def test_the_key_holds_the_kind():
    def equal(lhs, rhs):
        return lhs, lhs

    x, y = object(), object()
    for kinds in ((given, equal), (equal, given)):
        rep = Report("kinds")
        rep.identity("two kinds", [("{}", (k.__name__,), k, (x, y)) for k in kinds])
        assert rep.checks[0].violations == 1
        assert rep.checks[0].witnesses == ["given"]


@pytest.mark.parametrize("position", range(6))
def test_the_key_holds_every_operand(position):
    def all_first(*operands):
        return operands, (operands[0],) * len(operands)

    p, q = object(), object()
    base = (p,) * 6
    moved = base[:position] + (q,) + base[position + 1:]
    rep = Report("operands")
    rep.identity("all equal", [("{}", ("base",), all_first, base),
                               ("{}", ("moved",), all_first, moved)])
    assert (rep.checks[0].violations, rep.checks[0].witnesses) == (1, ["moved"])


def test_settle_records_one_case():
    rep = Report("settled")
    rep.settle("holds", True)
    rep.settle("fails", False)
    rep.settle("fails with a witness", False, "a {brace}")
    assert [(c.name, c.violations, c.witnesses) for c in rep.checks] == [
        ("holds", 0, []), ("fails", 1, ["fails"]), ("fails with a witness", 1, ["a {brace}"])]
