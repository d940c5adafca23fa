"""Command-line surface: batch validation and computation with exit codes.

Exit status: 0 when every check passes, 1 when at least one axiom or
identity is violated (a report is still printed), 2 on input errors.
Reports are deterministic: identical input bytes give identical output
bytes, with or without --json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .crossed import kernel_image_cokernel, validate_components, validate_crossed_module
from .docio import DocumentError, StructureDocument, UnknownNameError, parse
from .errors import DefiningIdentityFailedError, XmhopfError
from .groups import validate_group
from .hopf import enumerate_grouplikes, grouplike_report
from .hopfmod import (
    coinvariant_gate,
    coinvariants,
    distinguished_grouplike,
    dual_hopf_module,
    integral_report,
    integral_space,
    structure_iso,
    validate_hopf_xi_module,
)
from .linalg import Field
from .repcat import hom_space, validate_module
from .report import Report
from .xihopf import (
    dualize,
    dualize_algebra,
    full_validation_report,
    grouplike_pairing,
    validate_hopf_xi_algebra,
)


def _read_document(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _show_family(f: Field, fam) -> list:
    return [[f.show(v) for v in comp] for comp in fam]


_PAIRING_CHECK = "grouplike pairing: phi_(x,e)(G_x) = <G,e> G_(xi(e)x)"


def _pairings(a, fams, chk: Report) -> list:
    """Per grouplike family, its shown pairing <G, e> and whether every value is 1.

    A family on which the pairing's defining identity fails gets None, and its
    failure, labelled by the family's index in `fams`, is a witness of one
    check in `chk`, which is opened only then.
    """
    out, failures = [], []
    for k, fam in enumerate(fams):
        try:
            pairing = grouplike_pairing(a, fam)
        except DefiningIdentityFailedError as exc:
            out.append(None)
            failures.append((f"family {k}: {exc}", False, True))
            continue
        shown = {str(e): a.field.show(v) for e, v in sorted(pairing.items())}
        out.append((shown, all(v == a.field.one for v in pairing.values())))
    if failures:
        chk.identity(_PAIRING_CHECK, failures)
    return out


class CommandResult:
    """The checks of one command, merged into one Report, and its outputs."""

    def __init__(self, command: str, digest: str, target: str):
        self.header = {"command": command, "digest": digest, "object": target}
        self.report = Report(command)
        self.outputs = {}

    def add_report(self, rep: Report) -> None:
        self.report.merge(rep)

    def output(self, key: str, value) -> None:
        self.outputs[key] = value

    @property
    def ok(self) -> bool:
        return self.report.ok

    def render(self, as_json: bool) -> str:
        checks = self.report.as_dict()["checks"]
        if as_json:
            payload = dict(self.header, checks=checks, outputs=self.outputs, ok=self.ok)
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        lines = [
            f"command: {self.header['command']}",
            f"document-sha256: {self.header['digest']}",
            f"object: {self.header['object']}",
        ]
        for c in checks:
            status = "pass" if c["status"] == "pass" else f"FAIL ({c['violations']} violations)"
            lines.append(f"check {c['name']}: {status}")
            for w in c["witnesses"]:
                lines.append(f"  witness: {w}")
        for key in sorted(self.outputs):
            lines.append(f"output {key}: {json.dumps(self.outputs[key], sort_keys=True)}")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _verify_object(doc: StructureDocument, name: str, res: CommandResult) -> None:
    section, obj = doc.lookup(name)
    if section == "groups":
        res.add_report(validate_group(obj))
    elif section == "crossed_modules":
        res.add_report(validate_components(obj))
        res.add_report(validate_crossed_module(obj))
        kic = kernel_image_cokernel(obj)
        res.add_report(kic.report)
        res.output("kernel", list(kic.kernel))
        res.output("image", list(kic.image))
        res.output("cokernel_order", kic.cokernel.order)
    elif section == "hopf":
        res.add_report(full_validation_report(obj))
        res.output("dims", [obj.dim(x) for x in obj.H.elements()])
    elif section == "modules":
        over, mod = obj
        res.add_report(validate_module(doc.hopf[over], mod))
        res.output("dims", list(mod.dims))
    elif section == "hopf_modules":
        over, mod = obj
        res.add_report(validate_hopf_xi_module(doc.hopf[over], mod))
        res.output("dims", list(mod.dims))
    elif section == "grouplikes":
        over, fam = obj
        a = doc.hopf[over]
        rep = grouplike_report(a.base, fam)
        if rep.ok:
            (paired,) = _pairings(a, [fam], rep)
            if paired is not None:
                res.output("pairing", paired[0])
                res.output("xi_grouplike", paired[1])
        res.add_report(rep)
    else:  # integrals
        over, side, fam = obj
        a = doc.hopf[over]
        res.add_report(integral_report(a, fam, side))


def cmd_verify(doc: StructureDocument, args, res: CommandResult) -> None:
    _verify_object(doc, args.name, res)


def cmd_integrals(doc: StructureDocument, args, res: CommandResult) -> None:
    a = _arg(doc, args.name, "hopf")
    sides = ("left", "right") if args.side == "both" else (args.side,)
    for side in sides:
        basis = integral_space(a, side)
        res.output(f"{side}_dimension", len(basis))
        res.output(f"{side}_basis", [_show_family(a.field, fam) for fam in basis])
        chk = Report(f"{side} integrals")
        chk.settle(
            "dimension is 1 (finite type over a field)",
            len(basis) == 1,
            f"dimension = {len(basis)}",
        )
        nonzero = all(
            any(v != a.field.zero for v in fam[x])
            for fam in basis
            for x in a.H.elements()
        )
        chk.settle("basis integrals are nonzero on every component", nonzero)
        res.add_report(chk)


def cmd_grouplikes(doc: StructureDocument, args, res: CommandResult) -> None:
    a = _arg(doc, args.name, "hopf")
    fams = enumerate_grouplikes(a.base)
    chk = Report("grouplike enumeration")
    out = []
    for fam, paired in zip(fams, _pairings(a, fams, chk)):
        entry = {"family": _show_family(a.field, fam)}
        if paired is not None:
            entry["pairing"], entry["xi_grouplike"] = paired
        out.append(entry)
    res.output("count", len(fams))
    res.output("families", out)
    chk.settle("unit family is grouplike", any(
        fam == tuple(a.component(x).unit for x in a.H.elements()) for fam in fams
    ))
    res.add_report(chk)


def cmd_dual(doc: StructureDocument, args, res: CommandResult) -> None:
    a = _arg(doc, args.name, "hopf")
    chk = Report("duality")
    if a.base.antipode is None:  # there is no dual to validate
        chk.settle("antipode", False, "antipode missing and not computable")
        res.add_report(chk)
        return
    b = dualize(a)
    res.add_report(validate_hopf_xi_algebra(b))
    chk.settle("double dual equals the original structure constants", dualize_algebra(b) == a)
    res.add_report(chk)
    res.output("dims", [b.dim(x) for x in b.H.elements()])


def cmd_structure_theorem(doc: StructureDocument, args, res: CommandResult) -> None:
    a = _arg(doc, args.name, "hopf")
    mod = _arg(doc, args.module, "hopf_modules", over=args.name)
    res.add_report(validate_hopf_xi_module(a, mod))
    chk = Report("structure theorem")
    coinv = coinvariants(a, mod)
    res.output("coinvariants_dimension", len(coinv))
    res.output("coinvariants_basis", [_show_family(a.field, c) for c in coinv])
    try:
        structure_iso(a, mod, coinv)
        chk.settle("trivialization maps are exact two-sided inverses", True)
    except XmhopfError as exc:
        chk.settle("trivialization maps are exact two-sided inverses", False, str(exc))
    res.add_report(chk)


def cmd_hom(doc: StructureDocument, args, res: CommandResult) -> None:
    a = _arg(doc, args.name, "hopf")
    m = _arg(doc, args.source, "modules", over=args.name)
    n = _arg(doc, args.target, "modules", over=args.name)
    if args.degree is None:
        degrees = list(a.E.elements())
    else:
        try:
            degrees = [doc.element_index(a.E, args.degree)]
        except UnknownNameError as exc:  # no element has that label: read it as an index
            try:
                degrees = [int(args.degree)]
            except ValueError:
                raise exc from None
    for e in degrees:
        if not 0 <= e < a.E.order:
            raise DocumentError(f"degree {e} out of range")
        basis = hom_space(a, m, n, e)
        res.output(f"degree_{e}_dimension", len(basis))
        res.output(
            f"degree_{e}_basis",
            [
                [
                    [[a.field.show(v) for v in row] for row in blk.data]
                    for blk in h.blocks
                ]
                for h in basis
            ],
        )
    chk = Report("hom computation")
    chk.settle("hom spaces computed", True)
    res.add_report(chk)


def cmd_report(doc: StructureDocument, args, res: CommandResult) -> None:
    a = _arg(doc, args.name, "hopf")
    res.add_report(full_validation_report(a))
    left, right = integral_space(a, "left"), integral_space(a, "right")
    for side, basis in (("left", left), ("right", right)):
        res.output(f"{side}_integral_dimension", len(basis))
        res.output(f"{side}_integral_basis", [_show_family(a.field, fam) for fam in basis])
    fams = enumerate_grouplikes(a.base)
    chk = Report("derived structure")
    res.output("grouplike_count", len(fams))
    res.output("xi_grouplikes", [
        _show_family(a.field, fam)
        for fam, paired in zip(fams, _pairings(a, fams, chk)) if paired and paired[1]
    ])
    try:
        g = distinguished_grouplike(a, right)
        res.output("distinguished_grouplike", _show_family(a.field, g))
        chk.settle("distinguished grouplike verified", True)
    except XmhopfError as exc:
        chk.settle("distinguished grouplike verified", False, str(exc))
    try:
        m = dual_hopf_module(a)
        if validate_hopf_xi_module(a, m).ok:
            failed = coinvariant_gate(a, m, right)
        else:
            failed = "dual Hopf module fails the module axioms"
    except XmhopfError as exc:
        failed = str(exc)
    chk.settle("dual Hopf module passes its gates", failed is None, failed)
    if failed is None:
        res.output("dual_hopf_module_dims", list(m.dims))
    res.add_report(chk)


_KINDS = {"hopf": "a Hopf structure", "modules": "a graded module", "hopf_modules": "a Hopf module"}


def _arg(doc: StructureDocument, name: str, section: str, over=None):
    """The object of `section` that a command argument names; a module must be `over` that Hopf
    structure, and comes without its owner's name."""
    found, obj = doc.lookup(name)
    if found != section:
        raise DocumentError(f"{name!r} is not {_KINDS[section]}")
    if over is None:
        return obj
    owner, mod = obj
    if owner != over:
        raise DocumentError(f"{name!r} is not a module over {over!r}")
    return mod


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmhopf",
        description="Validate and compute with crossed-module-graded Hopf structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("document", help="path to a structure document, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.set_defaults(fn=fn)
        return p

    p = add("verify", cmd_verify, "run the validator stack on a named object")
    p.add_argument("name")

    p = add("integrals", cmd_integrals, "compute the integral space of a Hopf structure")
    p.add_argument("name")
    p.add_argument("--side", choices=["left", "right", "both"], default="both")

    p = add("grouplikes", cmd_grouplikes, "enumerate basis-supported grouplike families")
    p.add_argument("name")

    p = add("dual", cmd_dual, "dualize and validate the dual structure")
    p.add_argument("name")

    p = add("structure-theorem", cmd_structure_theorem, "check the Hopf module trivialization")
    p.add_argument("name")
    p.add_argument("module")

    p = add("hom", cmd_hom, "compute graded hom spaces between named modules")
    p.add_argument("name")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--degree", default=None, help="element index or declared element label")

    p = add("report", cmd_report, "full report: validation, integrals, grouplikes, duals")
    p.add_argument("name")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        data = _read_document(args.document)
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    digest = hashlib.sha256(data).hexdigest()
    try:
        doc = parse(data)
        res = CommandResult(args.command, digest, getattr(args, "name", ""))
        args.fn(doc, args, res)
    except XmhopfError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(res.render(args.json))
    return 0 if res.ok else 1


if __name__ == "__main__":
    sys.exit(main())
