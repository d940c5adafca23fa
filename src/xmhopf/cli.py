"""Command-line surface: batch validation and computation with exit codes.

`xmhopf COMMAND DOCUMENT NAME...` runs a command of the table COMMANDS; its options
(--json; --side on integrals, --degree on hom) may come anywhere after COMMAND, as
`--opt V` or `--opt=V`, and are never abbreviated.  `--` ends them; DOCUMENT `-` is stdin.
Exit status: 0 when every check passes, 1 when at least one axiom or identity is
violated (a report is still printed), 2 on input errors, refused command lines and
output that cannot be written (a closed stdout, a full disk, a reader that has gone).
Reports are deterministic: identical input bytes give identical output
bytes, with or without --json.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto for it
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:  # a build without the builtin module
        from hashlib import sha256

from .crossed import kernel_image_cokernel, validate_components, validate_crossed_module
from .docio import DocumentError, StructureDocument, UnknownNameError, parse
from .errors import DefiningIdentityFailedError, XmhopfError
from .groups import validate_group
from .hopf import enumerate_grouplikes, grouplike_report
from .hopfmod import (
    coinvariants,
    distinguished_grouplike,
    integral_report,
    integral_space,
    structure_iso,
    validate_hopf_xi_module,
    validate_module_premises,
)
from .linalg import MAX_LITERAL_DIGITS, Field
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
        checks = self.report.checks
        if as_json:
            payload = dict(self.header, outputs=self.outputs, ok=self.ok, checks=[
                {"name": c.name, "status": "pass" if c.ok else "fail",
                 "violations": c.violations, "witnesses": c.witnesses}
                for c in checks
            ])
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        lines = [
            f"command: {self.header['command']}",
            f"document-sha256: {self.header['digest']}",
            f"object: {self.header['object']}",
        ]
        for c in checks:
            status = "pass" if c.ok else f"FAIL ({c.violations} violations)"
            lines.append(f"check {c.name}: {status}")
            lines.extend(f"  witness: {w}" for w in c.witnesses)
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
        res.add_report(validate_module_premises(doc.hopf[over]))
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
    res.add_report(validate_module_premises(a))
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
        except UnknownNameError:  # no element has that label: an index is ASCII digits
            digits = args.degree.removeprefix("-")
            if not (digits.isascii() and digits.isdigit() and len(digits) <= MAX_LITERAL_DIGITS):
                raise
            degrees = [int(args.degree)]
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
    """A's validator stack, its integrals, grouplikes and distinguished grouplike.

    No dual Hopf module is built: its checks restate A's, transposed (hopfmod's docstring).
    """
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


# command -> (its positionals, one-line help); its handler, cmd_<command>, is looked up per call
COMMANDS = {
    "verify": (("document", "name"), "run the validator stack on a named object"),
    "integrals": (("document", "name"), "compute the integral space of a Hopf structure"),
    "grouplikes": (("document", "name"), "enumerate basis-supported grouplike families"),
    "dual": (("document", "name"), "dualize and validate the dual structure"),
    "structure-theorem": (("document", "name", "module"), "trivialize a Hopf module"),
    "hom": (("document", "name", "source", "target"), "graded hom spaces between two named modules"),
    "report": (("document", "name"), "full report: validation, integrals, grouplikes, duals"),
}
# option -> (the one command that takes it, its choices or None for any value); --json is on all
_VALUED = {"--side": ("integrals", ("left", "right", "both")), "--degree": ("hom", None)}
# a value, not an unknown option: empty, "-", no leading "-", a space, or a negative number
_VALUE = re.compile(r"\Z|-\Z|[^-]|.* |-\d+\Z|-\d*\.\d+\Z", re.S)


class _Exit(Exception):
    """(0, command or None, help) or (2, command or None, why the command line is refused)."""


def _usage(command) -> str:
    if command is None:
        return f"usage: xmhopf [-h] {{{','.join(COMMANDS)}}} ..."
    opts = "".join(f" [{o} {{{','.join(v)}}}]" if v else f" [{o} D]"
                   for o, (c, v) in _VALUED.items() if c == command)
    return f"usage: xmhopf {command} [-h] [--json]{opts} {' '.join(COMMANDS[command][0])}"


def _read_argv(argv: list) -> SimpleNamespace:
    """The values of a command line: command, document, positionals, json, side, degree."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        raise _Exit(0, None, "\n".join(f"  {c:<18} {h}" for c, (_, h) in COMMANDS.items()))
    if command not in COMMANDS:
        raise _Exit(2, None, f"unknown command {command!r}" if argv else "no command given")
    names, help_text = COMMANDS[command]
    args = SimpleNamespace(command=command, json=False, side="both", degree=None)
    given, unknown, rest = [], [], iter(argv[1:])
    for tok in rest:
        opt, eq, value = tok.partition("=")
        if tok == "--":
            given += rest
        elif tok in ("-h", "--help"):
            raise _Exit(0, command, f"{help_text}; document is a path, or - for stdin")
        elif tok == "--json":
            args.json = True
        elif (spec := _VALUED.get(opt, ("", None)))[0] == command:
            if not eq and not _VALUE.match(value := next(rest, "--")):  # "--" if there is none
                raise _Exit(2, command, f"argument {opt}: expected one argument")
            if spec[1] and value not in spec[1]:
                raise _Exit(2, command, f"argument {opt}: invalid choice: {value!r}")
            setattr(args, opt[2:], value)
        else:
            (given if _VALUE.match(tok) else unknown).append(tok)
    if len(given) < len(names):
        raise _Exit(2, command, f"missing arguments: {', '.join(names[len(given):])}")
    if unknown or len(given) > len(names):
        raise _Exit(2, command, f"unrecognized arguments: {' '.join(unknown + given[len(names):])}")
    args.__dict__.update(zip(names, given))
    return args


def _emit(code: int, name: str, text: str) -> int:
    """Write `text` to sys.stdout or sys.stderr, flush it, and return the exit status `code`;
    when it cannot be written, say so on stderr and return 2."""
    stream = getattr(sys, name)
    try:
        if stream is None:  # the interpreter found the descriptor closed at start-up
            raise OSError(f"{name} is closed")
        stream.write(text)
        stream.flush()
    except (OSError, ValueError) as exc:  # ValueError: a closed stream, or an unencodable text
        return _emit(2, "stderr", f"output error: {exc}\n") if name == "stdout" else 2
    return code


def main(argv=None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
    except _Exit as exc:
        code, command, text = exc.args
        sep = "\nxmhopf: error: " if code else "\n\n"
        return _emit(code, "stderr" if code else "stdout", f"{_usage(command)}{sep}{text}\n")
    try:
        data = _read_document(args.document)
        res = CommandResult(args.command, sha256(data).hexdigest(), args.name)
        globals()["cmd_" + args.command.replace("-", "_")](parse(data), args, res)
    except (OSError, XmhopfError) as exc:  # an unreadable, malformed or refused document
        return _emit(2, "stderr", f"input error: {exc}\n")
    return _emit(0 if res.ok else 1, "stdout", res.render(args.json))


if __name__ == "__main__":
    import os

    # main has written and flushed its output, and nothing else is left to clean up, so the
    # interpreter's teardown (about 2 ms of finalising modules) is skipped
    os._exit(main())
