#!/usr/bin/env python3
"""Digests of the xmhopf CLI's output on every fixture, mutation and generated workload.

    python3 tools/cli_digest.py > tools/cli_digests.txt

Runs, in process and from the repository root, each command that the
benchmark's `fixtures` workload runs on a fixture, on every document in
fixtures/ and fixtures/mutations/: `verify` of every named object;
`integrals`, `grouplikes`, `dual` and `report` of every Hopf structure;
`structure-theorem` of every Hopf module; `hom` of every pair of modules over
one structure, then again with `--degree D` for each element of the structure's
E, by its label where E's group declares labels and by its index.  Then it
builds the benchmark's generated workloads (perfbench/gen.py) at seed GEN_SEED
in a temporary directory and runs each of their invocations, sorted; the
directory's path shows as GEN_DIR in their lines.  Then it runs `verify - g` on
each MALFORMED and DEFERRED_MALFORMED document of tests/conftest.py, and on each
BROKEN_JSON and REPEATED_KEY text of tests/test_docio.py, read from stdin; their
lines show the document as `< MALFORMED[id]` and alike.  Then, on each CONSTRUCTS
document of tests/conftest.py, read from stdin, it runs `verify` of every named
object and `report` and `dual` of every Hopf structure; their lines show the
document as `< CONSTRUCTS[id]`.  Then, on each
mutation document with a `trivial: v` Hopf module added over each of its Hopf
structures for each v of one group of TRIVIAL_FIBRES, once per group, read from
stdin, it runs `verify` of each added module and `structure-theorem` on it;
their lines show the document as `< TRIVIAL[file]`.  Then, on the explicit form that
docio.serialize writes of each fixture and mutation document, read from stdin, it runs
`verify` of every named object and `report` of every Hopf structure; their lines show the
document as `< EXPLICIT[file]`.  Each of these invocations runs once as text and once with
--json.

Last come the argument lists of ARGV, each run once, with fixtures/k_xi_z2.json
on stdin and, but for one, as the document, and shown as `argv` and its JSON list: the forms of
the command line the CLI accepts (options anywhere, `--opt=V`, `--`, a repeated
option), the forms it refuses (exit 2 with a usage line), -h, and object names that
it refuses.

Each line is the sha256 of (exit code, stdout, stderr) and the command line;
the last line is the sha256 of all the lines before it.  A change that leaves
every output byte alone leaves this file unchanged, so a diff of it names each
invocation whose output moved.  Stdlib only; the program under test is src/
of this checkout.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
from xmhopf.cli import main as cli_main  # noqa: E402
from xmhopf.docio import parse, serialize  # noqa: E402
from xmhopf.errors import XmhopfError  # noqa: E402

SECTIONS = ("groups", "crossed_modules", "hopf", "modules", "hopf_modules", "grouplikes",
            "integrals")
GEN_SEED = 1
# the fibres v added to a mutation document, one document per group: a group added later gets
# a document of its own, so the lines of the earlier groups keep their document and digests
TRIVIAL_FIBRES = ((0, 2), (3,))
GEN_DIR = "<gen>"
DOC = "fixtures/k_xi_z2.json"
HOM = ["hom", DOC, "k_xi_z2", "k1", "kh"]
ARGV = [
    # accepted
    ["verify", "--json", DOC, "z2"],
    ["verify", DOC, "--", "z2"],
    ["verify", "--json", "-", "z2"],
    ["integrals", DOC, "k_xi_z2", "--side=left"],
    ["integrals", "--side", "right", DOC, "k_xi_z2"],
    ["integrals", DOC, "k_xi_z2", "--side", "right", "--side", "left"],
    HOM + ["--degree=h"],
    HOM + ["--degree", "1", "--json"],
    HOM + ["--degree", "-1"],
    # help
    ["-h"],
    ["--help"],
    ["verify", "-h"],
    ["hom", "--help"],
    # refused
    [],
    ["frobnicate", DOC, "z2"],
    ["verify", DOC],
    ["verify", DOC, "z2", "extra"],
    ["verify", DOC, "z2", "--bogus"],
    ["--json", "verify", DOC, "z2"],
    ["verify", DOC, "z2", "--degree", "0"],
    ["integrals", DOC, "k_xi_z2", "--side", "sideways"],
    ["integrals", DOC, "k_xi_z2", "--side"],
    HOM + ["--degree", "--json"],
    HOM + ["--degree"],
    # prefix abbreviations
    ["verify", DOC, "z2", "--js"],
    ["integrals", DOC, "k_xi_z2", "--si", "left"],
    # refused names (cli._arg): unknown, of the wrong kind for the command, and a module over
    # another Hopf structure
    ["verify", DOC, "nope"],
    ["integrals", DOC, "z2"],
    ["structure-theorem", DOC, "k_xi_z2", "k1"],
    ["hom", DOC, "k_xi_z2", "k1", "dual_mod"],
    ["structure-theorem", "fixtures/k_xi_s3.json", "k_z2_triv", "dual_mod"],
]


def documents():
    """Paths, relative to the root, of every fixture and mutation document, sorted."""
    out = []
    for sub in ("fixtures", os.path.join("fixtures", "mutations")):
        for fname in sorted(os.listdir(os.path.join(ROOT, sub))):
            if fname.endswith(".json") and fname != "manifest.json":
                out.append(f"{sub}/{fname}".replace(os.sep, "/"))
    return out


def invocations(rel):
    """The argument lists of the commands the `fixtures` workload runs on a fixture."""
    with open(os.path.join(ROOT, rel)) as fh:
        doc = json.load(fh)
    out = [["verify", rel, name] for section in SECTIONS for name in sorted(doc.get(section, {}))]
    for name in sorted(doc.get("hopf", {})):
        out += [[cmd, rel, name] for cmd in ("integrals", "grouplikes", "dual", "report")]
    for mname, spec in sorted(doc.get("hopf_modules", {}).items()):
        out.append(["structure-theorem", rel, spec["over"], mname])
    mods = sorted(doc.get("modules", {}).items())
    values = {s["over"]: degrees(rel, s["over"]) for _, s in mods}
    for src, s in mods:
        for tgt, t in mods:
            if s["over"] == t["over"]:
                hom = ["hom", rel, s["over"], src, tgt]
                out += [hom] + [hom + ["--degree", d] for d in values[s["over"]]]
    return out


def degrees(rel, over):
    """The --degree values naming each element of E of the Hopf structure `over`: its label
    where E's group declares labels, and its index, once each; none when `over` is not built."""
    try:
        with open(os.path.join(ROOT, rel), "rb") as fh:
            doc = parse(fh.read())
        group = doc.hopf[over].E
    except XmhopfError:
        return []
    labels = next((doc.element_names[name] for name, known in doc.groups.items()
                   if known is group and name in doc.element_names), ())
    return list(dict.fromkeys([*labels, *map(str, group.elements())]))


def generated(tmp):
    """The argument lists of every generated workload's round, documents built under tmp."""
    out = []
    for workload in gen.WORKLOADS:
        if workload != "fixtures":
            round_ = gen.build(workload, GEN_SEED, tmp, root=tmp)
            out += sorted([inv["command"], os.path.join(tmp, inv["args"][0])] + inv["args"][1:]
                          for inv in round_)
    return out


def read_tables(fname, names):
    """{name: value} of the module-level assignments `names` of tests/fname, evaluated in the
    order the file makes them, so that one may refer to an earlier one, without importing
    the file (it needs pytest)."""
    path = os.path.join(ROOT, "tests", fname)
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in names):
            found[node.targets[0].id] = eval(compile(ast.Expression(node.value), path, "eval"), found)
    return found


CONFTEST = read_tables("conftest.py", ("NO_ANTIPODE", "GF5_FIELD", "WELL_FORMED", "MALFORMED",
                                       "DEFERRED_MALFORMED", "CONSTRUCTS"))
DOCIO_TESTS = read_tables("test_docio.py", ("BROKEN_JSON", "REPEATED_KEY"))


def malformed():
    """(label, document bytes) of every document that the malformed-input tests feed to
    `verify - g`: WELL_FORMED with each entry of MALFORMED and DEFERRED_MALFORMED put in, then
    each text of BROKEN_JSON and REPEATED_KEY."""
    out = [(f"{table}[{key}]", json.dumps(dict(CONFTEST["WELL_FORMED"], **sections)).encode())
           for table in ("MALFORMED", "DEFERRED_MALFORMED")
           for key, sections in CONFTEST[table].items()]
    out += [(f"BROKEN_JSON[{key}]", text.encode())
            for key, text in DOCIO_TESTS["BROKEN_JSON"].items()]
    out += [(f"REPEATED_KEY[{key}]", text.encode())
            for key, (text, _) in DOCIO_TESTS["REPEATED_KEY"].items()]
    return out


def constructs():
    """(argument list, document bytes, label) of `verify` of every named object, and `report`
    and `dual` of every Hopf structure, of WELL_FORMED with each entry of CONSTRUCTS put in."""
    out = []
    for key, sections in CONFTEST["CONSTRUCTS"].items():
        doc = dict(CONFTEST["WELL_FORMED"], **sections)
        data, label = json.dumps(doc).encode(), f" < CONSTRUCTS[{key}]"
        out += [(["verify", "-", name], data, label)
                for section in SECTIONS for name in sorted(doc.get(section, {}))]
        out += [([cmd, "-", name], data, label)
                for name in sorted(doc.get("hopf", {})) for cmd in ("report", "dual")]
    return out


def trivial_modules():
    """(argument list, document bytes, label) of `verify` and `structure-theorem` of a
    `trivial: v` Hopf module, named `trivial_v_over_H`, added over each Hopf structure H of each
    mutation document for each v of a group of TRIVIAL_FIBRES, one document per group.

    A mutation document is explicit (fixtures/gen_mutations.py), so these are the `trivial`
    directives that run over a broken structure.
    """
    out = []
    for rel in documents():
        if not rel.startswith("fixtures/mutations/"):
            continue
        label = f" < TRIVIAL[{os.path.basename(rel)}]"
        for fibres in TRIVIAL_FIBRES:
            with open(os.path.join(ROOT, rel)) as fh:
                doc = json.load(fh)
            added = {f"trivial_{v}_over_{over}": (over, v)
                     for over in sorted(doc["hopf"]) for v in fibres}
            names = {name for section in SECTIONS for name in doc.get(section, {})}
            assert not names & set(added), rel
            doc["hopf_modules"] = dict(doc.get("hopf_modules", {}), **{
                name: {"over": over, "trivial": v} for name, (over, v) in added.items()})
            data = json.dumps(doc, sort_keys=True).encode()
            for name, (over, _) in added.items():
                out += [(["verify", "-", name], data, label),
                        (["structure-theorem", "-", over, name], data, label)]
    return out


def explicit():
    """(argument list, document bytes, label) of `verify` of every named object and `report` of
    every Hopf structure of the docio.serialize form of each fixture and mutation document.

    The explicit form writes every structure map out, one literal matrix per entry of each
    table, so a map that a document repeats is read many times: the digests pin what a parse
    builds of repeated and of near-duplicate literal matrices.
    """
    out = []
    for rel in documents():
        with open(os.path.join(ROOT, rel), "rb") as fh:
            data = serialize(parse(fh.read()))
        doc = json.loads(data)
        label = f" < EXPLICIT[{os.path.basename(rel)}]"
        out += [(["verify", "-", name], data, label)
                for section in SECTIONS for name in sorted(doc.get(section, {}))]
        out += [(["report", "-", name], data, label) for name in sorted(doc.get("hopf", {}))]
    return out


def run(argv, stdin=b""):
    """(exit code, stdout, stderr) of one in-process call; an escaped exception is its own code."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except Exception as exc:  # a traceback is an output too
            code = f"uncaught {type(exc).__name__}: {exc}"
        finally:
            sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def main():
    os.chdir(ROOT)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        calls = [(args, b"", "") for rel in documents() for args in invocations(rel)]
        calls += [(args, b"", "") for args in generated(tmp)]
        calls += [(["verify", "-", "g"], data, f" < {label}") for label, data in malformed()]
        calls += constructs()
        calls += trivial_modules()
        calls += explicit()
        for args, stdin, source in calls:
            for argv in (args, args + ["--json"]):
                code, out, err = run(argv, stdin)
                blob = json.dumps([code, out, err]).encode()
                shown = " ".join(argv).replace(tmp, GEN_DIR) + source
                lines.append(f"{hashlib.sha256(blob).hexdigest()}  {shown}")
    with open(DOC, "rb") as fh:
        stdin = fh.read()
    for argv in ARGV:
        blob = json.dumps(run(argv, stdin)).encode()
        lines.append(f"{hashlib.sha256(blob).hexdigest()}  argv {json.dumps(argv)}")
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    sys.stdout.write("\n".join(lines) + f"\n{total}  total of {len(lines)} invocations\n")


if __name__ == "__main__":
    main()
