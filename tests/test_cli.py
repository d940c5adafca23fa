import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from tests.conftest import (
    CONSTRUCTS,
    DEFERRED_MALFORMED,
    FIXTURES,
    MALFORMED,
    NO_ANTIPODE,
    WELL_FORMED,
    cli_env,
    fixture_structures,
    run_cli,
)
from xmhopf import cli
from xmhopf.cli import main
from xmhopf.docio import MAX_GROUP_ORDER, MAX_VALIDATION_COST, parse
from xmhopf.linalg import Matrix
from xmhopf.xihopf import dualize, dualize_algebra, full_validation_report, validate_hopf_xi_algebra

DOC = str(FIXTURES / "k_xi_z2.json")


def test_verify_valid_documents_exit_zero():
    for doc, name in [
        ("k_xi_z2.json", "k_xi_z2"),
        ("bichar_z2.json", "bichar_z2"),
        ("k_xi_s3.json", "k_xi_s3"),
        ("rho_z2.json", "rho_z2"),
        ("bichar_z2_gf5.json", "bichar_z2_gf5"),
    ]:
        proc = run_cli("verify", str(FIXTURES / doc), name)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "result: PASS" in proc.stdout


def test_verify_json_output():
    proc = run_cli("verify", str(FIXTURES / "k_xi_z2.json"), "k_xi_z2", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["command"] == "verify"
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_verify_candidates():
    doc = str(FIXTURES / "k_xi_z2.json")
    for name in ("unit_family", "sign_family", "constant_left", "constant_right"):
        assert run_cli("verify", doc, name).returncode == 0


def test_unknown_name_is_input_error():
    proc = run_cli("verify", str(FIXTURES / "k_xi_z2.json"), "missing")
    assert proc.returncode == 2
    assert "input error" in proc.stderr


def test_unreadable_document_is_input_error():
    proc = run_cli("verify", str(FIXTURES / "no_such_file.json"), "x")
    assert proc.returncode == 2


def test_malformed_document_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    proc = run_cli("verify", str(bad), "x")
    assert proc.returncode == 2


@pytest.mark.parametrize("sections", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_section_is_input_error(sections):
    proc = subprocess.run(
        [sys.executable, "-m", "xmhopf.cli", "verify", "-", "g"],
        input=json.dumps(dict(WELL_FORMED, **sections)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("sections", CONSTRUCTS.values(), ids=list(CONSTRUCTS))
def test_construct_is_read_and_verified(sections, tmp_path, capsys):
    doc = dict(WELL_FORMED, **sections)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for name in [name for key, section in doc.items() if key != "field" for name in section]:
        code = main(["verify", str(path), name])
        out, err = capsys.readouterr()
        # NO_ANTIPODE's structure bi fails its antipode check, and only it
        assert (code, err) == (1 if name == "bi" else 0, ""), out
        assert ("  witness: antipode missing and not computable\n" in out) == (name == "bi")


def test_crossed_module_whose_image_misses_the_identity_fails_its_checks():
    # xi(1) = h: no coset Im(xi) x holds x, and naming the cosets used to raise KeyError
    doc = {"field": {"kind": "rational"}, "groups": {"g": {"cyclic": 2}},
           "crossed_modules": {"cm": {"E": "g", "H": "g", "xi": [1, 1], "action": [[0, 1], [0, 1]]}}}
    proc = subprocess.run(
        [sys.executable, "-m", "xmhopf.cli", "verify", "-", "cm"],
        input=json.dumps(doc),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "check crossed module components: group hom: multiplicative: FAIL" in proc.stdout


def trivial_group_document(tmp_path, characteristic):
    doc = tmp_path / f"gf_{characteristic}.json"
    doc.write_text(json.dumps({
        "field": {"kind": "prime", "characteristic": characteristic},
        "groups": {"one": {"cyclic": 1}},
        "crossed_modules": {"cm": {"identity": "one"}},
        "hopf": {"k": {"trivial": "cm"}},
    }))
    return str(doc)


def test_large_prime_characteristic_verifies_promptly(tmp_path):
    # 2^61 - 1 is prime; trial division up to its square root never finished
    doc = trivial_group_document(tmp_path, 2**61 - 1)
    start = time.monotonic()
    for name in ("one", "k"):
        proc = run_cli("verify", doc, name, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "result: PASS" in proc.stdout
    assert time.monotonic() - start < 30


def test_characteristic_beyond_primality_bound_is_input_error(tmp_path):
    doc = trivial_group_document(tmp_path, 2**89 - 1)
    proc = run_cli("verify", doc, "one", timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "input error" in proc.stderr and "too large" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_stdin_input():
    data = (FIXTURES / "k_xi_z2.json").read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "xmhopf.cli", "verify", "-", "k_xi_z2"],
        input=data,
        capture_output=True,
    )
    assert proc.returncode == 0


def test_integrals_command():
    proc = run_cli("integrals", str(FIXTURES / "bichar_z2.json"), "bichar_z2", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["outputs"]["left_dimension"] == 1
    assert payload["outputs"]["right_dimension"] == 1
    assert payload["outputs"]["left_basis"] == [[["1", "0"]]]


def test_grouplikes_command():
    proc = run_cli("grouplikes", str(FIXTURES / "bichar_z2.json"), "bichar_z2", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    fams = payload["outputs"]["families"]
    assert payload["outputs"]["count"] == 2
    flags = sorted(f["xi_grouplike"] for f in fams)
    assert flags == [False, True]


# mutations whose action breaks phi_(x,e)(G_x) = <G,e> G_(xi(e)x) on a grouplike family
PAIRING_BROKEN = [
    ("mut04_action.json", "k_xi_z2", "G_(1)"),
    ("mut10_xi_map.json", "k_xi_s3", "G_(2)"),
    ("mut10_xi_map.json", "k_pi_s3", "G_(2)"),
]
PAIRING_CHECK = "grouplike pairing: phi_(x,e)(G_x) = <G,e> G_(xi(e)x): FAIL"


@pytest.mark.parametrize("command", ["report", "grouplikes"])
@pytest.mark.parametrize("doc,name,target", PAIRING_BROKEN,
                         ids=[f"{d[:5]}-{n}" for d, n, _ in PAIRING_BROKEN])
def test_broken_grouplike_pairing_is_a_failed_check(command, doc, name, target, capsys):
    import xmhopf.cli as cli

    path = str(FIXTURES / "mutations" / doc)
    assert cli.main([command, path, name]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    title = "derived structure" if command == "report" else "grouplike enumeration"
    assert f"check {title}: {PAIRING_CHECK}" in out
    assert f"  witness: family 1: phi_(0,1)(G_0) != <G,e> {target}\n" in out
    assert out.endswith("result: FAIL\n")
    assert cli.main([command, path, name, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    if command == "grouplikes":
        # the family whose identity fails is listed, without a pairing
        assert [sorted(f) for f in payload["outputs"]["families"]][1] == ["family"]
    else:
        assert payload["outputs"]["grouplike_count"] == 2


@pytest.mark.parametrize("name", ["unit_family", "sign_family"])
def test_verify_of_a_grouplike_with_a_broken_pairing_is_a_failed_check(name, capsys):
    import xmhopf.cli as cli

    assert cli.main(["verify", str(FIXTURES / "mutations" / "mut04_action.json"), name]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert f"check grouplike candidate: {PAIRING_CHECK} (1 violations)\n" in out
    assert "output pairing" not in out and out.endswith("result: FAIL\n")


def test_pairing_check_is_absent_where_the_identity_holds(capsys):
    import xmhopf.cli as cli

    for command in ("report", "grouplikes"):
        assert cli.main([command, str(FIXTURES / "k_xi_s3.json"), "k_xi_s3"]) == 0
        assert "grouplike pairing" not in capsys.readouterr().out


def test_grouplike_pairing_computed_once_per_family(monkeypatch, capsys):
    import xmhopf.cli as cli
    import xmhopf.xihopf as xihopf

    calls = []
    original = xihopf.grouplike_pairing

    def counting(a, fam):
        calls.append(fam)
        return original(a, fam)

    monkeypatch.setattr(xihopf, "grouplike_pairing", counting)
    monkeypatch.setattr(cli, "grouplike_pairing", counting)
    assert cli.main(["grouplikes", str(FIXTURES / "bichar_z2.json"), "bichar_z2", "--json"]) == 0
    families = json.loads(capsys.readouterr().out)["outputs"]["families"]
    assert len(families) == 2
    assert len(calls) == 2 and len(set(calls)) == 2
    calls.clear()
    assert cli.main(["verify", str(FIXTURES / "k_xi_z2.json"), "sign_family"]) == 0
    assert "output xi_grouplike: false" in capsys.readouterr().out
    assert len(calls) == 1


# (document, name) for every Hopf structure in every shipped fixture and mutation
HOPF_STRUCTURES = [
    (path, name)
    for path in sorted(FIXTURES.glob("*.json")) + sorted(FIXTURES.glob("mutations/mut*.json"))
    for name in sorted(json.loads(path.read_text()).get("hopf", {}))
]


@pytest.mark.parametrize(
    "path,name", HOPF_STRUCTURES, ids=[f"{p.name}:{n}" for p, n in HOPF_STRUCTURES]
)
def test_dual_and_verify_agree(path, name, capsys):
    # the dual report is the coalgebra stack on the transposed structure, so it
    # must reject exactly what verify rejects, a broken group or crossed module included
    verdicts = [main([command, str(path), name]) for command in ("verify", "dual")]
    capsys.readouterr()
    assert verdicts[0] == verdicts[1]
    # dual reads the report of B = dualize(A) off A (cli.cmd_dual); the oracle builds B and
    # checks it, and the double dual is A again (every shipped structure has an antipode)
    a = parse(path.read_bytes()).hopf[name]
    b = dualize(a)
    assert dualize_algebra(b) == a
    oracle = validate_hopf_xi_algebra(b)
    main(["dual", str(path), name, "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["violations"], c["witnesses"]) for c in checks] == [
        (f"{oracle.title}: {c.name}", c.violations, c.witnesses) for c in oracle.checks]


def test_dual_command():
    for doc, name in [("k_xi_z2.json", "k_xi_z2"), ("bichar_z2.json", "bichar_z2")]:
        proc = run_cli("dual", str(FIXTURES / doc), name)
        assert proc.returncode == 0, proc.stdout


def test_structure_theorem_command():
    doc = str(FIXTURES / "k_xi_z2.json")
    for module in ("dual_mod", "trivial_mod_2"):
        proc = run_cli("structure-theorem", doc, "k_xi_z2", module, "--json")
        assert proc.returncode == 0, proc.stdout
        payload = json.loads(proc.stdout)
        expected = 1 if module == "dual_mod" else 2
        assert payload["outputs"]["coinvariants_dimension"] == expected


def test_hom_command():
    # E's elements are labelled ["1", "h"]: --degree 1 names the label "1", the identity
    doc = str(FIXTURES / "k_xi_z2.json")
    proc = run_cli("hom", doc, "k_xi_z2", "k1", "kh", "--degree", "1", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["outputs"] == {"degree_0_dimension": 0, "degree_0_basis": []}
    proc = run_cli("hom", doc, "k_xi_z2", "k1", "kh", "--json")
    payload = json.loads(proc.stdout)
    assert payload["outputs"]["degree_0_dimension"] == 0
    # bichar_z2.json declares no labels, so D is an index; trivial_rep -> sign_rep has degree 1
    args = ("hom", str(FIXTURES / "bichar_z2.json"), "bichar_z2", "trivial_rep", "sign_rep")
    for degree, dim in (("0", 0), ("1", 1)):
        outputs = json.loads(run_cli(*args, "--degree", degree, "--json").stdout)["outputs"]
        assert outputs[f"degree_{degree}_dimension"] == dim and len(outputs) == 2
    proc = run_cli(*args, "--degree", "2")
    assert (proc.returncode, proc.stderr) == (2, "input error: degree 2 out of range\n")


def test_hom_command_accepts_element_labels():
    doc = str(FIXTURES / "k_xi_z2.json")
    proc = run_cli("hom", doc, "k_xi_z2", "k1", "kh", "--degree", "h", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["outputs"]["degree_1_dimension"] == 1
    proc = run_cli("hom", doc, "k_xi_z2", "k1", "kh", "--degree", "nope")
    assert proc.returncode == 2
    assert proc.stderr == "input error: no element named 'nope'\n"


def test_degree_label_is_read_from_the_group_that_is_e(tmp_path):
    # g1 equals g2 but labels its elements the other way round; E is g2, where b is element 0
    doc = tmp_path / "two_labellings.json"
    doc.write_text(json.dumps({
        "field": {"kind": "rational"},
        "groups": {"g1": {"cyclic": 2, "elements": ["a", "b"]},
                   "g2": {"cyclic": 2, "elements": ["b", "a"]}},
        "crossed_modules": {"cm": {"identity": "g2"}},
        "hopf": {"k": {"trivial": "cm"}},
        "modules": {"m0": {"over": "k", "line": {"degree": 0, "character": ["1"]}},
                    "m1": {"over": "k", "line": {"degree": 1, "character": ["1"]}}},
    }))
    for label, degree, dim in (("b", 0, 0), ("a", 1, 1)):
        proc = run_cli("hom", str(doc), "k", "m0", "m1", "--degree", label, "--json")
        assert proc.returncode == 0, proc.stderr
        outputs = json.loads(proc.stdout)["outputs"]
        assert sorted(outputs) == [f"degree_{degree}_basis", f"degree_{degree}_dimension"]
        assert outputs[f"degree_{degree}_dimension"] == dim


@pytest.mark.parametrize("degree", [" 1", "1 ", "+1", "1_0", "\u0661"])
def test_degree_that_is_no_label_nor_ascii_digits_is_unknown(degree):
    # int() reads "1_0" as 10 and the others as 1 (U+0661 is ARABIC-INDIC DIGIT ONE); a degree
    # is an element label or an index written in ASCII digits
    doc = str(FIXTURES / "k_xi_z2.json")
    proc = run_cli("hom", doc, "k_xi_z2", "k1", "kh", "--degree", degree)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"input error: no element named {degree!r}\n"


def fixture_verifications(pattern="*.json"):
    """(file:name, CommandResult) of `verify` on every name of every document matching pattern,
    by default every shipped valid document."""
    from xmhopf.cli import CommandResult, _verify_object

    for doc_path in sorted(FIXTURES.glob(pattern)):
        doc = parse(doc_path.read_bytes())
        for name in doc.all_names():
            res = CommandResult("verify", "-", name)
            _verify_object(doc, name, res)
            yield f"{doc_path.name}:{name}", res


def test_every_named_object_in_every_fixture_verifies():
    # in-process sweep: every shipped valid document passes `verify` for
    # every name it defines
    for where, res in fixture_verifications():
        assert res.ok, where


def test_no_report_names_a_check_twice():
    # a failure must say which of two like components (E or H, A_x or A_y) it is about;
    # and a report states axioms only, since shapes are checked when a document is parsed
    for pattern in ("*.json", "mutations/mut*.json"):
        for where, res in fixture_verifications(pattern):
            names = [c.name for c in res.report.checks]
            assert len(names) == len(set(names)), where
            assert not [n for n in names if n.endswith(": shape")], where


def test_dual_without_an_antipode_is_a_failed_check(tmp_path):
    # dual used to exit 2 with "input error: antipode has not been computed"
    path = tmp_path / "no_antipode.json"
    path.write_text(json.dumps(NO_ANTIPODE))
    for command in ("verify", "report", "dual"):
        proc = run_cli(command, str(path), "bi")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stderr == ""
        assert "  witness: antipode missing and not computable\n" in proc.stdout
        assert "result: FAIL" in proc.stdout


def test_dual_hopf_module_without_an_antipode_names_its_entry(tmp_path):
    # verify and structure-theorem used to exit 2 with "input error: antipode has not been
    # computed", which names neither the module nor its structure
    path = tmp_path / "no_antipode.json"
    doc = dict(NO_ANTIPODE, hopf_modules={"dm": {"over": "bi", "dual": True}})
    path.write_text(json.dumps(doc))
    for args in (["verify", "dm"], ["structure-theorem", "bi", "dm"]):
        proc = run_cli(args[0], str(path), *args[1:])
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "input error: hopf_modules.dm: Hopf structure 'bi' has no antipode\n"
    # report builds no dual Hopf module: it fails on the structure's own antipode check
    report = run_cli("report", str(path), "bi")
    assert report.returncode == 1 and report.stderr == ""
    assert "  witness: antipode missing and not computable\n" in report.stdout
    assert "dual Hopf module" not in report.stdout


def test_benchmark_tracer_installs_and_restores_every_original():
    # perfbench/spans.py wraps names it looks up (five Matrix methods, CommandResult.render,
    # every public function of the traced modules); a missing one breaks every traced run
    import importlib
    import importlib.util

    import xmhopf
    from xmhopf import hopf
    from xmhopf.cli import CommandResult
    from xmhopf.linalg import Matrix

    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", FIXTURES.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    namespaces = [xmhopf, Matrix, CommandResult] + [
        importlib.import_module(f"xmhopf.{m}") for m in spans.MODULES]
    before = [dict(vars(ns)) for ns in namespaces]
    is_grouplike = hopf.is_grouplike
    tracer = spans.Tracer()
    try:
        tracer.install()
        for attr in ("__matmul__", "kron", "apply", "_rref", "flip"):
            assert Matrix.__dict__[attr] is not before[1][attr], attr
        # the fused Kronecker products are Matrix methods that no span wraps, so their time
        # stays in the self time of the validators that call them
        for attr in ("kron_matmul", "matmul_kron"):
            assert Matrix.__dict__[attr] is before[1][attr], attr
        assert CommandResult.__dict__["render"] is not before[2]["render"]
        assert hopf.is_grouplike is not is_grouplike
    finally:
        tracer.uninstall()
    assert [dict(vars(ns)) for ns in namespaces] == before


def test_report_command():
    proc = run_cli("report", str(FIXTURES / "rho_z2.json"), "rho_z2", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["outputs"]["left_integral_dimension"] == 1
    assert payload["outputs"]["distinguished_grouplike"] == [["1", "0"], ["1", "0"]]


@pytest.mark.parametrize(
    "entry",
    json.loads((FIXTURES / "mutations" / "manifest.json").read_text()),
    ids=lambda e: e["file"],
)
def test_mutations_fail_with_witnesses(entry):
    path = str(FIXTURES / "mutations" / entry["file"])
    proc = run_cli("verify", path, entry["verify"])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "witness:" in proc.stdout
    assert "result: FAIL" in proc.stdout


def test_reports_are_byte_identical_across_runs(determinism_pair):
    first, second = determinism_pair
    assert first == second


def test_start_up_loads_no_dataclasses_or_typing():
    # these modules (dataclasses pulls in inspect, ast and dis) once cost about a third
    # of every CLI call; the stdlib modules the CLI needs load none of them
    heavy = ("dataclasses", "inspect", "ast", "dis", "typing")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, xmhopf.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# the interpreter's builtin SHA-256 module that the CLI imports: _sha2 on 3.12+, _sha256
# on 3.10 and 3.11, or hashlib on a build that has neither
BUILTIN_SHA256 = next(
    (m for m in ("_sha2", "_sha256") if importlib.util.find_spec(m) is not None), "hashlib")


def test_start_up_loads_only_what_the_stdlib_it_needs_loads():
    # `import xmhopf.cli` may load no module that these stdlib imports do not load
    # themselves; comparing with the stdlib, not a fixed list, holds on every Python
    stdlib = ("__future__, _json, collections.abc, itertools, math, operator, types, "
              + BUILTIN_SHA256)

    def loaded(imports):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", f"import sys, {imports}; print(*sys.modules)"],
            env=cli_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return {m for m in proc.stdout.split() if m != "xmhopf" and not m.startswith("xmhopf.")}

    assert loaded("xmhopf.cli") <= loaded(stdlib)


def imported_by(argv):
    """The modules a full text-mode `-m` call that passes imports, as -X importtime names
    them on stderr."""
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "xmhopf.cli", *argv],
                          env=cli_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("result: PASS\n")
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.skipif(BUILTIN_SHA256 == "hashlib", reason="this build has no builtin SHA-256")
def test_a_full_call_loads_no_openssl():
    # hashlib loads _hashlib, and with it OpenSSL's libcrypto, which once cost every call
    # about 1.7 ms
    imported = imported_by(["verify", DOC, "k_xi_z2"])
    assert BUILTIN_SHA256 in imported
    assert not imported & {"hashlib", "_hashlib"}


@pytest.mark.parametrize("argv", [
    ["verify", DOC, "k_xi_z2"],
    ["report", str(FIXTURES / "k_xi_s3.json"), "k_xi_s3"],
    ["hom", DOC, "k_xi_z2", "k1", "kh", "--degree", "h"],
    ["structure-theorem", DOC, "k_xi_z2", "dual_mod"],
], ids=lambda argv: argv[0])
def test_a_full_call_loads_no_regex_fraction_or_json_module(argv):
    # re (with enum), fractions (with decimal and numbers) and json once cost every call about
    # 4.5 ms of 17 ms: scalars over Q are linalg.Rational, documents are read and outputs
    # written by _json's C scanner and encoder, and json itself loads only for --json
    unneeded = {"re", "enum", "fractions", "decimal", "numbers", "json", "json.decoder",
                "json.encoder"}
    imported = imported_by(argv)
    assert "_json" in imported
    assert not imported & unneeded


def test_without_builtin_sha256_the_digest_comes_from_hashlib():
    code = (
        "import io, sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from xmhopf import cli\nsys.stdout = io.StringIO()\n"
        f"code = cli.main(['verify', {DOC!r}, 'k_xi_z2'])\n"
        "out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__\n"
        "print(code, cli.sha256 is sys.modules['hashlib'].sha256, out.splitlines()[1])"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(pathlib.Path(DOC).read_bytes()).hexdigest()
    assert proc.stdout == f"0 True document-sha256: {digest}\n"
    assert f"\ndocument-sha256: {digest}\n" in run_cli("verify", DOC, "k_xi_z2").stdout


def test_a_full_call_loads_no_argument_parser():
    # argparse, and the shutil, gettext, locale and compression modules that building its
    # parser loads, once cost every call about 10 ms; a full call, not only the import, is run
    unneeded = ("argparse", "shutil", "gettext", "locale", "bz2", "lzma", "zlib")
    argv = ["hom", str(FIXTURES / "k_xi_z2.json"), "k_xi_z2", "k1", "kh", "--degree", "h", "--json"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import io, sys\nfrom xmhopf.cli import main\nsys.stdout = io.StringIO()\n"
         f"code = main({argv!r})\nsys.stdout = sys.__stdout__\n"
         f"print(code, [m for m in {unneeded!r} if m in sys.modules])"],
        env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


HOM = ["hom", DOC, "k_xi_z2", "k1", "kh"]
# each accepted command line, and the spelled-out form it means
SPELLED_OUT = [
    (["verify", "--json", DOC, "z2"], ["verify", DOC, "z2", "--json"]),
    (["verify", "--", DOC, "z2"], ["verify", DOC, "z2"]),
    (["verify", DOC, "--", "z2"], ["verify", DOC, "z2"]),
    (["verify", DOC, "z2", "--"], ["verify", DOC, "z2"]),
    (["verify", "--json", "--json", DOC, "z2"], ["verify", DOC, "z2", "--json"]),
    (["integrals", DOC, "k_xi_z2", "--side=left"], ["integrals", DOC, "k_xi_z2", "--side", "left"]),
    (["integrals", "--side", "right", DOC, "k_xi_z2"],
     ["integrals", DOC, "k_xi_z2", "--side", "right"]),
    (["integrals", DOC, "--side", "right", "k_xi_z2", "--side", "left"],
     ["integrals", DOC, "k_xi_z2", "--side", "left"]),
    (["integrals", DOC, "k_xi_z2", "--side", "both"], ["integrals", DOC, "k_xi_z2"]),
    (HOM + ["--degree=h"], HOM + ["--degree", "h"]),
    (["hom", "--json", "--degree", "1", DOC, "k_xi_z2", "k1", "kh"],
     HOM + ["--degree", "1", "--json"]),
    (HOM[:3] + ["--degree", "h"] + HOM[3:], HOM + ["--degree", "h"]),
]


def _call(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("form,spelled", SPELLED_OUT, ids=[" ".join(f[0]).replace(DOC, "DOC")
                                                          for f in SPELLED_OUT])
def test_accepted_command_line_means_its_spelled_out_form(form, spelled, capsys):
    got = _call(form, capsys)
    assert got == _call(spelled, capsys)
    assert got[0] == 0 and got[2] == ""


def test_document_dash_reads_stdin(monkeypatch, capsys):
    with open(DOC, "rb") as fh:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(fh.read())))
    assert _call(["verify", "-", "z2"], capsys) == _call(["verify", DOC, "z2"], capsys)


def test_negative_degree_is_read_as_a_value_then_out_of_range(capsys):
    assert _call(HOM + ["--degree", "-1"], capsys) == (
        2, "", "input error: degree -1 out of range\n")


@pytest.mark.parametrize("degree", ["-١", "-٣.٤"])
def test_negative_number_in_any_decimal_digits_is_a_value(degree, capsys):
    # "-" and Unicode decimal digits (U+0661 is ARABIC-INDIC DIGIT ONE) is read as a value, as
    # argparse read a negative number; it names no element and is no ASCII index
    assert _call(HOM + ["--degree", degree], capsys) == (
        2, "", f"input error: no element named {degree!r}\n")


def test_superscript_digit_is_no_number(capsys):
    # U+00B2 SUPERSCRIPT TWO is a digit (str.isdigit) but not a decimal digit (str.isdecimal),
    # so "-²" is not a negative number and reads as an option
    code, out, err = _call(HOM + ["--degree", "-²"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith("\nxmhopf: error: argument --degree: expected one argument\n")


# The grammar of a command-line value, as a regular expression: empty, "-", no leading "-",
# a space anywhere, or a negative number in Unicode decimal digits (\d)
VALUE_GRAMMAR = re.compile(r"\Z|-\Z|[^-]|.* |-\d+\Z|-\d*\.\d+\Z", re.S)


def test_value_reader_keeps_the_grammar():
    # every token of up to four characters over an alphabet that meets each branch
    alphabet = ["-", "1", ".", " ", "١", "²", "a", "\n"]
    tokens = [""]
    for _ in range(4):
        tokens += [t + c for t in tokens if len(t) == len(tokens[-1]) for c in alphabet]
    assert len(tokens) == sum(8**k for k in range(5))
    for tok in tokens:
        try:
            read = cli._read_argv(["hom", "--degree", tok, "d", "n", "s", "t"]).degree == tok
        except cli._Exit as exc:
            assert exc.args[2] == "argument --degree: expected one argument", tok
            read = False
        assert read == bool(VALUE_GRAMMAR.match(tok)), tok


# values of the shapes `output` lines hold, with labels outside ASCII
NESTED_OUTPUTS = [
    {"family": [["1/2", "-3"], []], "pairing": {"é": "1", "e": 1, "ζ": [True, False, None]}},
    {"☃": {"b": (2, 3), "a": [1, {"z": 'quote " backslash \\ newline \n tab \t \x01'}]},
     "😀": -10**40, "": []},
    [[], {}], {}, "ε", 0, -1, None, True, [1.5, float("inf"), float("-inf"), float("nan")],
]


def test_output_writer_matches_json_dumps():
    for value in NESTED_OUTPUTS:
        assert cli._dumps(value) == json.dumps(value, sort_keys=True)
    for value in ({"x": {1, 2}}, [object()], {1: "int key", "a": "str key"}):
        with pytest.raises(TypeError) as ours:
            cli._dumps(value)
        with pytest.raises(TypeError) as reference:
            json.dumps(value, sort_keys=True)
        assert str(ours.value) == str(reference.value)


def test_degree_of_too_many_digits_is_unknown(capsys):
    # an index has at most MAX_LITERAL_DIGITS digits, so that int() never meets the
    # interpreter's own limit on the digits of a string ("1" labels the unit, "01" is index 1)
    assert _call(HOM + ["--degree", "0" * 4299 + "1"], capsys) == _call(
        HOM + ["--degree", "01"], capsys)
    for degree in ("1" + "0" * 4999, "-" + "1" * 4301):
        assert _call(HOM + ["--degree", degree], capsys) == (
            2, "", f"input error: no element named {degree!r}\n")


REFUSED = {
    "no-command": [],
    "unknown-command": ["frobnicate", DOC, "z2"],
    "missing-positional": ["verify", DOC],
    "extra-positional": ["verify", DOC, "z2", "extra"],
    "unknown-option": ["verify", DOC, "z2", "--bogus"],
    "unknown-short-option": ["verify", DOC, "z2", "-x"],
    "json-before-command": ["--json", "verify", DOC, "z2"],
    "json-with-a-value": ["verify", DOC, "z2", "--json=1"],
    "degree-on-verify": ["verify", DOC, "z2", "--degree", "0"],
    "side-on-hom": HOM + ["--side", "left"],
    "side-sideways": ["integrals", DOC, "k_xi_z2", "--side", "sideways"],
    "side-without-value": ["integrals", DOC, "k_xi_z2", "--side"],
    "side-help-as-value": ["integrals", DOC, "k_xi_z2", "--side", "-h"],
    "degree-option-as-value": HOM + ["--degree", "--json"],
    "degree-without-value": HOM + ["--degree"],
    "second-double-dash": ["verify", DOC, "z2", "--", "--"],
    # argparse read these prefixes as --json and --side; no option is abbreviated now
    "abbreviated-json": ["verify", DOC, "z2", "--js"],
    "abbreviated-side": ["integrals", DOC, "k_xi_z2", "--si", "left"],
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=list(REFUSED))
def test_refused_command_line_exits_2_with_usage(argv, capsys):
    code, out, err = _call(argv, capsys)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: xmhopf ")
    assert error.startswith("xmhopf: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,usage", [
    (["-h"], "usage: xmhopf [-h] {verify,integrals,grouplikes,dual,structure-theorem,hom,report}"),
    (["--help"], "usage: xmhopf [-h] {verify,"),
    (["verify", "-h"], "usage: xmhopf verify [-h] [--json] document name\n"),
    (HOM + ["--help"], "usage: xmhopf hom [-h] [--json] [--degree D] document name source target"),
    (["integrals", "-h"], "usage: xmhopf integrals [-h] [--json] [--side {left,right,both}]"),
    (["verify", DOC, "z2", "--bogus", "-h"], "usage: xmhopf verify "),
])
def test_help_exits_0_on_stdout(argv, usage, capsys):
    code, out, err = _call(argv, capsys)
    assert (code, err) == (0, "")
    assert out.startswith(usage)


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["xmhopf", "verify", DOC, "z2", "--json"])
    code, out, err = _call(None, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["object"] == "z2"


MUTATION = json.loads((FIXTURES / "mutations" / "manifest.json").read_text())[0]
# one "}" short: the scanner itself raises the JSONDecodeError, which a child process, unlike
# pytest's, meets before anything has loaded json
BROKEN_DOCUMENT = '{"field": {"kind": "rational"}, "groups": {"g": {"cyclic": 2}}'
# a child process ends with os._exit(main()), skipping teardown, and main flushes its own
# output; each of these must give the bytes and exit status of main called in process.  The
# --json calls and the invalid document take the paths that load json when they run.
PROCESS_AND_IN_PROCESS = {  # name: (argv, exit status); "BROKEN" is a file of BROKEN_DOCUMENT
    "passing-verify": (["verify", DOC, "k_xi_z2"], 0),
    "failing-mutation": (["verify", str(FIXTURES / "mutations" / MUTATION["file"]),
                          MUTATION["verify"]], 1),
    "input-error": (["verify", DOC, "no_such_structure"], 2),
    "refused-command-line": (REFUSED["missing-positional"], 2),
    "help": (["-h"], 0),
    "largest-output": (["report", str(FIXTURES / "k_xi_s3.json"), "k_xi_s3", "--json"], 0),
    "verify-json": (["verify", DOC, "k_xi_z2", "--json"], 0),
    "integrals-json": (["integrals", DOC, "k_xi_z2", "--json"], 0),
    "grouplikes-json": (["grouplikes", DOC, "k_xi_z2", "--json"], 0),
    "dual-json": (["dual", DOC, "k_xi_z2", "--json"], 0),
    "structure-theorem-json": (["structure-theorem", DOC, "k_xi_z2", "dual_mod", "--json"], 0),
    "hom-json": (HOM + ["--json"], 0),
    "invalid-json": (["verify", "BROKEN", "g"], 2),
}


@pytest.mark.parametrize("argv, status", PROCESS_AND_IN_PROCESS.values(),
                         ids=list(PROCESS_AND_IN_PROCESS))
def test_a_child_process_gives_the_bytes_of_an_in_process_call(argv, status, capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text(BROKEN_DOCUMENT)
    argv = [str(broken) if arg == "BROKEN" else arg for arg in argv]
    proc = subprocess.run([sys.executable, "-S", "-m", "xmhopf.cli", *argv], env=cli_env(),
                          capture_output=True, timeout=60)
    code, out, err = _call(argv, capsys)
    assert code == status
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


def verify_writing_to(stdout):
    return subprocess.run([sys.executable, "-S", "-m", "xmhopf.cli", "verify", DOC, "k_xi_z2"],
                          env=cli_env(), stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=60)


def test_closed_stdout_is_an_output_error():
    # the interpreter sets sys.stdout to None when descriptor 1 is closed at start-up
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-S", "-m",
                           "xmhopf.cli", "verify", DOC, "k_xi_z2"],
                          env=cli_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "output error: stdout is closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_device_is_an_output_error():
    with open("/dev/full", "wb") as full:
        proc = verify_writing_to(full)
    assert proc.returncode == 2
    assert proc.stderr == "output error: [Errno 28] No space left on device\n"


def test_pipe_without_a_reader_is_an_output_error():
    # the read end is closed before the child starts, so its first write meets no reader
    read, write = os.pipe()
    os.close(read)
    try:
        proc = verify_writing_to(write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "output error: [Errno 32] Broken pipe\n")


def test_unwritable_output_in_process_is_an_output_error(monkeypatch, capsys):
    closed = io.StringIO()
    closed.close()
    monkeypatch.setattr(sys, "stdout", closed)
    assert main(["verify", DOC, "k_xi_z2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: I/O operation on closed file") and err.count("\n") == 1


def test_deeply_nested_json_is_input_error():
    proc = subprocess.run(
        [sys.executable, "-m", "xmhopf.cli", "verify", "-", "g"],
        input="[" * 100000, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "input error" in proc.stderr and "Traceback" not in proc.stderr


def test_integer_with_too_many_digits_is_invalid_json(tmp_path):
    # json.loads refuses an integer of more than 4,300 digits with a ValueError that is not
    # a JSONDecodeError, and json.dumps cannot write one, so the bytes are written directly
    path = tmp_path / "digits.json"
    path.write_bytes(b'{"field": {"kind": "rational"}, "groups": {"g": {"cyclic": 1'
                     + b"0" * 4999 + b"}}}")
    proc = run_cli("verify", str(path), "g", timeout=60)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    # the document's own limit, not Python's advice to call sys.set_int_max_str_digits()
    assert proc.stderr == ("input error: document: invalid JSON: an integer of 5000 digits; "
                           "a document's integers have at most 4300 digits\n")


def test_document_that_repeats_a_key_is_an_input_error():
    # json.loads keeps the last value, so this document verified z2 as Z/2 and exited 0
    text = '{"field": {"kind": "rational"}, "groups": {"z2": {"cyclic": 3}, "z2": {"cyclic": 2}}}'
    proc = subprocess.run([sys.executable, "-m", "xmhopf.cli", "verify", "-", "z2"],
                          input=text, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "input error: document: an object repeats the key 'z2'\n"


def test_rational_literal_with_too_many_digits_is_refused_at_its_path(tmp_path):
    doc = json.loads((FIXTURES / "k_xi_z2.json").read_text())
    doc["grouplikes"]["unit_family"]["family"] = [["1" + "0" * 5000], ["-1/1" + "0" * 4300]]
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("verify", str(path), "z2", timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("input error: grouplikes.unit_family.family[0][0]: an integer of "
                           "5001 digits; a document's integers have at most 4300 digits\n")
    doc["grouplikes"]["unit_family"]["family"][0] = ["-1" + "0" * 4299]  # 4300 digits is read
    path.write_text(json.dumps(doc))
    proc = run_cli("verify", str(path), "z2", timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("input error: grouplikes.unit_family.family[1][0]: an integer of "
                           "4301 digits; a document's integers have at most 4300 digits\n")


def test_huge_exponent_literal_is_refused_at_once(tmp_path):
    # Fraction("1e10000000") builds a 10^7-digit integer: verify once took 12 s and passed,
    # although the family holding the literal is not the object verified
    doc = json.loads((FIXTURES / "k_xi_z2.json").read_text())
    doc["grouplikes"]["sign_family"]["family"] = [["1"], ["1e10000000"]]
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    proc = run_cli("verify", str(path), "z2", timeout=60)
    assert time.monotonic() - start < 10
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "input error: grouplikes.sign_family.family[1][0]: not a rational literal" in proc.stderr
    assert "Traceback" not in proc.stderr


_N = MAX_GROUP_ORDER + 1
_FACTOR = math.isqrt(MAX_GROUP_ORDER) + 1  # its square is above the bound
OVER_BOUND = {
    "cyclic": {"g": {"cyclic": _N}},
    "cyclic-huge": {"g": {"cyclic": 10**8}},
    "product": {"h": {"cyclic": _FACTOR}, "g": {"product": ["h", "h"]}},
    "table": {"g": {"order": _N, "table": [[(a + b) % _N for b in range(_N)] for a in range(_N)]}},
}


@pytest.mark.parametrize("groups", OVER_BOUND.values(), ids=list(OVER_BOUND))
def test_group_order_above_bound_is_input_error(groups):
    # verifying a group checks all order^3 triples: cyclic 10^8 once ran past any timeout
    doc = {"field": {"kind": "rational"}, "groups": groups}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "xmhopf.cli", "verify", "-", "g"],
        input=json.dumps(doc), capture_output=True, text=True, timeout=60,
    )
    assert time.monotonic() - start < 10
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert f"above the bound {MAX_GROUP_ORDER}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unreached_failing_structure_is_not_built(tmp_path):
    # rho_z2 is graded by Z/2, not by the trivial cokernel of id: Z/2 -> Z/2, so `inflated`
    # cannot be built; only the commands that reach it, directly or through its dual
    # module, fail, and each names the entry
    doc = json.loads((FIXTURES / "rho_z2.json").read_text())
    doc["hopf"]["inflated"] = {"from_pi_coalgebra": {"cm": "cm_z2", "base": "rho_z2"}}
    doc["hopf_modules"]["inflated_dual"] = {"over": "inflated", "dual": True}
    path = tmp_path / "bad_inflation.json"
    path.write_text(json.dumps(doc))
    for name in ("one", "z2", "cm_z2", "kz2_classical", "rho_z2", "dual_mod"):
        proc = run_cli("verify", str(path), name)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("inflated", "inflated_dual"):
        proc = run_cli("verify", str(path), name)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "input error: hopf.inflated: b must be graded by the cokernel of the crossed module\n"
        )


def test_directive_whose_rho_breaks_a_law_gets_a_failing_report(tmp_path):
    # rho(1) = diag(1, 2) is not an algebra automorphism of k[Z/2]; rho_z2 is still built,
    # and its report names the axioms that fail
    doc = json.loads((FIXTURES / "rho_z2.json").read_text())
    doc["hopf"]["rho_z2"]["from_h_action"]["rho"][1] = [["1", "0"], ["0", "2"]]
    path = tmp_path / "bad_rho.json"
    path.write_text(json.dumps(doc))
    for name in ("one", "z2", "cm_z2", "kz2_classical"):
        proc = run_cli("verify", str(path), name)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("rho_z2", "dual_mod"):
        proc = run_cli("verify", str(path), name)
        assert proc.returncode == 1 and proc.stderr == "", proc.stderr
        assert "result: FAIL" in proc.stdout
    proc = run_cli("verify", str(path), "rho_z2")
    assert "regular Hopf module: (d) psi equivariance laws" in proc.stdout


def test_dual_hopf_module_is_built_only_when_reached(monkeypatch, capsys):
    import xmhopf.cli as cli
    import xmhopf.docio as docio

    calls = []
    original = docio.dual_hopf_module

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(docio, "dual_hopf_module", counting)
    doc = str(FIXTURES / "k_xi_z2.json")
    for name in ("k_xi_z2", "trivial_mod_2", "k1"):
        assert cli.main(["verify", doc, name]) == 0
    assert cli.main(["report", doc, "k_xi_z2"]) == 0  # builds its own dual module
    assert calls == []
    assert cli.main(["structure-theorem", doc, "k_xi_z2", "dual_mod"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize("sections", DEFERRED_MALFORMED.values(), ids=list(DEFERRED_MALFORMED))
def test_deferred_entry_is_still_checked_when_parsed(sections):
    proc = subprocess.run(
        [sys.executable, "-m", "xmhopf.cli", "verify", "-", "g"],
        input=json.dumps(dict(WELL_FORMED, **sections)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "input error" in proc.stderr


def _cyclic_document(n, hopf):
    return {
        "field": {"kind": "rational"},
        "groups": {"g": {"cyclic": n}},
        "crossed_modules": {"cm": {"identity": "g"}},
        "hopf": {"k": hopf},
    }


def trivial_cyclic(n):
    """The trivial structure over id: Z/n -> Z/n: |H|^3 + |H|^4 identity cases."""
    return _cyclic_document(n, {"trivial": "cm"})


def bicharacter_cyclic(n):
    """k[Z/n] with the trivial bicharacter of Z/n: one component of dimension n."""
    return _cyclic_document(n, {"bicharacter": {"E": "g", "G": "g", "omega": [["1"] * n] * n}})


# documents that ran for minutes or without end before the cost guard
OVER_COST = [
    ("trivial-cyclic-100", trivial_cyclic(100), "verify"),
    ("trivial-cyclic-100", trivial_cyclic(100), "integrals"),
    ("trivial-cyclic-100", trivial_cyclic(100), "grouplikes"),
    ("bicharacter-z24", bicharacter_cyclic(24), "verify"),
    ("bicharacter-z24", bicharacter_cyclic(24), "integrals"),
]


@pytest.mark.parametrize(
    "doc,command", [(d, c) for _, d, c in OVER_COST], ids=[f"{n}-{c}" for n, _, c in OVER_COST]
)
def test_structure_above_cost_bound_is_input_error(doc, command):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "xmhopf.cli", command, "-", "k"],
        input=json.dumps(doc), capture_output=True, text=True, timeout=60,
    )
    assert time.monotonic() - start < 10
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert "hopf.k: validation cost" in proc.stderr
    assert f"above the bound {MAX_VALIDATION_COST}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cost_bound_sits_where_the_ladder_put_it():
    # the largest sizes the bound admits, where verify, report, dual and structure-theorem
    # take 0.49-0.58 s over Z/38 and 0.09-0.17 s over k[Z/16] (docio's comment), and the
    # next ones, which it refuses
    from xmhopf.docio import DocumentSyntaxError

    for admitted, refused in ((trivial_cyclic(38), trivial_cyclic(39)),
                              (bicharacter_cyclic(16), bicharacter_cyclic(17))):
        assert parse(json.dumps(admitted).encode()).hopf["k"].dim(0) >= 1
        with pytest.raises(DocumentSyntaxError, match="above the bound"):
            parse(json.dumps(refused).encode()).hopf["k"]


def test_cost_guard_runs_before_a_directive_is_built(monkeypatch, tmp_path, capsys):
    import xmhopf.cli as cli
    import xmhopf.docio as docio

    def never(*args):
        raise AssertionError("the construction ran")

    monkeypatch.setattr(docio, "mk_bicharacter_group_algebra", never)
    path = tmp_path / "z24.json"
    path.write_text(json.dumps(bicharacter_cyclic(24)))
    assert cli.main(["verify", str(path), "g"]) == 0  # the structure is not reached
    assert cli.main(["verify", str(path), "k"]) == 2
    assert "above the bound" in capsys.readouterr().err


def test_validation_builds_no_kronecker_product_of_two_products(monkeypatch):
    # over k[Z/16], Delta and the regular module's rho have 16 nonzeros each, mu and r 256:
    # check (c) flips the rows of Delta (x) rho (256 nonzeros) and never builds mu (x) r (65,536)
    a = parse(json.dumps(bicharacter_cyclic(16)).encode()).hopf["k"]
    kron, sizes = Matrix.kron, []

    def spy(self, other):
        out = kron(self, other)
        sizes.append(sum(map(len, out.nz)))
        return out

    monkeypatch.setattr(Matrix, "kron", spy)
    assert full_validation_report(a).ok
    assert sizes and max(sizes) <= 256


def _limit_memory():
    """Cap the child's address space at 2 GiB, so that a regression fails instead of
    exhausting the machine."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


def test_trivial_hopf_module_above_cost_bound_is_input_error():
    # a 200-byte document: A (x) V with dim V = 20000 was built while parsing, and
    # Matrix.identity(20000) ran out of memory after about 5 s
    doc = dict(WELL_FORMED, hopf_modules={"m": {"over": "k", "trivial": 20000}})
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "xmhopf.cli", "verify", "-", "k"], input=json.dumps(doc),
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert time.monotonic() - start < 10
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert "input error: hopf_modules.m: validation cost" in proc.stderr
    assert f"above the bound {MAX_VALIDATION_COST}" in proc.stderr
    assert "Traceback" not in proc.stderr


def _with_trivial_module(doc, v):
    return dict(doc, hopf_modules={"t": {"over": "k", "trivial": v}})


# the largest trivial modules the guard admits over the structures at the bound, checked and
# trivialised as A (x) V itself: verify takes 0.23 s (k[Z/16]) and 0.61 s (Z/38), and
# structure-theorem 0.24 s and 2.1 s, most of it eliminating A (x) V's coinvariant system
# of 155,952 equations in 2,052 unknowns over Z/38 (best of 3 CLI runs; docio's
# trivial_module_cost)
AT_BOUND = [
    ("k[Z/16]-trivial-4-verify", _with_trivial_module(bicharacter_cyclic(16), 4), ["verify", "t"]),
    ("Z/38-trivial-54-verify", _with_trivial_module(trivial_cyclic(38), 54), ["verify", "t"]),
    ("k[Z/16]-trivial-4-structure-theorem", _with_trivial_module(bicharacter_cyclic(16), 4),
     ["structure-theorem", "k", "t"]),
    ("Z/38-trivial-54-structure-theorem", _with_trivial_module(trivial_cyclic(38), 54),
     ["structure-theorem", "k", "t"]),
]


@pytest.mark.parametrize("doc,args", [(d, a) for _, d, a in AT_BOUND],
                         ids=[n for n, _, _ in AT_BOUND])
def test_trivial_hopf_module_at_the_cost_bound_is_prompt(doc, args):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "xmhopf.cli", args[0], "-", *args[1:]], input=json.dumps(doc),
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert time.monotonic() - start < 10
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("result: PASS\n")
    assert proc.stderr == ""


_LARGE_COINVARIANTS = """
import sys
from xmhopf.docio import parse
from xmhopf.hopfmod import coinvariants, trivial_hopf_module
a, v = parse(sys.stdin.buffer.read()).hopf["k"], 40
f = a.field
expected = [tuple(f.mul(u, f.one if k == i else f.zero)
                  for u in a.component(x).unit for k in range(v)) for i in range(v)
            for x in a.H.elements()]
basis = coinvariants(a, trivial_hopf_module(a, v))
print(len(basis), [c for family in basis for c in family] == expected)
"""


def test_coinvariants_of_a_large_trivial_module_are_prompt():
    # the coinvariant system of A (x) V over Z/38 with dim V = 40 has 115,520 rows of 1,520
    # columns: eliminating on dense working rows ran out of the 2 GiB address space
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _LARGE_COINVARIANTS], input=json.dumps(trivial_cyclic(38)),
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert time.monotonic() - start < 10
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the 40 coinvariants 1_x (x) v_i, as in test_coinvariants_of_trivial_modules
    assert proc.stdout == "40 True\n"


def test_trivial_hopf_module_cost_bound_sits_where_the_ladder_put_it():
    # 4 |H| dim (dim v)^3 units: the trivial structure over Z/2 admits a fibre of 146, where
    # structure-theorem takes at most 0.12 s (docio's trivial_module_cost), and refuses 147
    from xmhopf.docio import DocumentSyntaxError

    def doc(v):
        return json.dumps(dict(WELL_FORMED, hopf_modules={"m": {"over": "k", "trivial": v}}))

    assert parse(doc(146).encode()).hopf_modules["m"][1].dims == (146, 146)
    with pytest.raises(DocumentSyntaxError, match="hopf_modules.m: validation cost"):
        parse(doc(147).encode())


def test_grouplikes_of_the_trivial_structure_are_prompt():
    # the exhaustive search tried 2^14 candidate families here and took 2.3 s
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "xmhopf.cli", "grouplikes", "-", "k", "--json"],
        input=json.dumps(trivial_cyclic(14)), capture_output=True, text=True, timeout=60,
    )
    assert time.monotonic() - start < 1
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["outputs"]["count"] == 2


def test_grouplike_search_over_budget_is_input_error(monkeypatch, capsys):
    import xmhopf.cli as cli
    import xmhopf.hopf as hopf

    monkeypatch.setattr(hopf, "GROUPLIKE_VISIT_BUDGET", 3)
    assert cli.main(["grouplikes", str(FIXTURES / "rho_z2.json"), "rho_z2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: grouplike search visited more than 3 partial families\n"


def broken_twisted_document(tmp_path):
    """rho_z2.json with k[Z/2] given explicitly and one entry of its coproduct changed.

    rho still meets every precondition of the twisted construction, so rho_z2 is
    built; it breaks the coalgebra and antipode axioms.  Two modules over it serve hom.
    """
    doc = json.loads((FIXTURES / "rho_z2.json").read_text())
    doc["crossed_modules"]["point"] = {"trivial_over": "one"}
    doc["hopf"]["kz2_classical"] = {
        "cm": "point",
        "components": [{"mul": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
                        "unit": ["1", "0"]}],
        "coproduct": {"0,0": [["1", "1"], ["0", "0"], ["0", "0"], ["0", "1"]]},
        "counit": ["1", "1"],
        "antipode": [[["1", "0"], ["0", "1"]]],
        "action": {"0,0": [["1", "0"], ["0", "1"]]},
    }
    doc["modules"] = {"unit_mod": {"over": "rho_z2", "unit": True},
                      "regular_mod": {"over": "rho_z2", "regular": 0}}
    path = tmp_path / "broken_twisted.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_directive_that_breaks_an_axiom_gets_a_report(tmp_path):
    # a directive is validated by the commands that print a verdict, as an explicit
    # structure is; it used to exit 2 with "twisted constant family failed validation"
    path = broken_twisted_document(tmp_path)
    for command in ("verify", "report", "dual"):
        proc = run_cli(command, path, "rho_z2")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "witness: coassociativity at (x,y,z)=(0,0,0)" in proc.stdout
        assert "result: FAIL" in proc.stdout and proc.stderr == ""
    report = run_cli("report", path, "rho_z2").stdout
    assert ("check derived structure: distinguished grouplike verified: FAIL (1 violations)\n"
            "  witness: right integral space has dimension 0, expected 1\n") in report
    assert "dual Hopf module" not in report  # the coassociativity witness above is A's own
    for args in (["integrals", "rho_z2"], ["grouplikes", "rho_z2"],
                 ["hom", "rho_z2", "unit_mod", "regular_mod"]):
        proc = run_cli(args[0], path, *args[1:])
        assert proc.returncode in (0, 1), proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr


def _count_calls(monkeypatch, name, *modules):
    """The list of argument tuples of every call of function `name`, patched in each module."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod in modules:
        monkeypatch.setattr(mod, name, counting)
    return calls


def test_structure_is_validated_only_by_the_commands_that_report_it(
        monkeypatch, tmp_path, capsys):
    import xmhopf.cli as cli
    import xmhopf.xihopf as xihopf

    doc = json.loads((FIXTURES / "rho_z2.json").read_text())
    doc["modules"] = {"unit_mod": {"over": "rho_z2", "unit": True},
                      "regular_mod": {"over": "rho_z2", "regular": 0}}
    path = tmp_path / "rho_z2.json"
    path.write_text(json.dumps(doc))
    calls = _count_calls(monkeypatch, "full_validation_report", cli, xihopf)
    for args, validations in [
        (["integrals", "rho_z2"], 0),
        (["grouplikes", "rho_z2"], 0),
        (["hom", "rho_z2", "unit_mod", "regular_mod"], 0),
        (["verify", "dual_mod"], 0),
        (["structure-theorem", "rho_z2", "dual_mod"], 0),
        (["verify", "rho_z2"], 1),
        (["report", "rho_z2"], 1),
    ]:
        calls.clear()
        assert cli.main([args[0], str(path), *args[1:]]) == 0, args
        assert len(calls) == validations, args
    capsys.readouterr()


def test_dual_hopf_module_is_validated_once(monkeypatch, capsys):
    # and report, which validates the structure as its own regular Hopf module, builds none
    import xmhopf.cli as cli
    import xmhopf.docio as docio
    import xmhopf.hopfmod as hopfmod

    validations = _count_calls(monkeypatch, "validate_hopf_xi_module", cli, hopfmod)
    builds = _count_calls(monkeypatch, "dual_hopf_module", docio, hopfmod)
    doc = str(FIXTURES / "rho_z2.json")
    for args, count in [(["verify", doc, "dual_mod"], 1),
                        (["structure-theorem", doc, "rho_z2", "dual_mod"], 1),
                        (["report", doc, "rho_z2"], 0)]:
        validations.clear()
        builds.clear()
        assert cli.main(args) == 0, args
        assert (len(validations), len(builds)) == (1, count), args
    capsys.readouterr()


def test_trivial_hopf_module_is_checked_as_its_structure(monkeypatch, tmp_path, capsys):
    # the module checked and trivialised is the module itself: A (x) V, with dims dim A_x * v
    import xmhopf.cli as cli
    import xmhopf.hopfmod as hopfmod

    validations = _count_calls(monkeypatch, "validate_hopf_xi_module", cli, hopfmod)
    solved = _count_calls(monkeypatch, "coinvariants", cli, hopfmod)
    doc = json.loads((FIXTURES / "k_xi_z2.json").read_text())
    doc["hopf_modules"]["trivial_mod_0"] = {"over": "k_xi_z2", "trivial": 0}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    for args, dims, coinvariant_dims in [
        (["verify", DOC, "trivial_mod_2"], (2, 2), []),
        (["structure-theorem", DOC, "k_xi_z2", "trivial_mod_2"], (2, 2), [(2, 2)]),
        (["verify", str(path), "trivial_mod_0"], (0, 0), []),
        (["structure-theorem", str(path), "k_xi_z2", "trivial_mod_0"], (0, 0), [(0, 0)]),
    ]:
        validations.clear()
        solved.clear()
        assert cli.main(args) == 0, args
        assert [m.dims for _, m in validations] == [dims], args
        assert [m.dims for _, m in solved] == coinvariant_dims, args
    capsys.readouterr()


def test_trivial_hopf_module_tensors_each_distinct_map_once():
    # equal maps of A share one product with id_V, so that Report.identity finds equal
    # operands the same object instead of comparing them entry by entry: 1,444 equal
    # 54 x 54 maps over Z/38 at v = 54
    from xmhopf.hopfmod import trivial_hopf_module

    a = parse(json.dumps(trivial_cyclic(5)).encode()).hopf["k"]
    assert len({id(t) for t in trivial_hopf_module(a, 3).rho.values()}) == 1
    distinct = []
    for name, a in fixture_structures():
        xs, es, iv = a.H.elements(), a.E.elements(), Matrix.identity(a.field, 3)
        maps = ([a.component(x).mul for x in xs] + [a.delta(x, y) for x in xs for y in xs]
                + [a.phi(x, e) for x in xs for e in es])
        m = trivial_hopf_module(a, 3)
        tensored = list(m.r) + list(m.rho.values()) + list(m.psi.values())
        assert tensored == [g.kron(iv) for g in maps], name
        assert len({id(t) for t in tensored}) == len(set(maps)), name
        distinct.append(len(set(maps)))
    assert max(distinct) > 1  # some fixture structure has maps that differ


def test_hopf_module_over_a_crossed_module_that_breaks_peiffer_fails(tmp_path):
    # S3 -> 1 with the trivial action breaks Peiffer (xi(e).f = f, not e f e^-1), and
    # nothing else; the explicit module k passes its own checks, whose reduced check (d)
    # rests on Peiffer, so verify and structure-theorem merge it as a premise
    doc = {
        "field": {"kind": "rational"},
        "groups": {"s3": {"symmetric": 3}, "one": {"cyclic": 1}},
        "crossed_modules": {"cm": {"E": "s3", "H": "one", "xi": [0] * 6,
                                   "action": [list(range(6))]}},
        "hopf": {"k": {"trivial": "cm"}},
        "hopf_modules": {"m": {"over": "k", "dims": [1], "r": [[["1"]]],
                               "rho": {"0,0": [["1"]]},
                               "psi": {f"0,{e}": [["1"]] for e in range(6)}}},
    }
    path = tmp_path / "peiffer.json"
    path.write_text(json.dumps(doc))
    premise = "check premises over the structure: crossed module: Peiffer identity"
    for args in (["verify", str(path), "m"], ["structure-theorem", str(path), "k", "m"]):
        proc = run_cli(*args)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        failing = [line for line in proc.stdout.splitlines() if "FAIL (" in line]
        assert failing and all(line.startswith(premise) for line in failing), failing
        assert "check Hopf crossed-module module: (d) psi equivariance laws: pass" in proc.stdout
        assert proc.stderr == ""


def test_report_solves_each_integral_system_once(monkeypatch, capsys):
    # the distinguished grouplike reuses the right integrals
    import xmhopf.cli as cli
    import xmhopf.hopfmod as hopfmod

    calls = _count_calls(monkeypatch, "integral_space", cli, hopfmod)
    assert cli.main(["report", str(FIXTURES / "rho_z2.json"), "rho_z2"]) == 0
    assert sorted(side for _, side in calls) == ["left", "right"]
    capsys.readouterr()


# S3 in lexicographic order (xmhopf.groups.symmetric): the odd permutations
S3_ODD = {1, 2, 5}


def sign_s3(e) -> int:
    return -1 if e in S3_ODD else 1


def s3_omega(rule):
    """An omega table over E = G = S3, entry (e, g) given by rule(e, g) as an integer."""
    return [[str(rule(e, g)) for g in range(6)] for e in range(6)]


# omega(e, g) = -1 exactly when e and g are odd is a bicharacter; each entry below breaks
# it in one way, keeping what it can of the other laws
BROKEN_OMEGA = {
    "zero": lambda e, g: 0 if (e, g) == (1, 1) else sign_s3(e) if g in S3_ODD else 1,
    "omega(1,g) != 1": lambda e, g: 2 if (e, g) == (0, 1) else sign_s3(e) if g in S3_ODD else 1,
    "not multiplicative in E": lambda e, g: 1 if e == 0 else sign_s3(g),
    "not multiplicative in G": lambda e, g: 1 if g == 0 else sign_s3(e),
    "omega(e,1) != 1": lambda e, g: 2 if (e, g) == (1, 0) else sign_s3(e) if g in S3_ODD else 1,
}
# rho over id: Z/2 -> Z/2 on k[Z/2] (rho_z2.json), or over id: Z/3 -> Z/3
BROKEN_RHO = {
    "singular": ("cm_z2", [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "0"]]]),
    "not multiplicative": ("cm_z2", [[["1", "0"], ["0", "1"]], [["1", "1"], ["0", "1"]]]),
    "not unital": ("cm_z2", [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]),
    "rho(1) != id": ("cm_z2", [[["1", "0"], ["0", "-1"]], [["1", "0"], ["0", "1"]]]),
    # every entry an algebra automorphism, but rho(g) rho(g^2) = rho(g) != rho(1)
    "not a homomorphism": ("cm_z3", [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]],
                                     [["1", "0"], ["0", "1"]]]),
}


def over_each_structure(doc, names):
    """doc with a unit and a regular module, a dual and a trivial Hopf module over each name."""
    doc.setdefault("modules", {})
    doc.setdefault("hopf_modules", {})
    for name in names:
        doc["modules"][f"{name}_unit"] = {"over": name, "unit": True}
        doc["modules"][f"{name}_regular"] = {"over": name, "regular": 0}
        doc["hopf_modules"][f"{name}_dual"] = {"over": name, "dual": True}
        doc["hopf_modules"][f"{name}_trivial"] = {"over": name, "trivial": 1}
    return doc


def admitted_documents():
    """(case, document, its Hopf structures that break an axiom) on the inputs that a
    constructor no longer refuses."""
    s3, s4 = {"symmetric": 3}, {"symmetric": 4}
    points = {
        "field": {"kind": "rational"},
        "groups": {"s3": s3, "s4": s4},
        "crossed_modules": {"s3_point": {"to_point": "s3"}, "s4_point": {"to_point": "s4"}},
        "hopf": {"k_s3": {"trivial": "s3_point"}, "k_s4": {"trivial": "s4_point"}},
    }
    yield "to_point", over_each_structure(points, ["k_s3", "k_s4"]), ["k_s3", "k_s4"]
    for case, rule in BROKEN_OMEGA.items():
        doc = {
            "field": {"kind": "rational"},
            "groups": {"s3": s3},
            "hopf": {"bichar": {"bicharacter": {"E": "s3", "G": "s3", "omega": s3_omega(rule)}}},
        }
        yield f"omega: {case}", over_each_structure(doc, ["bichar"]), ["bichar"]
    for case, (cm, rho) in BROKEN_RHO.items():
        doc = json.loads((FIXTURES / "rho_z2.json").read_text())
        doc["groups"]["z3"] = {"cyclic": 3}
        doc["crossed_modules"]["cm_z3"] = {"identity": "z3"}
        doc["hopf"]["rho_z2"]["from_h_action"].update(cm=cm, rho=rho)
        yield f"rho: {case}", over_each_structure(doc, ["rho_z2"]), ["rho_z2"]


@pytest.mark.parametrize("doc, broken", [
    pytest.param(doc, broken, id=case) for case, doc, broken in admitted_documents()
])
def test_admitted_directive_inputs_give_reports_not_tracebacks(doc, broken, tmp_path, capsys):
    # formerly refused at construction (exit 2, no witness); each command now runs to a
    # verdict, and the structure's own checks fail
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    calls = [["verify", name] for key, section in doc.items() if key != "field"
             for name in section]
    for a in doc["hopf"]:
        calls += [[c, a] for c in ("report", "dual", "integrals", "grouplikes")]
    for a in broken:
        calls.append(["hom", a, f"{a}_unit", f"{a}_regular"])
        calls += [["structure-theorem", a, f"{a}_{m}"] for m in ("dual", "trivial")]
    for command, *args in calls:
        code = main([command, str(path), *args])
        out, err = capsys.readouterr()
        assert code in (0, 1) and err == "", (command, args, code, err)
        if command in ("verify", "report", "dual") and args[0] in broken:
            assert code == 1, (command, args, out)


# a constructor's input error, raised while an entry is built, under the entry's JSON path
CONSTRUCTOR_ERRORS = {
    "inclusion that is not normal": (
        {"groups": {"z2": {"cyclic": 2}, "s3": {"symmetric": 3}},
         "crossed_modules": {"cm": {"inclusion": {"source": "z2", "target": "s3", "map": [0, 1]}}}},
        "z2", "crossed_modules.cm: conjugate 2.1.2^-1 = 5 is outside the image"),
    "base not graded by the cokernel": (
        {"groups": {"z2": {"cyclic": 2}},
         "crossed_modules": {"cm": {"identity": "z2"}, "t": {"trivial_over": "z2"}},
         "hopf": {"b": {"trivial": "t"}, "a": {"from_pi_coalgebra": {"cm": "cm", "base": "b"}}}},
        "a", "hopf.a: b must be graded by the cokernel of the crossed module"),
    "bicharacter table of the wrong shape": (
        {"groups": {"z2": {"cyclic": 2}},
         "hopf": {"b": {"bicharacter": {"E": "z2", "G": "z2", "omega": [["1", "1"]]}}}},
        "b", "hopf.b: bicharacter table has wrong shape"),
}


@pytest.mark.parametrize("case", list(CONSTRUCTOR_ERRORS))
def test_constructor_input_error_names_the_entry(case, tmp_path, capsys):
    sections, name, message = CONSTRUCTOR_ERRORS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"field": {"kind": "rational"}, **sections}))
    assert main(["verify", str(path), name]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"input error: {message}\n")
