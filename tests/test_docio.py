import ast
import json
import pathlib
import subprocess
import sys

import pytest

from tests.conftest import DEFERRED_MALFORMED, MALFORMED, WELL_FORMED, cli_env
from xmhopf import docio
from xmhopf.docio import (
    MAX_GROUP_ORDER,
    DocumentError,
    DocumentSyntaxError,
    FieldMismatchError,
    UnknownNameError,
    _loads,
    parse,
    serialize,
)
from xmhopf.errors import XmhopfError
from xmhopf.linalg import Matrix, literal_int

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def doc_bytes(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


MINIMAL = {
    "field": {"kind": "rational"},
    "groups": {"z2": {"cyclic": 2}},
    "crossed_modules": {"cm": {"identity": "z2"}},
    "hopf": {"k_xi": {"trivial": "cm"}},
}


def test_minimal_document_parses():
    doc = parse(doc_bytes(MINIMAL))
    assert doc.all_names() == ["z2", "cm", "k_xi"]
    assert doc.hopf["k_xi"].dim(0) == 1


def test_invalid_json_is_syntax_error():
    with pytest.raises(DocumentSyntaxError):
        parse(b"{not json")


def test_division_by_zero_literal_is_syntax_error():
    bad = {
        "field": {"kind": "rational"},
        "groups": {"z2": {"cyclic": 2}},
        "hopf": {
            "b": {"bicharacter": {"E": "z2", "G": "z2", "omega": [["1", "1"], ["1", "1/0"]]}}
        },
    }
    with pytest.raises(DocumentSyntaxError) as err:
        parse(doc_bytes(bad))
    assert "omega" in str(err.value)


def test_garbage_literal_is_syntax_error():
    bad = dict(MINIMAL)
    bad = json.loads(json.dumps(MINIMAL))
    bad["grouplikes"] = {"g": {"in": "k_xi", "family": [["one"], ["1"]]}}
    with pytest.raises(DocumentSyntaxError):
        parse(doc_bytes(bad))


def test_rational_literal_in_prime_field_is_field_mismatch():
    bad = {
        "field": {"kind": "prime", "characteristic": 5},
        "groups": {"z2": {"cyclic": 2}},
        "crossed_modules": {"cm": {"identity": "z2"}},
        "hopf": {"k_xi": {"trivial": "cm"}},
        "grouplikes": {"g": {"in": "k_xi", "family": [["1/2"], [1]]}},
    }
    with pytest.raises(FieldMismatchError):
        parse(doc_bytes(bad))


def test_out_of_range_residue_is_field_mismatch():
    # an integer outside [0, 5) is named as a residue, a string literal over Q as a rational
    for raw, message in [(5, "residue 5 out of range for GF(5)"),
                         (7, "residue 7 out of range for GF(5)"),
                         (-1, "residue -1 out of range for GF(5)"),
                         ("1/2", "rational literal '1/2' in a GF(5) document"),
                         ("5", "rational literal '5' in a GF(5) document")]:
        bad = {
            "field": {"kind": "prime", "characteristic": 5},
            "groups": {"z2": {"cyclic": 2}},
            "crossed_modules": {"cm": {"identity": "z2"}},
            "hopf": {"k_xi": {"trivial": "cm"}},
            "grouplikes": {"g": {"in": "k_xi", "family": [[raw], [1]]}},
        }
        with pytest.raises(FieldMismatchError) as caught:
            parse(doc_bytes(bad))
        assert str(caught.value) == f"grouplikes.g.family[0][0]: {message}", raw


def integer_literal_document(fixture: str) -> dict:
    """The fixture in explicit form (docio.serialize), every integer literal of its Hopf
    structures and modules written as a JSON integer."""

    def ints(v):
        if isinstance(v, list):
            return [ints(x) for x in v]
        if isinstance(v, dict):
            return {k: ints(x) for k, x in v.items()}
        return int(v) if isinstance(v, str) and v.removeprefix("-").isdigit() else v

    doc = json.loads(serialize(parse((FIXTURES / fixture).read_bytes())))
    for section in ("hopf", "modules", "hopf_modules"):
        doc[section] = ints(doc.get(section, {}))
    return doc


# Each literal is read after the document's many integer literals 0 and 1 (the components,
# the antipode and the action come first): a memo of parsed literals must not take true,
# false or 1.0 for the integer they equal, nor pass a bad literal that follows good ones.
# Each message is that of a reader that parses every entry on its own.
COPRODUCT, RHO = ("hopf", "coproduct"), ("hopf_modules", "rho")
LITERAL_CASES = [
    (fixture, where, row, value, refused.format(shown))
    for fixture, refused in (
        ("bichar_z2.json", "not a rational literal: {}"),
        ("bichar_z2_gf5.json", "GF(5) scalar must be an integer, got {}"),
    )
    for value, shown in ((True, "True"), (False, "False"), (1.0, "1.0"))
    for where, row in ((COPRODUCT, 3), (COPRODUCT, 1))  # entry [row][1] follows a 1, a 0
] + [
    ("bichar_z2.json", RHO, 3, "x", "not a rational literal: 'x'"),
    ("bichar_z2.json", RHO, 3, "1/0", "not a rational literal: '1/0'"),
    ("bichar_z2_gf5.json", RHO, 3, 5, "residue 5 out of range for GF(5)"),
    ("bichar_z2_gf5.json", RHO, 3, "1", "rational literal '1' in a GF(5) document"),
]


@pytest.mark.parametrize("fixture, where, row, value, message", LITERAL_CASES)
def test_a_literal_is_refused_wherever_it_follows_equal_values(tmp_path, capsys, fixture, where,
                                                               row, value, message):
    from xmhopf.cli import main

    doc = integer_literal_document(fixture)
    section, table = where
    name = next(iter(doc[section]))
    doc[section][name][table]["0,0"][row][1] = value
    target = tmp_path / "doc.json"
    target.write_text(json.dumps(doc))
    assert main(["verify", str(target), name]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {section}.{name}.{table}[0,0][{row}][1]: {message}\n"


# The intern of literal matrices: a parse builds each distinct (shape, literals) pair once and
# hands an equal later entry the same Matrix, and a refused entry is refused as if read alone.
DOCUMENTS = sorted(str(p.relative_to(FIXTURES.parent)) for p in FIXTURES.glob("**/*.json")
                   if p.name != "manifest.json")


def wide_s3_document(tmp_path) -> bytes:
    """The benchmark's wide-s3 document (perfbench/gen.py, seed 1): explicit, with the Hopf
    module A (x) k, whose rho and psi tables are the structure's coproduct and action."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", FIXTURES.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.wide_s3(1, str(tmp_path))
    return (tmp_path / "wide_s3.json").read_bytes()


def literal_matrix_builds(monkeypatch, data: bytes):
    """parse(data), and the (rows, cols, literals as JSON) of each Matrix it builds from a
    literal matrix of the document."""
    from xmhopf import docio

    builds, init = [], Matrix.__init__

    def spy(self, field, rows_data, rows=None, cols=None):
        caller = sys._getframe(1)
        if caller.f_code is docio._parse_matrix.__code__:
            builds.append((rows, cols, json.dumps(caller.f_locals["raw"])))
        init(self, field, rows_data, rows, cols)

    monkeypatch.setattr(Matrix, "__init__", spy)
    doc = parse(data)
    monkeypatch.undo()
    return doc, builds


def test_equal_literal_matrices_of_wide_s3_are_one_object(tmp_path, monkeypatch):
    doc, builds = literal_matrix_builds(monkeypatch, wide_s3_document(tmp_path))
    a, (_, m) = doc.hopf["wide"], doc.hopf_modules["triv1"]
    for x in a.H.elements():
        for y in a.H.elements():
            assert m.rho[(x, y)] is a.delta(x, y)
        for e in a.E.elements():
            assert m.psi[(x, e)] is a.phi(x, e)
    assert len(builds) == len(set(builds))


@pytest.mark.parametrize("path", DOCUMENTS)
def test_a_parse_builds_each_distinct_literal_matrix_once(monkeypatch, path):
    # the explicit form writes every map out; a mutation's near-duplicates, one entry apart
    # from the originals beside them, must each keep their own matrix
    explicit = serialize(parse((FIXTURES.parent / path).read_bytes()))
    doc, builds = literal_matrix_builds(monkeypatch, explicit)
    assert builds and len(builds) == len(set(builds))
    assert serialize(doc) == explicit


IDENTITY = [[1, 0], [0, 1]]
R0 = [[1, 0, 0, 1], [0, 1, 1, 0]]  # r[0] of the dual module, its only 2 x 4 entry
# entries of the explicit integer form of bichar_z2: the antipode is its first 2 x 2 entry and
# psi[0,0] of the dual module comes after the action; each of the three holds IDENTITY
ANTIPODE, PSI, R = ("hopf", "antipode", 0), ("hopf_modules", "psi", "0,0"), ("hopf_modules", "r", 0)


def with_entry(matrix, row, col, value):
    return [[value if (i, j) == (row, col) else v for j, v in enumerate(r)]
            for i, r in enumerate(matrix)]


def interned_cases():
    """(id, fixture, slot, matrix, refusal): the matrix put in at the slot refuses the parse, after
    an equal good matrix (`later`) or before one (`earlier`), as a reader of each entry alone
    refuses it."""
    cases = []
    for fixture, refused, extra in (
        ("bichar_z2.json", "not a rational literal: {}", []),
        ("bichar_z2_gf5.json", "GF(5) scalar must be an integer, got {}",
         [("1", 1, "'1'", "rational literal '1' in a GF(5) document")]),
    ):
        literals = [(value, col, shown, refused.format(shown))
                    for value, col, shown in ((True, 1, "True"), (False, 0, "False"),
                                              (1.0, 1, "1.0"))]
        for value, col, shown, message in literals + extra:
            for order, slot in (("later", PSI), ("earlier", ANTIPODE)):
                cases.append((f"{fixture}-{shown}-{order}", fixture, slot,
                              with_entry(IDENTITY, 1, col, value), f"[1][{col}]: {message}"))
    # a matrix interned at one shape, met again where another is expected
    for order, slot, matrix, cols in (
        ("2x2-later-at-2x4", R, IDENTITY, 4),
        ("2x4-later-at-2x2", PSI, R0, 2),
        ("2x4-earlier-at-2x2", ANTIPODE, R0, 2),
    ):
        cases.append((f"shape-{order}", "bichar_z2.json", slot, matrix,
                      f": expected {cols} columns"))
    return cases


@pytest.mark.parametrize("fixture, slot, matrix, refusal", [c[1:] for c in interned_cases()],
                         ids=[c[0] for c in interned_cases()])
def test_a_copy_of_an_interned_matrix_is_refused_as_if_read_alone(fixture, slot, matrix,
                                                                 refusal):
    doc = integer_literal_document(fixture)
    section, table, key = slot
    name = next(iter(doc[section]))
    doc[section][name][table][key] = matrix
    with pytest.raises(DocumentError) as err:
        parse(doc_bytes(doc))
    assert str(err.value) == f"{section}.{name}.{table}[{key}]{refusal}"


@pytest.mark.parametrize("first, second", [("2/2", "1"), ("1", "2/2"), (1, "1"), ("1", 1)],
                         ids=["2/2-then-1", "1-then-2/2", "int-then-str", "str-then-int"])
def test_different_literals_of_equal_scalars_give_equal_matrices(first, second):
    doc = integer_literal_document("bichar_z2.json")
    doc["hopf"]["bichar_z2"]["antipode"][0] = with_entry(IDENTITY, 1, 1, first)
    doc["hopf"]["bichar_z2"]["action"]["0,0"] = with_entry(IDENTITY, 1, 1, second)
    a = parse(doc_bytes(doc)).hopf["bichar_z2"]
    assert a.S(0) == a.phi(0, 0) == Matrix.identity(a.field, 2)


def test_missing_name_is_reference_error():
    bad = json.loads(json.dumps(MINIMAL))
    bad["hopf"]["k_xi"] = {"trivial": "nonexistent"}
    with pytest.raises(UnknownNameError):
        parse(doc_bytes(bad))


def test_duplicate_names_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["hopf"] = {"z2": {"trivial": "cm"}}
    with pytest.raises(DocumentSyntaxError):
        parse(doc_bytes(bad))


def test_nonprime_characteristic_rejected():
    with pytest.raises(DocumentSyntaxError):
        parse(doc_bytes({"field": {"kind": "prime", "characteristic": 6}}))


def test_group_orders_up_to_the_bound_parse():
    n = MAX_GROUP_ORDER
    doc = parse(doc_bytes({
        "field": {"kind": "rational"},
        "groups": {"c": {"cyclic": n}, "t": {"table": [[(a + b) % n for b in range(n)]
                                                      for a in range(n)]}},
    }))
    assert doc.groups["c"] == doc.groups["t"]
    with pytest.raises(DocumentSyntaxError, match="above the bound"):
        parse(doc_bytes({"field": {"kind": "rational"}, "groups": {"c": {"cyclic": n + 1}}}))


def test_deferred_entries_are_built_once_on_lookup():
    with open("fixtures/rho_z2.json", "rb") as fh:
        doc = parse(fh.read())
    a = doc.hopf["rho_z2"]
    assert doc.hopf["rho_z2"] is a
    assert dict(doc.hopf.items())["rho_z2"] is a
    over, m = doc.hopf_modules["dual_mod"]
    assert over == "rho_z2" and m.algebra is a


def test_remaining_constructor_directives():
    doc = parse(
        doc_bytes(
            {
                "field": {"kind": "rational"},
                "groups": {
                    "z2": {"cyclic": 2},
                    "s3": {"symmetric": 3},
                    "k4": {"product": ["z2", "z2"]},
                },
                "crossed_modules": {"cm": {"to_point": "k4"}},
                "hopf": {"k_xi": {"trivial": "cm"}},
                "modules": {"one": {"over": "k_xi", "unit": True}},
            }
        )
    )
    assert doc.groups["k4"].order == 4
    assert doc.groups["s3"].order == 6
    assert doc.crossed_modules["cm"].H.order == 1
    _, unit = doc.modules["one"]
    assert unit.dims == (1,) and sum(unit.dims) == 1
    assert serialize(parse(serialize(doc))) == serialize(doc)


def test_round_trip_is_stable():
    for path in (
        "fixtures/k_xi_z2.json",
        "fixtures/bichar_z2.json",
        "fixtures/k_xi_s3.json",
        "fixtures/rho_z2.json",
        "fixtures/bichar_z2_gf5.json",
    ):
        with open(path, "rb") as fh:
            doc = parse(fh.read())
        once = serialize(doc)
        again = serialize(parse(once))
        assert once == again


def test_round_trip_preserves_structure():
    with open("fixtures/bichar_z2.json", "rb") as fh:
        doc = parse(fh.read())
    doc2 = parse(serialize(doc))
    a, b = doc.hopf["bichar_z2"], doc2.hopf["bichar_z2"]
    assert a.base.counit == b.base.counit
    for x in a.H.elements():
        assert a.component(x).mul == b.component(x).mul
        assert a.S(x) == b.S(x)
        for y in a.H.elements():
            assert a.delta(x, y) == b.delta(x, y)
        for e in a.E.elements():
            assert a.phi(x, e) == b.phi(x, e)
    over, m = doc.modules["sign_rep"]
    over2, m2 = doc2.modules["sign_rep"]
    assert m.dims == m2.dims and m.actions == m2.actions


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no interpreter limit")
def test_integer_digit_limit_does_not_depend_on_the_interpreter():
    # with the interpreter's own limit lifted, as before Python 3.10.7, the document's holds
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        big = b"1" + b"0" * 4300
        with pytest.raises(DocumentSyntaxError, match="an integer of 4301 digits"):
            parse(b'{"field": {"kind": "rational"}, "groups": {"g": {"cyclic": ' + big + b"}}}")
        unit = dict(MINIMAL, grouplikes={"u": {"in": "k_xi", "family": [["1"], [big.decode()]]}})
        with pytest.raises(DocumentSyntaxError, match=r"u\.family\[1\]\[0\]: an integer of 4301"):
            parse(doc_bytes(unit))
    finally:
        sys.set_int_max_str_digits(limit)


# texts that json.loads refuses, or reads into values no document has
BROKEN_JSON = {
    "empty": "",
    "whitespace-only": " \t\r\n",
    "bom": "\ufeff{}",
    "trailing-data": '{"field": {"kind": "rational"}} {}',
    "trailing-comma": '{"field": {"kind": "rational"},}',
    "trailing-comma-in-list": '{"field": [1, 2,]}',
    "missing-colon": '{"field" {"kind": "rational"}}',
    "control-character": '{"field": "\x01"}',
    "lone-surrogate-escape": '{"field": "\\ud800"}',
    "nan": '{"field": NaN}',
    "infinity": '{"field": Infinity}',
    "negative-infinity": '{"field": -Infinity}',
    "5000-digit-integer": '{"field": 1' + "0" * 4999 + "}",
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "unterminated-string": '{"field": "rational',
    "invalid-escape": '{"field": "\\q"}',
    "one-brace-short": '{"field": {"kind": "rational"}',
    "top-level-list": '[{"field": {"kind": "rational"}}]',
    "missing-field": '{"groups": {"g": {"cyclic": 2}}}',
}


def json_texts():
    """(name, text) of every fixture, every mutation, every malformed test document and
    every broken text above."""
    paths = sorted(FIXTURES.glob("*.json")) + sorted((FIXTURES / "mutations").glob("*.json"))
    yield from ((path.name, path.read_text()) for path in paths)
    for name, sections in {**MALFORMED, **DEFERRED_MALFORMED}.items():
        yield name, json.dumps(dict(WELL_FORMED, **sections))
    yield from BROKEN_JSON.items()


def outcome(read, text):
    """repr of what read(text) gives, or the type and text of what it raises."""
    try:
        return repr(read(text))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", [text for _, text in json_texts()],
                         ids=[name for name, _ in json_texts()])
def test_reader_reads_what_json_loads_reads(text):
    assert outcome(_loads, text) == outcome(lambda t: json.loads(t, parse_int=literal_int), text)


@pytest.mark.parametrize("text", BROKEN_JSON.values(), ids=list(BROKEN_JSON))
def test_broken_text_is_refused(text):
    with pytest.raises(DocumentError):
        parse(text.encode())


def test_deep_nesting_is_a_recursion_error():
    with pytest.raises(RecursionError):
        _loads(BROKEN_JSON["deep-nesting"])
    with pytest.raises(DocumentSyntaxError, match="^document: invalid JSON: maximum recursion"):
        parse(BROKEN_JSON["deep-nesting"].encode())


@pytest.mark.parametrize("name", ["trailing-comma", "missing-colon", "control-character",
                                  "unterminated-string", "invalid-escape", "one-brace-short"])
def test_error_raised_in_the_scanner_reads_the_same_before_json_is_loaded(name):
    # before Python 3.12, _json's scanner looks JSONDecodeError up only in a loaded json.decoder
    text = BROKEN_JSON[name].encode()
    code = ("import sys\nfrom xmhopf.docio import DocumentSyntaxError, parse\n"
            "assert 'json' not in sys.modules\n"
            f"try:\n    parse({text!r})\nexcept DocumentSyntaxError as exc:\n    print(exc)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(DocumentSyntaxError) as exc:
        parse(text)
    assert proc.stdout == f"{exc.value}\n"
    assert str(exc.value).startswith("document: invalid JSON: ")


# raw texts, since json.dumps cannot write an object that repeats a key: (text, the key)
REPEATED_KEY = {
    "group": ('{"field": {"kind": "rational"}, '
              '"groups": {"z2": {"cyclic": 3}, "z2": {"cyclic": 2}}}', "z2"),
    "same-value": ('{"field": {"kind": "rational", "kind": "rational"}}', "kind"),
    "section": ('{"field": {"kind": "rational"}, "groups": {"a": {"cyclic": 2}}, '
                '"groups": {"b": {"cyclic": 3}}}', "groups"),
}


@pytest.mark.parametrize("text, key", REPEATED_KEY.values(), ids=list(REPEATED_KEY))
def test_object_that_repeats_a_key_is_refused(text, key):
    # json.loads keeps the last value of a repeated key
    with pytest.raises(DocumentSyntaxError) as exc:
        parse(text.encode())
    assert str(exc.value) == f"document: an object repeats the key {key!r}"


# docio's parse path: the functions that read a document and build its entries, those built on
# first lookup included (their builders are nested in the _parse_* functions)
PARSE_PATH = ("parse", "_built", "_expect", "_int", "_order", "_ref", "_directive", "_check_cost",
              "_object", "_loads", "_invalid")


def parse_path_raises():
    """(first line, last line, function: source) of each `raise` with an argument in docio's
    parse path.  A bare `raise` re-raises what it caught and is not listed: `_built`'s, of a
    DocumentError that names its own path, and `_loads`', in the SystemError branch that runs
    only before Python 3.12 and only when json.decoder is already loaded."""
    source = pathlib.Path(docio.__file__).read_text(encoding="utf-8")
    return [(r.lineno, r.end_lineno, f"{node.name}: {ast.get_source_segment(source, r)}")
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and (node.name in PARSE_PATH or node.name.startswith("_parse_"))
            for r in ast.walk(node) if isinstance(r, ast.Raise) and r.exc is not None]


def test_every_parse_refusal_is_reached():
    # every document of MALFORMED, DEFERRED_MALFORMED, BROKEN_JSON and REPEATED_KEY is parsed,
    # and each entry of one that parses is looked up, under a tracer of docio's lines
    texts = [json.dumps(dict(WELL_FORMED, **sections))
             for sections in (*MALFORMED.values(), *DEFERRED_MALFORMED.values())]
    texts += [*BROKEN_JSON.values(), *(text for text, _ in REPEATED_KEY.values())]
    code_file, reached = docio.parse.__code__.co_filename, set()

    def lines(frame, event, arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename == code_file else None

    saved = sys.gettrace()
    sys.settrace(calls)
    try:
        for text in texts:
            try:
                doc = parse(text.encode())
                for name in doc.all_names():
                    doc.lookup(name)
            except XmhopfError:
                pass
    finally:
        sys.settrace(saved)
    raises = parse_path_raises()
    assert len(raises) >= 40  # 42 when this test was written: the walk finds them
    assert [shown for first, last, shown in raises
            if reached.isdisjoint(range(first, last + 1))] == []
