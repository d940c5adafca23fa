import json
import sys

import pytest

from xmhopf.docio import (
    MAX_GROUP_ORDER,
    DocumentSyntaxError,
    FieldMismatchError,
    UnknownNameError,
    parse,
    serialize,
)


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
    bad = {
        "field": {"kind": "prime", "characteristic": 5},
        "groups": {"z2": {"cyclic": 2}},
        "crossed_modules": {"cm": {"identity": "z2"}},
        "hopf": {"k_xi": {"trivial": "cm"}},
        "grouplikes": {"g": {"in": "k_xi", "family": [[7], [1]]}},
    }
    with pytest.raises(FieldMismatchError):
        parse(doc_bytes(bad))


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
