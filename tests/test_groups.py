from itertools import chain, combinations, permutations, product

import pytest

from tests.oracles import perturbed_rows
from xmhopf.errors import NotNormalError
from xmhopf.groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    conjugation_action,
    cyclic,
    direct_product,
    is_injective,
    symmetric,
    validate_action,
    validate_group,
    validate_hom,
)


def test_z2_table_valid():
    g = FiniteGroup.from_table([[0, 1], [1, 0]])
    assert validate_group(g).ok


def test_broken_table_reports_witnesses():
    g = FiniteGroup.from_table([[0, 1], [1, 1]])
    rep = validate_group(g)
    assert not rep.ok
    names = {c.name for c in rep.checks if not c.ok}
    assert "inverses" in names or "identity" in names


def oracle_s3_table():
    """Independent construction: permutations as dicts, composed pointwise."""
    perms = sorted(permutations(range(3)))
    as_dict = [dict(enumerate(p)) for p in perms]
    index = {tuple(d[i] for i in range(3)): k for k, d in enumerate(as_dict)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    return [[index[compose(as_dict[a], as_dict[b])] for b in range(6)] for a in range(6)]


def test_symmetric3_matches_permutation_oracle():
    s3 = symmetric(3)
    assert [list(r) for r in s3.table] == oracle_s3_table()
    assert validate_group(s3).ok
    assert s3.order == 6 and s3.table != tuple(zip(*s3.table))  # not abelian


def test_constructors():
    assert cyclic(1).order == 1
    k4 = direct_product(cyclic(2), cyclic(2))
    assert validate_group(k4).ok
    # exponent 2: every square is the identity
    assert all(k4.mul(a, a) == k4.identity for a in k4.elements())
    with pytest.raises(ValueError):
        cyclic(0)
    with pytest.raises(ValueError):
        symmetric(5)


def test_constructor_outputs_always_validate():
    for g in (cyclic(1), cyclic(4), symmetric(4), direct_product(cyclic(2), cyclic(3))):
        assert validate_group(g).ok


def test_hom_validation():
    z3 = cyclic(3)
    assert validate_hom(GroupHom.identity(z3)).ok
    bad = GroupHom(z3, cyclic(2), (0, 1, 1))
    rep = validate_hom(bad)
    assert not rep.ok
    assert any(c.name == "multiplicative" for c in rep.checks if not c.ok)


def test_action_validation_conjugation_s3():
    s3 = symmetric(3)
    act = conjugation_action(s3, GroupHom.identity(s3))
    assert validate_action(act).ok
    # conjugation by a transposition is a nontrivial automorphism
    assert any(act.table[x] != tuple(s3.elements()) for x in s3.elements())


def test_action_multiplicativity_exhaustive():
    s3 = symmetric(3)
    act = conjugation_action(s3, GroupHom.identity(s3))
    for x in s3.elements():
        for y in s3.elements():
            for e in s3.elements():
                assert act.act(x, act.act(y, e)) == act.act(s3.mul(x, y), e)


def test_trivial_action():
    act = GroupAction.trivial(cyclic(2), cyclic(3))
    assert validate_action(act).ok


def row_swaps(rows):
    """(position, rows) for every exchange of two entries within one row."""
    for i, row in enumerate(rows):
        for j, k in combinations(range(len(row)), 2):
            changed = list(row)
            changed[j], changed[k] = row[k], row[j]
            yield (i, j, k), rows[:i] + (tuple(changed),) + rows[i + 1:]


def violations(rep):
    return {c.name: c.violations for c in rep.checks}


# Oracles: the violations of each axiom, counted straight from the tables.  A validator
# must reject a broken table, and must also count every case it breaks, so that a
# validator that skips a case is caught even where another case rejects the table.


def group_violations(t, e, inverses):
    r = range(len(t))
    return {
        "identity": sum((t[e][a] != a) + (t[a][e] != a) for a in r),
        "inverses": sum(t[a][b] != e or t[b][a] != e for a, b in enumerate(inverses)),
        "associativity": sum(t[t[a][b]][c] != t[a][t[b][c]] for a, b, c in product(r, r, r)),
    }


def hom_violations(g, h, m):
    r = range(g.order)
    return {
        "multiplicative": sum(m[g.table[a][b]] != h.table[m[a]][m[b]] for a, b in product(r, r)),
    }


def action_violations(h, s, t):
    xs, es = range(h.order), range(s.order)
    return {
        "identity acts trivially": sum(t[h.identity][e] != e for e in es),
        "action is multiplicative in the actor": sum(
            t[x][t[y][e]] != t[h.table[x][y]][e] for x, y, e in product(xs, xs, es)),
        "each actor element acts by an automorphism": sum(
            t[x][s.table[e][f]] != s.table[t[x][e]][t[x][f]]
            for x in xs for e, f in product(es, es)),
    }


# a changed row of a group or action table repeats an element, and a hom that
# agrees with the identity on all but one element of S3 is the identity: each
# single-entry change below breaks an axiom, so each must be rejected.  A row of the
# action that repeats an element breaks act(x^-1, act(x, e)) = e, so the action laws
# reject it.  A swap in a row of the action keeps the row a bijection; no two
# automorphisms of S3 differ by one transposition of its elements, so each swap must be
# rejected as well


@pytest.mark.parametrize("g", [symmetric(3), cyclic(4)], ids=["S3", "Z4"])
def test_group_validator_rejects_every_single_entry_change(g):
    assert violations(validate_group(g)) == group_violations(g.table, g.identity, g.inverses)
    for pos, table in perturbed_rows(g.table, g.order):
        rep = validate_group(FiniteGroup(table, g.identity, g.inverses))
        assert not rep.ok, pos
        assert violations(rep) == group_violations(table, g.identity, g.inverses), pos


def test_action_validator_rejects_every_single_entry_change():
    s3 = symmetric(3)
    act = conjugation_action(s3, GroupHom.identity(s3))
    assert violations(validate_action(act)) == action_violations(s3, s3, act.table)
    changes = chain(perturbed_rows(act.table, s3.order), row_swaps(act.table))
    for pos, table in changes:
        rep = validate_action(GroupAction(s3, s3, table))
        assert not rep.ok, pos
        assert violations(rep) == action_violations(s3, s3, table), pos


def test_hom_validator_rejects_every_single_entry_change():
    s3 = symmetric(3)
    identity = GroupHom.identity(s3)
    assert violations(validate_hom(identity)) == hom_violations(s3, s3, identity.map)
    for pos, (row,) in perturbed_rows((identity.map,), s3.order):
        rep = validate_hom(GroupHom(s3, s3, row))
        assert not rep.ok, pos
        assert violations(rep) == hom_violations(s3, s3, row), pos


def test_conjugation_on_normal_z3():
    from tests.conftest import z3_in_s3

    emb = z3_in_s3()
    assert validate_hom(emb).ok and is_injective(emb)
    act = conjugation_action(symmetric(3), emb)
    assert validate_action(act).ok
    # transpositions invert the 3-cycles, so the action is nontrivial
    assert any(row != (0, 1, 2) for row in act.table)


def test_conjugation_on_central_subgroup_is_trivial():
    k4 = direct_product(cyclic(2), cyclic(2))
    emb = GroupHom(cyclic(2), k4, (0, 1))
    act = conjugation_action(k4, emb)
    assert act.table == tuple((0, 1) for _ in k4.elements())


def test_conjugation_non_normal_raises():
    s3 = symmetric(3)
    # an order-2 subgroup generated by a transposition is not normal
    t = next(g for g in s3.elements() if g != s3.identity and s3.mul(g, g) == s3.identity)
    emb = GroupHom(cyclic(2), s3, (0, t))
    assert validate_hom(emb).ok
    with pytest.raises(NotNormalError):
        conjugation_action(s3, emb)
