"""The single-entry generators of tests/oracles.py, which every oracle sweep walks.

Each yielded object differs from the original in exactly one entry of exactly one of its
maps or tables, of the kind the generator names, and the original is left as it was.
"""

import itertools
from functools import partial

import pytest

from tests.conftest import GF5, QQ, make_bichar_z2, make_k_xi_s3, make_sweedler, make_sweedler_z4
from tests.oracles import (
    perturbed_crossed_modules,
    perturbed_duals,
    perturbed_modules,
    perturbed_rows,
    perturbed_scalar_tables,
    perturbed_structures,
)
from xmhopf.groups import symmetric
from xmhopf.hopfmod import dual_hopf_module, trivial_hopf_module
from xmhopf.xihopf import dualize


def flat(**tables) -> dict:
    """{(name, key, i, j): entry} for name={key: matrix or rows}."""
    return {(name, key, i, j): v for name, table in tables.items() for key, m in table.items()
            for i, row in enumerate(getattr(m, "data", m)) for j, v in enumerate(row)}


def structure_entries(a):
    b = a.base
    return flat(delta=b.coproduct, phi=a.action, S=dict(enumerate(b.antipode)),
                mu={x: c.mul for x, c in enumerate(b.components)}, eps={0: b.counit},
                unit={x: [c.unit] for x, c in enumerate(b.components)})


def module_entries(m):
    return flat(r=dict(enumerate(m.r)), rho=m.rho, psi=m.psi)


def crossed_module_entries(cm):
    return flat(xi={0: (cm.xi.map,)}, action={0: cm.action.table}, E={0: cm.E.table},
                H={0: cm.H.table})


def dual_entries(b):
    maps = {name: getattr(b, name) for name in DUAL_MAPS}
    return flat(unit={0: [maps.pop("unit")]}, **{
        name: m if isinstance(m, dict) else dict(enumerate(m)) for name, m in maps.items()})


DUAL_MAPS = ("mul", "unit", "delta", "eps", "antipode", "action")


def kinded(kind, objects):
    return ((kind, obj) for obj in objects)


def cases():
    """(id, a function that builds the original, its entries, its perturbations as (kind, obj))."""
    for make, field in ((make_k_xi_s3, QQ), (make_bichar_z2, GF5), (make_sweedler, QQ)):
        for stride, per_kind in itertools.product((1, 3), (False, True)):
            yield (f"structures {make.__name__[5:]} stride {stride}{' per kind' * per_kind}",
                   partial(make, field), structure_entries,
                   partial(perturbed_structures, stride=stride, per_kind=per_kind))
    for name, module in (("trivial", partial(trivial_hopf_module, v_dim=2)),
                         ("dual", dual_hopf_module)):
        for stride in (1, 4):
            yield (f"{name} module stride {stride}", lambda module=module: module(make_bichar_z2()),
                   module_entries, partial(perturbed_modules, stride=stride))
    for make in (make_k_xi_s3, make_sweedler_z4):
        yield (f"crossed module {make.__name__[5:]}", lambda make=make: make().cm,
               crossed_module_entries, perturbed_crossed_modules)
    for next_only in (False, True):
        yield (f"rows{' next only' * next_only}", lambda: symmetric(3).table,
               lambda t: flat(t={0: t}), lambda t, next_only=next_only: kinded(
                   "t", (rows for _, rows in perturbed_rows(t, 6, next_only))))
    yield ("scalar table", lambda: [[QQ.one, QQ.of(2)], [QQ.of(3), QQ.of(-1)]],
           lambda t: flat(omega={0: t}), lambda t: kinded("omega", perturbed_scalar_tables(QQ, t)))
    for name in DUAL_MAPS:
        yield (f"dual {name}", lambda: dualize(make_bichar_z2()), dual_entries,
               lambda b, name=name: kinded(name, perturbed_duals(b, name)))


CASES = {case[0]: case[1:] for case in cases()}


@pytest.mark.parametrize("case", list(CASES))
def test_each_perturbation_changes_one_entry_of_one_map(case):
    original, entries, perturbations = CASES[case]
    obj = original()
    before = entries(obj)
    n = 0
    for kind, p in perturbations(obj):
        after = entries(p)
        assert after.keys() == before.keys(), kind
        assert [pos[0] for pos in before if before[pos] != after[pos]] == [kind]
        n += 1
    assert n and entries(obj) == before == entries(original())
