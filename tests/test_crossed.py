import pytest

from tests.conftest import z3_in_s3
from tests.oracles import oracle_coker_action_on_kernel, oracle_kernel_image_cokernel
from xmhopf.crossed import (
    CrossedModule,
    GroupoidArrow,
    abelian_to_point,
    arrow_antipode,
    arrow_is_valid,
    arrow_tensor,
    coker_action_on_kernel,
    compose,
    hom_set,
    identity_arrow,
    identity_cm,
    inclusion,
    kernel_image_cokernel,
    trivial_over,
    validate_components,
    validate_crossed_module,
)
from xmhopf.errors import NonComposableError
from xmhopf.groups import GroupAction, GroupHom, cyclic, symmetric


def test_identity_crossed_module_valid():
    cm = identity_cm(cyclic(2))
    assert validate_components(cm).ok
    assert validate_crossed_module(cm).ok


def test_inclusion_z3_s3_valid():
    cm = inclusion(z3_in_s3())
    assert validate_components(cm).ok
    assert validate_crossed_module(cm).ok


def test_s3_to_point_violates_peiffer():
    s3 = symmetric(3)
    point = cyclic(1)
    cm = CrossedModule(
        s3,
        point,
        GroupHom(s3, point, tuple(0 for _ in s3.elements())),
        GroupAction.trivial(point, s3),
    )
    rep = validate_crossed_module(cm)
    assert not rep.ok
    peiffer = next(c for c in rep.checks if c.name.startswith("Peiffer"))
    assert peiffer.violations > 0
    # a witnessing pair of non-commuting elements, e.g. two transpositions
    e, f = (int(v.split()[0][2:]) for v in peiffer.witnesses[0].split(" "))
    assert s3.mul(e, f) != s3.mul(f, e)


def test_hom_sets_identity_z2():
    cm = identity_cm(cyclic(2))
    assert [a.label for a in hom_set(cm, 0, 1)] == [1]
    assert [a.label for a in hom_set(cm, 0, 0)] == [0]
    for a in hom_set(cm, 1, 0):
        assert arrow_is_valid(cm, a)


def test_compose_arrows():
    cm = inclusion(z3_in_s3())
    H, E = cm.H, cm.E
    arrows = [a for x in H.elements() for y in H.elements() for a in hom_set(cm, x, y)]
    assert len(arrows) == H.order * E.order
    for f in arrows:
        for e in arrows:
            if f.source != e.target:
                continue
            c = compose(cm, f, e)
            assert arrow_is_valid(cm, c)
            assert c.source == e.source and c.target == f.target
            assert c in hom_set(cm, e.source, f.target)
    f0 = arrows[0]
    mismatched = next(a for a in arrows if a.target != f0.source)
    with pytest.raises(NonComposableError):
        compose(cm, f0, mismatched)


def test_arrow_antipode_involution_and_identity():
    for cm in (identity_cm(cyclic(2)), inclusion(z3_in_s3())):
        H = cm.H
        for x in H.elements():
            ida = identity_arrow(cm, x)
            s = arrow_antipode(cm, ida)
            assert s == identity_arrow(cm, H.inv(x))
        arrows = [a for x in H.elements() for y in H.elements() for a in hom_set(cm, x, y)]
        for a in arrows:
            s = arrow_antipode(cm, a)
            assert arrow_is_valid(cm, s)
            assert arrow_antipode(cm, s) == a


def test_arrow_tensor_examples():
    cm = identity_cm(cyclic(2))
    a1 = GroupoidArrow(0, 1, 1)  # 1 -> h labelled by the nontrivial element
    a2 = identity_arrow(cm, 0)
    t = arrow_tensor(cm, a1, a2)
    assert t == a1  # label formula e . (1 > 1) = e


def test_arrow_tensor_monoid_laws_exhaustive():
    for cm in (identity_cm(cyclic(2)), inclusion(z3_in_s3())):
        H = cm.H
        arrows = [a for x in H.elements() for y in H.elements() for a in hom_set(cm, x, y)]
        unit = identity_arrow(cm, H.identity)
        for a in arrows:
            assert arrow_tensor(cm, unit, a) == a
            assert arrow_tensor(cm, a, unit) == a
            for b in arrows:
                t = arrow_tensor(cm, a, b)
                assert arrow_is_valid(cm, t)
                for c in arrows:
                    assert arrow_tensor(cm, arrow_tensor(cm, a, b), c) == arrow_tensor(
                        cm, a, arrow_tensor(cm, b, c)
                    )


def test_tensor_interchanges_with_composition():
    # the monoidal product of the arrow groupoid is functorial
    cm = inclusion(z3_in_s3())
    H = cm.H
    arrows = [a for x in H.elements() for y in H.elements() for a in hom_set(cm, x, y)]
    for f in arrows[:9]:
        for e in arrows:
            if e.target != f.source:
                continue
            for g in arrows[:9]:
                for h in arrows:
                    if h.target != g.source:
                        continue
                    lhs = arrow_tensor(cm, compose(cm, f, e), compose(cm, g, h))
                    rhs = compose(cm, arrow_tensor(cm, f, g), arrow_tensor(cm, e, h))
                    assert lhs == rhs


def test_kernel_image_cokernel_identity():
    cm = identity_cm(cyclic(2))
    kic = kernel_image_cokernel(cm)
    assert kic.kernel == (0,)
    assert kic.cokernel.order == 1
    assert oracle_kernel_image_cokernel(cm).ok


def test_kernel_image_cokernel_z2_to_point():
    cm = abelian_to_point(cyclic(2))
    kic = kernel_image_cokernel(cm)
    assert kic.kernel == (0, 1)
    assert kic.cokernel.order == 1
    assert oracle_kernel_image_cokernel(cm).ok


def test_cokernel_z3_in_s3_matches_coset_oracle():
    cm = inclusion(z3_in_s3())
    kic = kernel_image_cokernel(cm)
    assert kic.cokernel.order == 2 and oracle_kernel_image_cokernel(cm).ok
    # oracle: brute-force right cosets of the image
    s3, image = cm.H, set(kic.image)
    cosets = set()
    for x in s3.elements():
        cosets.add(frozenset(s3.mul(i, x) for i in image))
    assert len(cosets) == 2
    for x in s3.elements():
        for y in s3.elements():
            same_coset = any({x, y} <= c for c in cosets)
            assert (kic.projection[x] == kic.projection[y]) == same_coset


def test_coker_action_on_kernel_well_defined():
    cm = abelian_to_point(cyclic(3))
    assert coker_action_on_kernel(cm) == ((0, 1, 2),)
    assert oracle_coker_action_on_kernel(cm).ok
    # nontrivial kernel inside a bigger crossed module
    cm2 = inclusion(z3_in_s3())
    assert coker_action_on_kernel(cm2) == ((0,), (0,))
    assert oracle_coker_action_on_kernel(cm2).ok
    # Z/2 inverting Z/3 through the trivial map: two cosets, each acting differently
    z3, z2 = cyclic(3), cyclic(2)
    inversion = GroupAction(z2, z3, ((0, 1, 2), (0, 2, 1)))
    cm3 = CrossedModule(z3, z2, GroupHom(z3, z2, (0, 0, 0)), inversion)
    assert validate_components(cm3).ok and validate_crossed_module(cm3).ok
    assert coker_action_on_kernel(cm3) == ((0, 1, 2), (0, 2, 1))
    assert oracle_coker_action_on_kernel(cm3).ok


def test_constructors_build_and_reports_decide():
    cm = trivial_over(cyclic(2))
    assert cm.E.order == 1 and validate_crossed_module(cm).ok
    # S3 -> 1 is built; only Peiffer fails, each witness a pair that does not commute
    s3 = symmetric(3)
    bad = abelian_to_point(s3)
    assert validate_components(bad).ok
    rep = validate_crossed_module(bad)
    assert [(c.name, c.violations) for c in rep.checks if not c.ok] == [
        ("Peiffer identity xi(e).f = e f e^-1", 18)
    ]
    for witness in rep.checks[1].witnesses:
        e, f = (int(v[2:]) for v in witness.split(" "))
        assert s3.mul(e, f) != s3.mul(f, e)
    cm3 = inclusion(z3_in_s3())
    assert validate_crossed_module(cm3).ok
