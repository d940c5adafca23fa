"""Crossed modules and the arrow calculus of their associated groupoid.

A crossed module is a group homomorphism xi: E -> H with an H-action on E
that is equivariant for conjugation and satisfies the Peiffer identity.
Arrows x -> xi(e)x labelled by e in E form a groupoid; its monoidal
product, composition, and antipode are exposed arrow by arrow (the full
arrow set is never materialized).
"""

from __future__ import annotations

from .errors import NonComposableError, ShapeMismatchError
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    conjugation_action,
    cyclic,
    validate_action,
    validate_group,
    validate_hom,
)
from .record import Record
from .report import Report, given


class CrossedModule(Record, eq=True):
    __slots__ = ("E", "H", "xi", "action")  # xi: E -> H; action of H on E

    def __post_init__(self):
        xi, action = self.xi, self.action
        if (xi.source, xi.target, action.actor, action.space) != (self.E, self.H, self.H, self.E):
            raise ShapeMismatchError("xi must map E to H, and the action must be one of H on E")

    def xi_of(self, e: int) -> int:
        return self.xi(e)

    def act(self, x: int, e: int) -> int:
        return self.action.act(x, e)


class GroupoidArrow(Record, eq=True):
    __slots__ = ("source", "label", "target")  # source, target in H; label in E


def validate_crossed_module(cm: CrossedModule) -> Report:
    """Equivariance and Peiffer, with witnesses.

    Component validity (groups, hom, action) is checked separately by
    validate_components.
    """
    rep = Report("crossed module")
    E, H = cm.E, cm.H

    rep.identity("equivariance xi(x.e) = x xi(e) x^-1", (
        ("x={} e={}", (x, e), given, (cm.xi(cm.act(x, e)), H.conj(x, cm.xi(e))))
        for x in H.elements() for e in E.elements()
    ))
    rep.identity("Peiffer identity xi(e).f = e f e^-1", (
        ("e={} f={}", (e, f), given, (cm.act(cm.xi(e), f), E.conj(e, f)))
        for e in E.elements() for f in E.elements()
    ))
    return rep


def validate_components(cm: CrossedModule) -> Report:
    rep = Report("crossed module components")
    for name, g in (("E", cm.E), ("H", cm.H)):
        group_rep = validate_group(g)
        group_rep.title = f"group {name}"
        rep.merge(group_rep)
    rep.merge(validate_hom(cm.xi))
    rep.merge(validate_action(cm.action))
    return rep


# -- groupoid arrows -----------------------------------------------------------


def hom_set(cm: CrossedModule, x: int, y: int) -> list[GroupoidArrow]:
    """Arrows x -> y: labels e with y = xi(e) x."""
    return [
        GroupoidArrow(x, e, y)
        for e in cm.E.elements()
        if cm.H.mul(cm.xi(e), x) == y
    ]


def identity_arrow(cm: CrossedModule, x: int) -> GroupoidArrow:
    return GroupoidArrow(x, cm.E.identity, x)


def compose(cm: CrossedModule, f: GroupoidArrow, e: GroupoidArrow) -> GroupoidArrow:
    """Composite f . e (e first); label is the E-product f.label * e.label."""
    if f.source != e.target:
        raise NonComposableError(f"compose: middle objects {f.source} and {e.target} differ")
    return GroupoidArrow(e.source, cm.E.mul(f.label, e.label), f.target)


def arrow_tensor(cm: CrossedModule, a1: GroupoidArrow, a2: GroupoidArrow) -> GroupoidArrow:
    """Monoidal product: (x -> y, e) (x) (z -> t, f) = (xz -> yt, e . (x>f))."""
    label = cm.E.mul(a1.label, cm.act(a1.source, a2.label))
    return GroupoidArrow(
        cm.H.mul(a1.source, a2.source),
        label,
        cm.H.mul(a1.target, a2.target),
    )


def arrow_antipode(cm: CrossedModule, a: GroupoidArrow) -> GroupoidArrow:
    """(x -> y, e) goes to (x^-1 -> y^-1, (x^-1)>(e^-1)); involutive."""
    return GroupoidArrow(
        cm.H.inv(a.source),
        cm.act(cm.H.inv(a.source), cm.E.inv(a.label)),
        cm.H.inv(a.target),
    )


def arrow_is_valid(cm: CrossedModule, a: GroupoidArrow) -> bool:
    return cm.H.mul(cm.xi(a.label), a.source) == a.target


# -- kernel, image, cokernel ----------------------------------------------------


class KernelImageCokernel(Record):
    """Ker(xi) and Im(xi) ascending, Coker(xi), the projection H -> Coker(xi) by index, and
    the section taking each coset to its least H element."""

    __slots__ = ("kernel", "image", "cokernel", "projection", "section")


def kernel_image_cokernel(cm: CrossedModule) -> KernelImageCokernel:
    """Ker(xi), Im(xi), and the quotient H / Im(xi) with canonical projection.

    The quotient is a group and the projection a homomorphism as Im(xi) is normal in H:
    x xi(e) x^-1 = xi(x > e) by equivariance.  Ker(xi) is central in E: for xi(k) = 1,
    Peiffer and the unit law of the action give k e k^-1 = 1 > e = e.  These follow from
    the axioms that validate_components and validate_crossed_module check, so nothing here
    checks them again.
    """
    E, H = cm.E, cm.H
    kernel = tuple(sorted(e for e in E.elements() if cm.xi(e) == H.identity))
    image = tuple(sorted({cm.xi(e) for e in E.elements()}))

    # cosets of the image, each named by its least element
    coset_of = {}
    reps = []
    for x in H.elements():
        if x in coset_of:
            continue
        coset = sorted(H.mul(i, x) for i in image)
        least = coset[0]
        reps.append(least)
        for y in coset:
            coset_of[y] = least
        coset_of.setdefault(x, least)  # x is outside Im(xi) x only if xi or H is invalid
    reps.sort()
    rep_index = {r: i for i, r in enumerate(reps)}
    projection = tuple(rep_index[coset_of[x]] for x in H.elements())

    m = len(reps)
    table = tuple(
        tuple(projection[H.mul(reps[a], reps[b])] for b in range(m)) for a in range(m)
    )
    inverses = tuple(projection[H.inv(reps[a])] for a in range(m))
    coker = FiniteGroup(table, projection[H.identity], inverses)
    return KernelImageCokernel(kernel, image, coker, projection, tuple(reps))


def coker_action_on_kernel(cm: CrossedModule) -> tuple[tuple[int, ...], ...]:
    """Action of Coker(xi) on Ker(xi) induced by the H-action: row c sends kernel[i] to
    kernel[table[c][i]], through the least element of coset c (the section).

    Nothing is checked: where validate_components and validate_crossed_module pass, both
    facts below hold (tests/oracles.py keeps the two checks this function used to run).
    * Ker(xi) is stable: xi(x > k) = x xi(k) x^-1 = 1 by equivariance.  An entry is -1 only
      where x > k leaves the kernel, which an invalid crossed module allows.
    * The action factors through the cokernel: x in coset c is xi(e) s with s = section[c],
      so x > k = xi(e) > (s > k) by the action law, which is e (s > k) e^-1 by Peiffer, and
      that is s > k, since s > k is in Ker(xi), which is central in E (kernel_image_cokernel).
    """
    kic = kernel_image_cokernel(cm)
    kernel = kic.kernel
    kpos = {k: i for i, k in enumerate(kernel)}
    return tuple(
        tuple(kpos.get(cm.act(kic.section[c], k), -1) for k in kernel)
        for c in range(kic.cokernel.order)
    )


# -- constructors ----------------------------------------------------------------


def trivial_over(h: FiniteGroup) -> CrossedModule:
    """1 -> H with the only possible action."""
    e = cyclic(1)
    xi = GroupHom(e, h, (h.identity,))
    action = GroupAction.trivial(h, e)
    return CrossedModule(e, h, xi, action)


def abelian_to_point(e: FiniteGroup) -> CrossedModule:
    """E -> 1 with the trivial action, a crossed module exactly when E is abelian.

    Over the point the Peiffer identity xi(e).f = e f e^-1 reads f = e f e^-1, so
    validate_crossed_module's `Peiffer identity` check is the abelianness of E, with the
    pairs that do not commute as its witnesses; nothing is checked here.
    """
    point = cyclic(1)
    xi = GroupHom(e, point, tuple(0 for _ in e.elements()))
    action = GroupAction.trivial(point, e)
    return CrossedModule(e, point, xi, action)


def inclusion(embedding: GroupHom) -> CrossedModule:
    """Normal subgroup inclusion with the conjugation action."""
    action = conjugation_action(embedding.target, embedding)
    return CrossedModule(embedding.source, embedding.target, embedding, action)


def identity_cm(g: FiniteGroup) -> CrossedModule:
    """id: G -> G with the conjugation action."""
    return inclusion(GroupHom.identity(g))
