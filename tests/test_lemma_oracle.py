"""The lemmas that the validator stack and the library derive instead of checking, kept as
oracles.

`full_validation_report` checks the axioms of a Hopf crossed-module coalgebra and no lemma
of them; its docstring, and those of `validate_hom`, `validate_action` and
`validate_bicoalgebra`, derive each lemma from checks of the same report.  Likewise
`kernel_image_cokernel` checks nothing, and `verify` of a crossed module relies on
`validate_components` and `validate_crossed_module` for the facts its docstring derives.
The oracles (tests/oracles.py) are the checks that the stack no longer runs: the antipode
lemmas of Hopf group-coalgebras, phi_{x,e} S_x = S_{xi(e)x} phi_{x^-1, x^-1 > e^-1},
eps(1_1) = 1 and phi_{x,e}(1) = 1 (`lemma_oracles`); Ker(xi) central in E, Im(xi) normal
in H and the projection onto Coker(xi) a homomorphism, xi(1) = 1, and each act[x] a
bijection (`crossed_module_oracles`).  Three library computations derive what they no
longer check in their docstrings, and keep it as an oracle too: Ker(xi) stable under the
H-action and acted on through Coker(xi) (`oracle_coker_action_on_kernel`), S_x(G_{x^-1})
a two-sided inverse of a grouplike G_x (`oracle_grouplike_inverse`), and the antipode
transport of a left integral a right integral (`oracle_antipode_transport`).

On single-entry perturbations of every example (test_action_oracle's, with its strides on
conj_s3 and sweedler_z4) and of every table of their crossed modules, wherever an oracle
fails, the checks that imply it fail too.  The tests count the perturbations and the oracle
failures.  A perturbation of xi(1) leaves H's identity outside its coset Im(xi) 1, which
kernel_image_cokernel must still name without raising.
"""
import pytest

from tests.conftest import (
    make_bichar_z2,
    make_conj_s3,
    make_k_h_z2,
    make_k_xi_s3,
    make_k_xi_z2,
    make_sweedler_z4,
)
from tests.oracles import (
    EXAMPLES,
    STRIDE,
    Tally,
    build,
    crossed_module_oracles,
    lemma_oracles,
    oracle_coker_action_on_kernel,
    perturbed_crossed_modules,
    perturbed_structures,
    transport_oracles,
)
from xmhopf.crossed import validate_components, validate_crossed_module
from xmhopf.hopf import enumerate_grouplikes
from xmhopf.xihopf import full_validation_report


# per example and map: (perturbations, of which the antipode lemmas fail, of which the
# antipode/action lemma fails, of which eps(1_1) = 1 fails, of which phi_{x,e}(1) = 1
# fails); the same over Q and GF(5)
LEMMA_COUNTS = {
    "k_xi_z2": {"delta": (4, 2, 0, 0, 0), "phi": (4, 0, 0, 0, 4), "S": (2, 2, 2, 0, 0),
                "mu": (2, 0, 0, 0, 0), "eps": (1, 0, 0, 1, 0)},
    "k_h_z2": {"delta": (4, 2, 0, 0, 0), "phi": (2, 0, 0, 0, 2), "S": (2, 2, 0, 0, 0),
               "mu": (2, 0, 0, 0, 0), "eps": (1, 0, 0, 1, 0)},
    "k_xi_s3": {"delta": (36, 30, 0, 0, 0), "phi": (18, 0, 8, 0, 18), "S": (6, 6, 6, 0, 0),
                "mu": (6, 2, 0, 0, 0), "eps": (1, 0, 0, 1, 0)},
    "bichar_z2": {"delta": (8, 4, 0, 0, 0), "phi": (8, 0, 0, 0, 4), "S": (4, 4, 2, 0, 0),
                  "mu": (8, 4, 0, 0, 0), "eps": (2, 0, 0, 1, 0)},
    "rho_z2": {"delta": (32, 24, 0, 0, 0), "phi": (16, 0, 0, 0, 8), "S": (8, 8, 8, 0, 0),
               "mu": (16, 8, 0, 0, 0), "eps": (2, 0, 0, 1, 0)},
    "sweedler": {"delta": (64, 60, 0, 0, 0), "phi": (16, 0, 12, 0, 4), "S": (16, 16, 0, 0, 0),
                 "mu": (64, 60, 0, 0, 0), "eps": (4, 2, 0, 1, 0)},
    "conj_s3": {"delta": (4, 4, 0, 0, 0), "phi": (1, 0, 0, 0, 0)},
    "sweedler_z4": {"delta": (51, 51, 0, 0, 0), "phi": (13, 0, 13, 0, 0), "S": (3, 3, 3, 0, 0),
                    "mu": (13, 13, 0, 0, 0)},
}


@pytest.mark.parametrize("name, make, field", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_stack_fails_wherever_a_lemma_fails(name, make, field):
    a = build(make, field)
    assert all(lemma_oracles(a))
    example = name.split()[0]
    counts = Tally()
    for kind, p in perturbed_structures(a, STRIDE.get(example, 1)):
        lemmas = lemma_oracles(p)
        if not all(lemmas):
            assert not full_validation_report(p).ok, kind
        counts.add(kind, *(not ok for ok in lemmas))
    assert counts.counts() == LEMMA_COUNTS[example]


# per example and map: (perturbations, pairs of a grouplike of the example and a perturbation
# on which it is still grouplike, of which S_x(G_{x^-1}) is not G's inverse, left integrals
# of the perturbations, of which the antipode transport is not a right integral); the same
# over Q and GF(5)
TRANSPORT_COUNTS = {
    "k_xi_z2": {"delta": (4, 0, 0, 0, 0), "phi": (4, 8, 0, 0, 0), "S": (2, 4, 4, 2, 2),
                "mu": (2, 4, 4, 2, 0), "eps": (1, 0, 0, 1, 0)},
    "k_h_z2": {"delta": (4, 0, 0, 0, 0), "phi": (2, 4, 0, 0, 0), "S": (2, 4, 4, 2, 2),
               "mu": (2, 4, 4, 2, 0), "eps": (1, 0, 0, 1, 0)},
    "k_xi_s3": {"delta": (36, 0, 0, 0, 0), "phi": (18, 36, 0, 0, 0), "S": (6, 12, 12, 6, 6),
                "mu": (6, 12, 12, 6, 0), "eps": (1, 0, 0, 1, 0)},
    "bichar_z2": {"delta": (8, 8, 0, 4, 2), "phi": (8, 16, 0, 4, 0), "S": (4, 8, 4, 4, 1),
                  "mu": (8, 16, 4, 8, 0), "eps": (2, 2, 0, 2, 0)},
    "rho_z2": {"delta": (32, 64, 0, 16, 8), "phi": (16, 64, 0, 8, 0), "S": (8, 32, 16, 8, 4),
               "mu": (16, 64, 16, 16, 0), "eps": (2, 4, 0, 2, 0)},
    "sweedler": {"delta": (64, 96, 0, 49, 13), "phi": (16, 32, 0, 12, 4),
                 "S": (16, 32, 8, 16, 3), "mu": (64, 128, 8, 64, 0), "eps": (4, 6, 0, 4, 0)},
    "conj_s3": {"delta": (4, 40, 0, 4, 1), "phi": (1, 12, 0, 1, 0)},
    "sweedler_z4": {"delta": (51, 204, 0, 38, 10), "phi": (13, 52, 0, 10, 3),
                    "S": (3, 12, 0, 3, 1), "mu": (13, 52, 0, 13, 0)},
}


@pytest.mark.parametrize("name, make, field", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_stack_fails_wherever_a_grouplike_inverse_or_a_transport_fails(name, make, field):
    a = build(make, field)
    fams = enumerate_grouplikes(a.base)
    inverses, transports = transport_oracles(a, fams)
    assert fams and transports and all(inverses + transports)
    example = name.split()[0]
    counts = {}
    for kind, p in perturbed_structures(a, STRIDE.get(example, 1)):
        inverses, transports = transport_oracles(p, fams)
        if not all(inverses + transports):
            assert not full_validation_report(p).ok, kind
        found = (1, len(inverses), inverses.count(False), len(transports), transports.count(False))
        counts[kind] = tuple(map(sum, zip(counts.get(kind, (0,) * 5), found)))
    assert counts == TRANSPORT_COUNTS[example]


# the distinct crossed modules of the examples: rho_z2's is k_xi_z2's, and sweedler's
# 1 -> 1 has no entry to move
CROSSED = {"k_xi_z2": make_k_xi_z2, "k_h_z2": make_k_h_z2, "k_xi_s3": make_k_xi_s3,
           "bichar_z2": make_bichar_z2, "conj_s3": make_conj_s3, "sweedler_z4": make_sweedler_z4}
# per crossed module and table: (perturbations, of which the cokernel identities fail, of
# which xi(1) = 1 fails, of which some act[x] is not a bijection)
COKERNEL_COUNTS = {
    "k_xi_z2": {"xi": (2, 0, 1, 0), "action": (4, 0, 0, 4), "E": (4, 2, 0, 0), "H": (4, 0, 0, 0)},
    "k_h_z2": {"xi": (1, 0, 1, 0), "H": (4, 3, 0, 0)},
    "k_xi_s3": {"xi": (3, 3, 1, 0), "action": (18, 0, 0, 18), "E": (9, 4, 0, 0),
                "H": (36, 24, 0, 0)},
    "bichar_z2": {"action": (2, 0, 0, 2), "E": (4, 2, 0, 0)},
    "conj_s3": {"xi": (6, 5, 1, 0), "action": (36, 0, 0, 36), "E": (36, 10, 0, 0),
                "H": (36, 0, 0, 0)},
    "sweedler_z4": {"xi": (4, 1, 1, 0), "action": (16, 0, 0, 16), "E": (16, 6, 0, 0),
                    "H": (16, 0, 0, 0)},
}


@pytest.mark.parametrize("example", list(CROSSED))
def test_crossed_module_checks_fail_wherever_a_cokernel_identity_fails(example):
    cm = CROSSED[example]().cm
    assert all(crossed_module_oracles(cm))
    counts = Tally()
    for kind, p in perturbed_crossed_modules(cm):
        lemmas = crossed_module_oracles(p)
        if not all(lemmas):
            assert not (validate_components(p).ok and validate_crossed_module(p).ok), kind
        counts.add(kind, *(not ok for ok in lemmas))
    assert counts.counts() == COKERNEL_COUNTS[example]


# per crossed module and table: (perturbations, of which Ker(xi) is not stable under the
# H-action or the action on it does not factor through Coker(xi))
COKER_ACTION_COUNTS = {
    "k_xi_z2": {"xi": (2, 0), "action": (4, 2), "E": (4, 0), "H": (4, 0)},
    "k_h_z2": {"xi": (1, 0), "H": (4, 0)},
    "k_xi_s3": {"xi": (3, 0), "action": (18, 6), "E": (9, 0), "H": (36, 0)},
    "bichar_z2": {"action": (2, 0), "E": (4, 0)},
    "conj_s3": {"xi": (6, 1), "action": (36, 6), "E": (36, 0), "H": (36, 0)},
    "sweedler_z4": {"xi": (4, 0), "action": (16, 4), "E": (16, 0), "H": (16, 0)},
}


@pytest.mark.parametrize("example", list(CROSSED))
def test_crossed_module_checks_fail_wherever_the_cokernel_action_fails(example):
    cm = CROSSED[example]().cm
    assert oracle_coker_action_on_kernel(cm).ok
    counts = Tally()
    for kind, p in perturbed_crossed_modules(cm):
        ok = oracle_coker_action_on_kernel(p).ok
        if not ok:
            assert not (validate_components(p).ok and validate_crossed_module(p).ok), kind
        counts.add(kind, not ok)
    assert counts.counts() == COKER_ACTION_COUNTS[example]
