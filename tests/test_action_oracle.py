"""The reduced action checks against the full case set they replaced.

`oracle_action_laws` (tests/oracles.py, like every oracle) is the action validator that
`full_validation_report` ran before it checked A as its own regular Hopf module, whose
check (d) runs these cases less those that the unit laws decide: it checks coproduct
compatibility C(x, y, e, f) only where e = 1 or f = 1, and states no inverse law: given
the unit and composition laws, which it checks on every case, and the crossed-module
identities, which `validate_components` and `validate_crossed_module` check in the same
`full_validation_report`, those cases imply the rest.
`oracle_xi_action` is the validator that checked all |H|^2 |E|^2 cases of C and the
inverse law phi_{xi(e)x,e^-1} phi_{x,e} = id.

On single-entry perturbations of each Delta_{x,y} and each phi_{x,e} of every example,
the stack must give the same verdict with either validator.  The stack's verdict is
the conjunction of its checks, and the two validators differ only in those checks, so
the verdicts agree wherever the two validators do; where they do not, some other check
of `full_validation_report` must fail.  Where the premises (the unit and composition
laws) pass, the two compatibility checks must agree; the tests count those cases.
"""

import pytest

from tests.oracles import (
    COMPATIBILITY,
    EXAMPLES,
    PREMISES,
    STRIDE,
    Tally,
    build,
    oracle_action_laws,
    oracle_xi_action,
    perturbed_structures,
)
from xmhopf.crossed import validate_components, validate_crossed_module
from xmhopf.xihopf import full_validation_report

# per example and map: (perturbations, of which the premises pass); only bichar_z2 keeps
# them on a phi perturbation, where phi_{0,1} = diag(1, -1) gains the entry (0, 1) and
# still squares to the identity
COUNTS = {
    "k_xi_z2": {"delta": (4, 4), "phi": (4, 0)},
    "k_h_z2": {"delta": (4, 4), "phi": (2, 0)},
    "k_xi_s3": {"delta": (36, 36), "phi": (18, 0)},
    "bichar_z2": {"delta": (8, 8), "phi": (8, 2)},
    "rho_z2": {"delta": (32, 32), "phi": (16, 0)},
    "sweedler": {"delta": (64, 64), "phi": (16, 0)},
    "conj_s3": {"delta": (4, 4), "phi": (1, 0)},
    "sweedler_z4": {"delta": (51, 51), "phi": (13, 0)},
}


@pytest.mark.parametrize("name, make, field", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_reduced_action_checks_give_the_oracle_verdicts(name, make, field):
    a = build(make, field)
    assert validate_components(a.cm).ok and validate_crossed_module(a.cm).ok
    assert oracle_action_laws(a).ok and oracle_xi_action(a).ok
    example = name.split()[0]
    counts = Tally()
    for kind, p in perturbed_structures(a, STRIDE.get(example, 1), ("delta", "phi"),
                                        per_kind=True):
        new, old = oracle_action_laws(p), oracle_xi_action(p)
        if new.ok != old.ok:  # then the stack's verdict is the same only if it fails elsewhere
            assert not full_validation_report(p).ok
        new_ok = {c.name: c.ok for c in new.checks}
        premises = all(new_ok[premise] for premise in PREMISES)
        counts.add(kind, premises)
        if premises:
            assert new_ok[COMPATIBILITY] == {c.name: c.ok for c in old.checks}[COMPATIBILITY]
    assert counts.counts() == COUNTS[example]
