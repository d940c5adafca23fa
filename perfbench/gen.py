"""Seeded generator for the benchmark's documents and the facts they must satisfy.

Every document is built here from first principles: the structure constants
of Sweedler's algebra and of k[Z/2], a change of basis, a relabelling of S3.
Nothing is imported from xmhopf, so neither the inputs nor the expected
facts depend on the program under test, and two commits of the program
receive identical bytes for the same seed.

An invocation is a dict with the command name, its CLI arguments and an
``expect`` dict:

  exit        required exit code;
  outputs     ``output KEY: VALUE`` lines whose JSON value must be equal;
  at_least    ``output KEY`` lines whose integer value must be >= the given one;
  object      for a mutation, the object the failing report must name.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import permutations

WORKLOADS = ("fixtures", "sweedler-q", "sweedler-gf5", "wide-s3")

# -- exact scalars: p is None over Q, a prime otherwise ----------------------------


def _norm(p, v):
    return Fraction(v) if p is None else v % p


def _inv(p, v):
    return 1 / Fraction(v) if p is None else pow(v, p - 2, p)


def _show(p, v):
    if p is not None:
        return int(v)
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _show_matrix(p, m):
    return [[_show(p, v) for v in row] for row in m]


def _matvec(p, m, v):
    return [_norm(p, sum(a * b for a, b in zip(row, v))) for row in m]


def _identity(p, n):
    return [[_norm(p, int(i == j)) for j in range(n)] for i in range(n)]


def _columns_to_matrix(cols):
    return [list(r) for r in zip(*cols)]


# -- Sweedler's algebra H4 -----------------------------------------------------------
#
# Basis (1, g, x, gx); g^2 = 1, x^2 = 0, xg = -gx;
# Delta(g) = g (x) g, Delta(x) = x (x) 1 + g (x) x, eps = (1, 1, 0, 0).

_SW_PRODUCTS = {
    (1, 1): {0: 1}, (1, 2): {3: 1}, (1, 3): {2: 1},
    (2, 1): {3: -1}, (3, 1): {2: -1},
}
_SW_COPRODUCT = {0: {(0, 0): 1}, 1: {(1, 1): 1}, 2: {(2, 0): 1, (1, 2): 1},
                 3: {(3, 1): 1, (0, 3): 1}}


def _sw_product(i, j):
    if i == 0:
        return {j: 1}
    if j == 0:
        return {i: 1}
    return _SW_PRODUCTS.get((i, j), {})


def sweedler_basis_change(p, rng):
    """A seeded 2x2 block (columns: the new x and gx in the old x, gx).

    Entries are small nonzero integers, the determinant is a unit, and 1 and
    g stay basis vectors, so the grouplikes remain signed basis vectors.
    """
    while True:
        a, d = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        b, c = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
        det = a * d - b * c
        if det != 0 and (p is None or det % p):
            return [[a, c], [b, d]]


def sweedler_constants(p, block):
    """Structure constants of H4 in the basis (1, g, a x + b gx, c x + d gx)."""
    P = _identity(p, 4)
    for i in range(2):
        for j in range(2):
            P[2 + i][2 + j] = _norm(p, block[i][j])
    det = _norm(p, block[0][0] * block[1][1] - block[0][1] * block[1][0])
    di = _inv(p, det)
    Pinv = _identity(p, 4)
    Pinv[2][2] = _norm(p, block[1][1] * di)
    Pinv[2][3] = _norm(p, -block[0][1] * di)
    Pinv[3][2] = _norm(p, -block[1][0] * di)
    Pinv[3][3] = _norm(p, block[0][0] * di)
    cols = [[P[r][c] for r in range(4)] for c in range(4)]

    def mult(u, v):
        w = [0] * 4
        for a_, ua in enumerate(u):
            for b_, vb in enumerate(v):
                if ua and vb:
                    for k, c in _sw_product(a_, b_).items():
                        w[k] += ua * vb * c
        return _matvec(p, Pinv, w)

    mul = [[mult(cols[i], cols[j]) for j in range(4)] for i in range(4)]

    delta_cols = []
    for j in range(4):
        w = [0] * 16
        for a_, ua in enumerate(cols[j]):
            for (s, t), c in _SW_COPRODUCT[a_].items():
                w[s * 4 + t] += ua * c
        # apply Pinv (x) Pinv
        out = [0] * 16
        for s in range(4):
            for t in range(4):
                v = w[s * 4 + t]
                if v:
                    for i in range(4):
                        for k in range(4):
                            out[i * 4 + k] += Pinv[i][s] * Pinv[k][t] * v
        delta_cols.append([_norm(p, v) for v in out])
    delta = _columns_to_matrix(delta_cols)
    counit = [_norm(p, v) for v in (1, 1, 0, 0)]
    unit = [_norm(p, v) for v in (1, 0, 0, 0)]
    return mul, unit, delta, counit


def _explicit_component(p, mul, unit):
    return {
        "mul": [[[_show(p, v) for v in vec] for vec in plane] for plane in mul],
        "unit": [_show(p, v) for v in unit],
    }


def _field_json(p):
    return {"kind": "rational"} if p is None else {"kind": "prime", "characteristic": p}


# -- the generated workloads ---------------------------------------------------------


def _hom_expect(end_dim, n_degrees):
    """Hom dimensions: End_A(A_1) = A_1^op and Hom_A(k, A_1) = the left integrals of A_1.

    Both live in degree 0 only: the crossed modules used here have injective
    xi, so any other degree sends the support {1} to a component where the
    target is zero.
    """
    end = {f"degree_{e}_dimension": (end_dim if e == 0 else 0) for e in range(n_degrees)}
    unit = {f"degree_{e}_dimension": (1 if e == 0 else 0) for e in range(n_degrees)}
    return end, unit


def _structure_invocations(doc, name, dims, grouplikes, dist, n_degrees, hopf_module,
                           extra_verify=()):
    """The seven commands on one Hopf structure with its modules reg, k and a Hopf module."""
    end, unit = _hom_expect(dims[0], n_degrees)
    ok = {"exit": 0}
    inv = [
        ("verify", [doc, name], dict(ok, outputs={"dims": dims})),
        ("verify", [doc, "reg"], dict(ok, outputs={"dims": [dims[0]] + [0] * (len(dims) - 1)})),
        ("verify", [doc, "k"], dict(ok, outputs={"dims": [1] + [0] * (len(dims) - 1)})),
        ("verify", [doc, hopf_module], ok),
    ]
    inv += [("verify", [doc, n], ok) for n in extra_verify]
    inv += [
        ("report", [doc, name], dict(ok, outputs={
            "left_integral_dimension": 1,
            "right_integral_dimension": 1,
            "grouplike_count": grouplikes,
            "distinguished_grouplike": dist,
        })),
        ("dual", [doc, name], dict(ok, outputs={"dims": dims})),
        ("structure-theorem", [doc, name, hopf_module],
         dict(ok, outputs={"coinvariants_dimension": 1})),
        ("integrals", [doc, name], dict(ok, outputs={"left_dimension": 1, "right_dimension": 1})),
        ("grouplikes", [doc, name], dict(ok, outputs={"count": grouplikes})),
        ("hom", [doc, name, "reg", "reg"], dict(ok, outputs=end)),
        ("hom", [doc, name, "k", "reg"], dict(ok, outputs=unit)),
    ]
    return inv


def sweedler_q(seed, outdir):
    """Sweedler over Q, over the trivial crossed module, in directive form."""
    p = None
    rng = random.Random(f"sweedler-q:{seed}")
    mul, unit, delta, counit = sweedler_constants(p, sweedler_basis_change(p, rng))
    doc = {
        "field": _field_json(p),
        "groups": {"one": {"cyclic": 1}},
        "crossed_modules": {"triv": {"trivial_over": "one"}},
        "hopf": {"sw": {
            "cm": "triv",
            "components": [_explicit_component(p, mul, unit)],
            "coproduct": {"0,0": _show_matrix(p, delta)},
            "counit": [_show(p, v) for v in counit],
            "action": {"0,0": _show_matrix(p, _identity(p, 4))},
        }},
        "modules": {"reg": {"over": "sw", "regular": 0}, "k": {"over": "sw", "unit": True}},
        "hopf_modules": {"dualmod": {"over": "sw", "dual": True}},
    }
    path = _write(outdir, "sweedler_q.json", doc)
    dist = [["0", "1", "0", "0"]]
    return _structure_invocations(path, "sw", [4], 2, dist, 1, "dualmod")


def sweedler_gf5(seed, outdir):
    """Sweedler over GF(5), twisted over id: Z/2 -> Z/2 by rho_h = (x -> -x, g -> g)."""
    p = 5
    rng = random.Random(f"sweedler-gf5:{seed}")
    mul, unit, delta, counit = sweedler_constants(p, sweedler_basis_change(p, rng))
    rho_h = _identity(p, 4)
    rho_h[2][2] = rho_h[3][3] = _norm(p, -1)
    doc = {
        "field": _field_json(p),
        "groups": {"one": {"cyclic": 1}, "z2": {"cyclic": 2, "elements": ["1", "h"]}},
        "crossed_modules": {"triv": {"trivial_over": "one"}, "cm": {"identity": "z2"}},
        "hopf": {
            "sw": {
                "cm": "triv",
                "components": [_explicit_component(p, mul, unit)],
                "coproduct": {"0,0": _show_matrix(p, delta)},
                "counit": [_show(p, v) for v in counit],
                "action": {"0,0": _show_matrix(p, _identity(p, 4))},
            },
            "tsw": {"from_h_action": {
                "cm": "cm",
                "algebra": "sw",
                "rho": [_show_matrix(p, _identity(p, 4)), _show_matrix(p, rho_h)],
            }},
        },
        "modules": {"reg": {"over": "tsw", "regular": 0}, "k": {"over": "tsw", "unit": True}},
        "hopf_modules": {"dualmod": {"over": "tsw", "dual": True}},
    }
    path = _write(outdir, "sweedler_gf5.json", doc)
    # G(A_x) = {1, g} on the identity component, times the two characters of Z/2;
    # the distinguished grouplike is g in both components (rho_h fixes g).
    dist = [[0, 1, 0, 0], [0, 1, 0, 0]]
    return _structure_invocations(path, "tsw", [4, 4], 4, dist, 2, "dualmod")


def _s3_relabelled(rng):
    """S3 as permutations of {0,1,2}, identity at index 0, the rest in seeded order."""
    perms = sorted(permutations(range(3)))
    rest = perms[1:]
    rng.shuffle(rest)
    perms = [perms[0]] + rest
    index = {q: i for i, q in enumerate(perms)}

    def compose(a, b):
        return tuple(a[b[i]] for i in range(3))

    def sign(q):
        return -1 if sum(q[i] > q[j] for i in range(3) for j in range(i + 1, 3)) % 2 else 1

    table = [[index[compose(a, b)] for b in perms] for a in perms]
    return perms, index, compose, sign, table


def wide_s3(seed, outdir):
    """k[Z/2] over Z/3 normal in S3, twisted by the sign character, in explicit form."""
    p = None
    rng = random.Random(f"wide-s3:{seed}")
    perms, index, compose, sign, table = _s3_relabelled(rng)
    inverse = {q: tuple(q.index(i) for i in range(3)) for q in perms}
    c = rng.choice([q for q in perms if q != (0, 1, 2) and sign(q) == 1])
    powers = [(0, 1, 2), c, compose(c, c)]
    xi = [index[q] for q in powers]
    action = [
        [powers.index(compose(compose(x, q), inverse[x])) for q in powers] for x in perms
    ]
    n = len(perms)
    # k[Z/2] with basis (1, t): t^2 = 1, Delta(t) = t (x) t, S = id, eps = (1, 1).
    mul = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    delta = [[1, 0], [0, 0], [0, 0], [0, 1]]

    def rho(x):
        return [[1, 0], [0, sign(perms[x])]]

    def mm(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
                for i in range(len(a))]

    def kron(a, b):
        return [[a[i // len(b)][j // len(b[0])] * b[i % len(b)][j % len(b[0])]
                 for j in range(len(a[0]) * len(b[0]))] for i in range(len(a) * len(b))]

    def inv_el(x):
        return index[inverse[perms[x]]]

    coproduct = {}
    for x in range(n):
        for y in range(n):
            xy_inv = inv_el(table[x][y])
            coproduct[f"{x},{y}"] = _show_matrix(p, mm(mm(kron(rho(x), rho(y)), delta), rho(xy_inv)))
    antipode = [_show_matrix(p, mm(rho(x), rho(x))) for x in range(n)]
    act = {f"{x},{e}": _show_matrix(p, rho(xi[e])) for x in range(n) for e in range(3)}
    comp = _explicit_component(p, mul, [1, 0])
    empty = [[] for _ in range(n - 1)]
    mul_matrix = [[mul[i][j][k] for i in range(2) for j in range(2)] for k in range(2)]
    doc = {
        "field": _field_json(p),
        "groups": {
            "z3": {"order": 3, "table": [[(i + j) % 3 for j in range(3)] for i in range(3)]},
            "s3": {"order": n, "table": table},
        },
        "crossed_modules": {"cm": {"E": "z3", "H": "s3", "xi": xi, "action": action}},
        "hopf": {"wide": {
            "cm": "cm",
            "components": [comp] * n,
            "coproduct": coproduct,
            "counit": ["1", "1"],
            "antipode": antipode,
            "action": act,
        }},
        "modules": {
            "reg": {"over": "wide", "dims": [2] + [0] * (n - 1),
                    "actions": [_show_matrix(p, mul_matrix)] + empty},
            "k": {"over": "wide", "dims": [1] + [0] * (n - 1),
                  "actions": [[["1", "1"]]] + empty},
        },
        # A (x) k: the trivial Hopf module with one-dimensional fiber.
        "hopf_modules": {"triv1": {
            "over": "wide",
            "dims": [2] * n,
            "r": [_show_matrix(p, mul_matrix)] * n,
            "rho": coproduct,
            "psi": act,
        }},
    }
    path = _write(outdir, "wide_s3.json", doc)
    dist = [["1", "0"]] * n
    return _structure_invocations(path, "wide", [2] * n, 4, dist, 3, "triv1",
                                  extra_verify=("s3", "cm"))


def fixtures(root):
    """Every shipped fixture and mutation; the seed only fixes the order of a round."""
    fixdir = os.path.join(root, "fixtures")
    inv = []
    for fname in sorted(os.listdir(fixdir)):
        if not fname.endswith(".json"):
            continue
        rel = f"fixtures/{fname}"
        with open(os.path.join(fixdir, fname)) as fh:
            doc = json.load(fh)
        for section in ("groups", "crossed_modules", "hopf", "modules", "hopf_modules",
                        "grouplikes", "integrals"):
            for name in sorted(doc.get(section, {})):
                inv.append(("verify", [rel, name], {"exit": 0}))
        for name in sorted(doc.get("hopf", {})):
            inv += [
                ("integrals", [rel, name],
                 {"exit": 0, "outputs": {"left_dimension": 1, "right_dimension": 1}}),
                ("grouplikes", [rel, name], {"exit": 0, "at_least": {"count": 1}}),
                ("dual", [rel, name], {"exit": 0}),
                ("report", [rel, name], {"exit": 0, "outputs": {
                    "left_integral_dimension": 1, "right_integral_dimension": 1}}),
            ]
        for mname, spec in sorted(doc.get("hopf_modules", {}).items()):
            # coinvariants: the right integrals (dimension 1) for the dual module,
            # the fiber V for A (x) V
            fiber = 1 if spec.get("dual") else spec.get("trivial")
            outputs = {} if fiber is None else {"coinvariants_dimension": fiber}
            inv.append(("structure-theorem", [rel, spec["over"], mname],
                        {"exit": 0, "outputs": outputs}))
        mods = sorted(doc.get("modules", {}).items())
        for src, sspec in mods:
            for tgt, tspec in mods:
                if sspec["over"] == tspec["over"]:
                    # the identity is a degree-0 endomorphism
                    least = {"degree_0_dimension": 1} if src == tgt else {}
                    inv.append(("hom", [rel, sspec["over"], src, tgt],
                                {"exit": 0, "at_least": least}))
    with open(os.path.join(fixdir, "mutations", "manifest.json")) as fh:
        manifest = json.load(fh)
    for entry in manifest:
        inv.append(("verify", [f"fixtures/mutations/{entry['file']}", entry["verify"]],
                    {"exit": 1, "object": entry["verify"]}))
    return inv


def _write(outdir, fname, doc):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, fname)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def build(workload, seed, outdir, root="."):
    """Write the workload's documents under outdir; return its round of invocations.

    Paths in the invocations are relative to root, the directory the CLI runs in.
    """
    if workload == "fixtures":
        inv = fixtures(root)
    else:
        make = {"sweedler-q": sweedler_q, "sweedler-gf5": sweedler_gf5, "wide-s3": wide_s3}
        inv = make[workload](seed, os.path.join(root, outdir))
        inv = [(cmd, [os.path.relpath(args[0], root)] + args[1:], exp)
               for cmd, args, exp in inv]
    random.Random(f"order:{workload}:{seed}").shuffle(inv)
    return [{"command": cmd, "args": args, "expect": exp} for cmd, args, exp in inv]
