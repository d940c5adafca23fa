"""Structure-document format: parsing, validation, canonical serialization.

Documents are JSON with named objects: a ground field, groups, crossed
modules, Hopf structures (explicit structure constants or constructor
directives), graded modules, Hopf modules, and candidate grouplike or
integral families.  Scalars are written "a/b" (or bare integers) over the
rationals and residues 0..p-1 over GF(p).  Serialization is canonical:
parse(serialize(d)) reproduces d exactly.
"""

from __future__ import annotations

import sys
from _json import make_scanner
from collections.abc import Mapping
from itertools import chain

from .crossed import (
    CrossedModule,
    abelian_to_point,
    identity_cm,
    inclusion,
    trivial_over,
)
from .errors import XmhopfError
from .groups import FiniteGroup, GroupAction, GroupHom, cyclic, direct_product, symmetric
from .hopf import ComponentAlgebra, GradedHopfCoalgebra, compute_antipode
from .hopfmod import HopfXiModule, dual_hopf_module, trivial_hopf_module
from .linalg import Field, Matrix, literal_int
from .record import Record
from .repcat import AModule, line_module, regular_module, unit_module
from .xihopf import (
    HopfXiCoalgebra,
    mk_bicharacter_group_algebra,
    mk_from_h_action,
    mk_from_pi_coalgebra,
    mk_trivial,
)

# The largest group a document may declare: verify checks associativity on all
# order^3 triples, which takes about a second at this order.
MAX_GROUP_ORDER = 100

# The largest validation_cost a Hopf structure may have, fitted on a ladder with the guard
# lifted, each structure carrying a `dual: true` Hopf module.  The largest sizes it admits
# are the trivial structure over id: Z/38 -> Z/38 (cost 2.4e7) and k[Z/16] with E = Z/16
# (2.0e7) or E trivial (1.8e7); Z/39 and k[Z/17] cost 2.6e7.  On them `verify`, `report`,
# `dual` and `structure-theorem` (of the dual module) take 0.49-0.58 s over Z/38 and
# 0.09-0.17 s over k[Z/16], and `integrals` and `grouplikes` at most 0.13 s (best of 3 CLI
# runs, Python 3.11, one 2-vCPU VM); the bound was fitted to a slower kernel and has not
# been re-fitted.
MAX_VALIDATION_COST = 25 * 10**6

# What one case of an identity costs beyond the entries of its matrices, counted in
# entries: the Matrix objects a case builds, multiplies and compares.  A case whose
# operands repeat an earlier case's builds nothing (report.Report.identity), so the
# estimate errs high where a structure's maps repeat.
_CASE_COST = 100


def validation_cost(h_order: int, e_order: int, dim: int) -> int:
    """Estimated work of validating a Hopf structure over E -> H with components of dim <= dim.

    Each case of an identity costs _CASE_COST plus the entries of the largest matrix it
    builds.  The first four terms are the |H|^3 coassociativity cases (Delta (x) id, dim^5
    entries), the |H|^2 (2|E| - 1) coaction-compatibility cases of check (d), which the
    structure's own validation runs on its regular Hopf module (phi (x) phi, dim^4) and
    `verify` and `structure-theorem` on a `dual: true` Hopf module over it (phi (x) psi),
    the |H|^2 multiplicativity cases (mu (x) mu, dim^6) and the |H| |E|^2 composition cases
    of the action (dim^2); the other identities have fewer cases and smaller matrices.
    Check (d) has run fewer coaction and composition cases since the bound was fitted, so
    the estimate errs high.  The
    last term is the integral system that `integrals` and `report` solve: about
    |H|^2 dim^2 equations in |H| dim unknowns, so (|H| dim)^4 elimination steps.
    """
    n, k, m, c = h_order, e_order, dim, _CASE_COST
    return (n**3 * (c + m**5) + n * n * (2 * k - 1) * (c + m**4)
            + n * n * (c + m**6) + n * k * k * (c + m * m) + (n * m) ** 4)


class DocumentError(XmhopfError):
    """Base class for document-level failures."""


class DocumentSyntaxError(DocumentError):
    """Malformed document; carries the JSON path of the offending value."""

    def __init__(self, message, where="document"):
        super().__init__(f"{where}: {message}")
        self.where = where


class UnknownNameError(DocumentError):
    """A referenced name does not exist in the document."""


class FieldMismatchError(DocumentError):
    """A scalar literal that belongs to a different ground field."""


def trivial_module_cost(h_order: int, dim: int, v: int) -> int:
    """Estimated work, in the units of validation_cost, of the trivial Hopf module A (x) V
    with dim V = v over |H| components of dim <= dim.

    Fitted on `structure-theorem` over the trivial structures of Z/2 and Z/1 and Sweedler's
    algebra, with a slower kernel.  `verify` and `structure-theorem` check and trivialise
    A (x) V itself.  At the bound (best of 3 CLI runs, Python 3.11, one 2-vCPU VM), each
    takes at most 0.12 s over Z/2 (v = 146), Z/1 (v = 184) and Sweedler's algebra (v = 29);
    over k[Z/16] (v = 4) `verify` takes 0.23 s and `structure-theorem` 0.24 s; over
    id: Z/38 -> Z/38 (v = 54) `verify` takes 0.61 s and `structure-theorem` 2.1 s, most of
    it eliminating A (x) V's coinvariant system of 155,952 equations in 2,052 unknowns.
    """
    return 4 * h_order * dim * (dim * v) ** 3


def _check_cost(where, cost: int) -> None:
    """Refuse an entry whose estimated cost is above MAX_VALIDATION_COST."""
    if cost > MAX_VALIDATION_COST:
        raise DocumentSyntaxError(
            f"validation cost {cost} is above the bound {MAX_VALIDATION_COST}", where
        )


def _built(where, make, *args):
    """make(*args), reporting a constructor's ValueError or XmhopfError as a syntax error at
    `where`; a DocumentError already names its own path."""
    try:
        return make(*args)
    except DocumentError:
        raise
    except (ValueError, XmhopfError) as exc:
        raise DocumentSyntaxError(str(exc), where)


class _Deferred:
    """The construction of one entry at JSON path `where`, run when the entry is first used."""

    __slots__ = ("make", "where")

    def __init__(self, make, where):
        self.make, self.where = make, where


class Section(Mapping):
    """The objects of one document section by name.

    Parsing checks every entry, but leaves the construction of some (directive
    Hopf structures, dual Hopf modules) to the first lookup of the entry, which
    builds it once and keeps it.
    """

    def __init__(self):
        self._entries = {}

    def __getitem__(self, name):
        entry = self._entries[name]
        if type(entry) is _Deferred:
            entry = self._entries[name] = _built(entry.where, entry.make)
        return entry

    def __setitem__(self, name, entry):
        self._entries[name] = entry

    def __contains__(self, name):
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


class StructureDocument(Record):
    """A parsed document: its field, one Section per document section, and element labels.

    modules and hopf_modules hold (Hopf structure name, module), grouplikes hold (name,
    family), integrals hold (name, side, family); element_names maps a group name to
    the tuple of its element labels.
    """

    __slots__ = ("field", "groups", "crossed_modules", "hopf", "modules", "hopf_modules",
                 "grouplikes", "integrals", "element_names")
    _defaults = dict(dict.fromkeys(__slots__[1:-1], Section), element_names=dict)

    def element_index(self, group, label: str):
        """Resolve an element label of a group of this document, `group` itself, to its index.

        Labels live only at the document boundary; the kernel is index-based.  An equal group
        under another name may label its elements otherwise, so only `group` itself matches.
        """
        for gname, known in self.groups.items():
            if known is group and gname in self.element_names:
                names = self.element_names[gname]
                if label in names:
                    return names.index(label)
        raise UnknownNameError(f"no element named {label!r}")

    def lookup(self, name: str):
        """Resolve a name across all sections; returns (section, object)."""
        for section, _, _ in SECTIONS:
            table = getattr(self, section)
            if name in table:
                return section, table[name]
        raise UnknownNameError(f"no object named {name!r} in the document")

    def all_names(self):
        return [name for section, _, _ in SECTIONS for name in sorted(getattr(self, section))]


# -- scalar and matrix parsing ------------------------------------------------------------


def _parse_scalar(f: Field, raw, where):
    try:
        return f.parse(raw)
    except ValueError as exc:
        # distinguish an integer out of range and a literal of the other field from garbage
        if f.p:
            if type(raw) is int:
                raise FieldMismatchError(f"{where}: residue {raw} out of range for GF({f.p})")
            try:
                Field.rational().parse(raw)
                raise FieldMismatchError(f"{where}: rational literal {raw!r} in a GF({f.p}) document")
            except ValueError:
                pass
        raise DocumentSyntaxError(str(exc), where)


# the literal types a dict keeps apart: it takes true and 1.0 for the key 1
_KEYED = frozenset((str, int))


class _Literals:
    """The scalars and matrices of the literals one parse reads over `field`: structure maps
    repeat few literals and few matrices, so each distinct literal is parsed once and each
    distinct literal matrix is built once, and an equal later entry gets the same immutable
    Matrix.  A literal is keyed by itself, a matrix by its expected shape (rows, cols) and its
    rows of literals.  Only literals whose type is exactly str or int are keyed, so a matrix
    holding true, false or a float is read afresh each time; "1" and 1 are different keys.
    A refused entry is never kept, so each refusal keeps its message and JSON path.  This
    saves parse time only: Report.identity compares operands by value, not by identity."""

    __slots__ = ("field", "memo", "matrices")

    def __init__(self, field: Field):
        self.field, self.memo, self.matrices = field, {}, {}

    def read(self, raw: list, where) -> list:
        """The scalars of the literals in raw, entry k at JSON path where[k]; a literal not
        read before goes through _parse_scalar."""
        f, memo = self.field, self.memo
        out = []
        for k, v in enumerate(raw):
            keyed = type(v) in _KEYED
            x = memo.get(v) if keyed else None
            if x is None:
                x = _parse_scalar(f, v, f"{where}[{k}]")
                if keyed:
                    memo[v] = x
            out.append(x)
        return out


def _parse_vector(lits: _Literals, raw, where, length=None):
    if not isinstance(raw, list):
        raise DocumentSyntaxError("expected a list of scalars", where)
    if length is not None and len(raw) != length:
        raise DocumentSyntaxError(f"expected {length} entries, got {len(raw)}", where)
    return tuple(lits.read(raw, where))


def _parse_matrix(lits: _Literals, raw, where, rows: int, cols: int) -> Matrix:
    if not isinstance(raw, list) or (raw and not all(isinstance(r, list) for r in raw)):
        raise DocumentSyntaxError("expected a row-major list of lists", where)
    if len(raw) != rows:
        raise DocumentSyntaxError(f"expected {rows} rows, got {len(raw)}", where)
    key = (rows, cols, *map(tuple, raw))
    keyed = _KEYED.issuperset(map(type, chain.from_iterable(raw)))
    m = lits.matrices.get(key) if keyed else None
    if m is None:
        data = [lits.read(r, f"{where}[{i}]") for i, r in enumerate(raw)]
        if any(len(r) != cols for r in data):
            raise DocumentSyntaxError(f"expected {cols} columns", where)
        m = Matrix(lits.field, data, rows, cols)
        if keyed:
            lits.matrices[key] = m
    return m


def _parse_table(lits: _Literals, raw, where, what, keys, rows, cols, shape) -> dict:
    """One matrix per (i, j) in rows x cols, keyed "i,j"; shape(i, j) is its (rows, cols)."""
    table = _expect(raw, dict, where, f"an object keyed '{keys}'")
    out = {}
    for i in rows:
        for j in cols:
            key = f"{i},{j}"
            if key not in table:
                raise DocumentSyntaxError(f"missing {what} entry {key}", where)
            out[(i, j)] = _parse_matrix(lits, table[key], f"{where}[{key}]", *shape(i, j))
    return out


def _expect(raw, typ, where, what):
    if not isinstance(raw, typ):
        raise DocumentSyntaxError(f"expected {what}", where)
    return raw


def _int(raw, where, below=None) -> int:
    """An integer (JSON true and false are not); with `below`, an index 0..below-1."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise DocumentSyntaxError("expected an integer", where)
    if below is not None and not 0 <= raw < below:
        raise DocumentSyntaxError(f"{raw} is not an element index 0..{below - 1}", where)
    return raw


# -- section parsers -------------------------------------------------------------------------


def _parse_field(raw) -> Field:
    spec = _expect(raw, dict, "field", "an object")
    kind = spec.get("kind")
    if kind == "rational":
        return Field.rational()
    if kind == "prime":
        p = _int(spec.get("characteristic"), "field.characteristic")
        try:
            return Field.prime(p)
        except ValueError as exc:
            raise DocumentSyntaxError(str(exc), "field")
    raise DocumentSyntaxError("field kind must be 'rational' or 'prime'", "field")


def _parse_group(doc: StructureDocument, name: str, spec, where, lits) -> FiniteGroup:
    group = _parse_group_body(doc, spec, where)
    if "elements" in spec:
        labels = _expect(spec["elements"], list, f"{where}.elements", "a list of labels")
        if not all(isinstance(l, str) for l in labels):
            raise DocumentSyntaxError("labels must be strings", f"{where}.elements")
        if len(labels) != group.order or len(set(labels)) != group.order:
            raise DocumentSyntaxError("need one distinct label per element", f"{where}.elements")
        doc.element_names[name] = tuple(labels)
    return group


def _order(n: int, where) -> int:
    """A group order n, checked against MAX_GROUP_ORDER before anything of that size is built."""
    if n > MAX_GROUP_ORDER:
        raise DocumentSyntaxError(f"group order {n} is above the bound {MAX_GROUP_ORDER}", where)
    return n


def _parse_group_body(doc: StructureDocument, spec, where) -> FiniteGroup:
    if "cyclic" in spec:
        return cyclic(_order(_int(spec["cyclic"], where), where))
    if "symmetric" in spec:
        return symmetric(_int(spec["symmetric"], where))
    if "product" in spec:
        pair = _expect(spec["product"], list, where, "a pair of names")
        if len(pair) != 2:
            raise DocumentSyntaxError("product needs exactly two factors", where)
        left, right = (_named(doc, "groups", g, where) for g in pair)
        _order(left.order * right.order, where)
        return direct_product(left, right)
    if "table" in spec:
        table = _expect(spec["table"], list, where, "a multiplication table")
        n = _order(_int(spec.get("order", len(table)), f"{where}.order"), f"{where}.order")
        if n != len(table) or any(not isinstance(r, list) or len(r) != n for r in table):
            raise DocumentSyntaxError("table is not order x order", where)
        if n < 1:
            raise DocumentSyntaxError("a group needs at least one element", where)
        return FiniteGroup.from_table(
            [[_int(v, f"{where}.table[{i}][{j}]", n) for j, v in enumerate(row)]
             for i, row in enumerate(table)]
        )
    raise DocumentSyntaxError("unknown group constructor", where)


_KINDS = {"groups": "group", "crossed_modules": "crossed module", "hopf": "Hopf structure"}


def _named(doc: StructureDocument, section: str, name, where):
    """The object `name` of an already parsed `section`."""
    return getattr(doc, section)[_ref(doc, section, name, where)]


def _ref(doc: StructureDocument, section: str, name, where) -> str:
    """`name`, checked to name an entry of an already parsed `section`, which it leaves unbuilt."""
    if not isinstance(name, str) or name not in getattr(doc, section):
        raise UnknownNameError(f"{where}: unknown {_KINDS[section]} {name!r}")
    return name


def _directive(spec, key, where) -> bool:
    """Whether spec gives the directive `key`; it takes no arguments, so its only value is true."""
    if key in spec and spec[key] is not True:
        raise DocumentSyntaxError("expected true", f"{where}.{key}")
    return key in spec


def _parse_int_list(raw, where, length, order=None):
    """length integers; with order given, each an element index 0..order-1."""
    lst = _expect(raw, list, where, "a list of indices")
    if len(lst) != length:
        raise DocumentSyntaxError(f"expected {length} entries", where)
    return [_int(v, f"{where}[{i}]", order) for i, v in enumerate(lst)]


def _parse_crossed_module(doc: StructureDocument, name: str, spec, where, lits) -> CrossedModule:
    if "trivial_over" in spec:
        return trivial_over(_named(doc, "groups", spec["trivial_over"], where))
    if "to_point" in spec:
        return abelian_to_point(_named(doc, "groups", spec["to_point"], where))
    if "identity" in spec:
        return identity_cm(_named(doc, "groups", spec["identity"], where))
    if "inclusion" in spec:
        inc = _expect(spec["inclusion"], dict, where, "an object")
        src = _named(doc, "groups", inc.get("source"), where)
        tgt = _named(doc, "groups", inc.get("target"), where)
        emb = _parse_int_list(inc.get("map"), f"{where}.map", src.order, tgt.order)
        return inclusion(GroupHom(src, tgt, tuple(emb)))
    if "E" in spec and "H" in spec:
        e_grp = _named(doc, "groups", spec["E"], where)
        h_grp = _named(doc, "groups", spec["H"], where)
        xi_map = _parse_int_list(spec.get("xi"), f"{where}.xi", e_grp.order, h_grp.order)
        xi = GroupHom(e_grp, h_grp, tuple(xi_map))
        act_raw = _expect(spec.get("action"), list, f"{where}.action", "a table")
        if len(act_raw) != h_grp.order:
            raise DocumentSyntaxError("action table needs one row per H element", f"{where}.action")
        action_table = tuple(
            tuple(_parse_int_list(row, f"{where}.action[{i}]", e_grp.order, e_grp.order))
            for i, row in enumerate(act_raw)
        )
        return CrossedModule(e_grp, h_grp, xi, GroupAction(h_grp, e_grp, action_table))
    raise DocumentSyntaxError("unknown crossed module constructor", where)


def _parse_hopf(doc: StructureDocument, name: str, spec, where, lits) -> HopfXiCoalgebra:
    f = doc.field
    if "trivial" in spec:
        cm = _named(doc, "crossed_modules", spec["trivial"], where)
        _check_cost(where, validation_cost(cm.H.order, cm.E.order, 1))
        return mk_trivial(cm, f)
    # a directive structure is built on first lookup, and its cost is checked then
    if "bicharacter" in spec:
        b = _expect(spec["bicharacter"], dict, where, "an object")
        e_grp = _named(doc, "groups", b.get("E"), where)
        g_grp = _named(doc, "groups", b.get("G"), where)
        omega_raw = _expect(b.get("omega"), list, f"{where}.omega", "a table")
        omega = [_parse_vector(lits, row, f"{where}.omega[{i}]") for i, row in enumerate(omega_raw)]

        def build_bicharacter():
            _check_cost(where, validation_cost(1, e_grp.order, g_grp.order))
            return mk_bicharacter_group_algebra(f, e_grp, g_grp, omega)

        return _Deferred(build_bicharacter, where)
    if "from_h_action" in spec:
        d = _expect(spec["from_h_action"], dict, where, "an object")
        cm = _named(doc, "crossed_modules", d.get("cm"), where)
        classical = _named(doc, "hopf", d.get("algebra"), where)  # its dimension sizes rho
        rho_raw = _expect(d.get("rho"), list, f"{where}.rho", "a list of matrices")
        dim = classical.dim(0)
        rho = [
            _parse_matrix(lits, m, f"{where}.rho[{i}]", dim, dim) for i, m in enumerate(rho_raw)
        ]

        def build_twisted():
            _check_cost(where, validation_cost(cm.H.order, cm.E.order, dim))
            return mk_from_h_action(cm, classical.base, rho)

        return _Deferred(build_twisted, where)
    if "from_pi_coalgebra" in spec:
        d = _expect(spec["from_pi_coalgebra"], dict, where, "an object")
        cm = _named(doc, "crossed_modules", d.get("cm"), where)
        base = _ref(doc, "hopf", d.get("base"), where)

        def build_inflated():
            b = doc.hopf[base].base
            dim = max(c.dim for c in b.components)
            _check_cost(where, validation_cost(cm.H.order, cm.E.order, dim))
            return mk_from_pi_coalgebra(cm, b)

        return _Deferred(build_inflated, where)
    # explicit structure constants
    cm = _named(doc, "crossed_modules", spec.get("cm"), where)
    H = cm.H
    comps_raw = _expect(spec.get("components"), list, f"{where}.components", "a list")
    if len(comps_raw) != H.order:
        raise DocumentSyntaxError("one component per group element required", f"{where}.components")
    comps = []
    for x, c in enumerate(comps_raw):
        cw = f"{where}.components[{x}]"
        c = _expect(c, dict, cw, "an object")
        mul_raw = _expect(c.get("mul"), list, f"{cw}.mul", "a structure tensor")
        dim = len(mul_raw)
        tensor = []
        for i, plane in enumerate(mul_raw):
            plane = _expect(plane, list, f"{cw}.mul[{i}]", "a list")
            if len(plane) != dim:
                raise DocumentSyntaxError("structure tensor is not cubic", f"{cw}.mul[{i}]")
            tensor.append(
                [
                    _parse_vector(lits, row, f"{cw}.mul[{i}][{j}]", dim)
                    for j, row in enumerate(plane)
                ]
            )
        unit = _parse_vector(lits, c.get("unit"), f"{cw}.unit", dim)
        comps.append(ComponentAlgebra.from_structure_constants(f, tensor, unit))
    _check_cost(where, validation_cost(H.order, cm.E.order, max(c.dim for c in comps)))
    coproduct = _parse_table(
        lits, spec.get("coproduct"), f"{where}.coproduct", "coproduct", "x,y",
        H.elements(), H.elements(),
        lambda x, y: (comps[x].dim * comps[y].dim, comps[H.mul(x, y)].dim),
    )
    counit = Matrix.row(
        f, _parse_vector(lits, spec.get("counit"), f"{where}.counit", comps[H.identity].dim))
    antipode = None
    if spec.get("antipode") is not None:
        anti_raw = _expect(spec["antipode"], list, f"{where}.antipode", "a list of matrices")
        if len(anti_raw) != H.order:
            raise DocumentSyntaxError("one antipode component per group element", f"{where}.antipode")
        antipode = tuple(
            _parse_matrix(lits, m, f"{where}.antipode[{x}]", comps[x].dim, comps[H.inv(x)].dim)
            for x, m in enumerate(anti_raw)
        )
    base = GradedHopfCoalgebra(f, H, tuple(comps), coproduct, counit, antipode)
    if antipode is None:  # solved, not checked: the report's antipode axioms decide it
        computed = compute_antipode(base)
        if computed is not None:
            base = base.with_antipode(computed)
    action = _parse_table(
        lits, spec.get("action"), f"{where}.action", "action", "x,e",
        H.elements(), cm.E.elements(),
        lambda x, e: (comps[H.mul(cm.xi_of(e), x)].dim, comps[x].dim),
    )
    return HopfXiCoalgebra(cm, base, action)


def _parse_graded_action(lits: _Literals, a, spec, where, key):
    """`dims` and one action matrix A_x (x) M_x -> M_x per group element, under `key`."""
    dims = tuple(_parse_int_list(spec.get("dims"), f"{where}.dims", a.H.order))
    raw = _expect(spec.get(key), list, f"{where}.{key}", "a list of matrices")
    if len(raw) != a.H.order:
        raise DocumentSyntaxError(f"expected {a.H.order} entries", f"{where}.{key}")
    return dims, tuple(
        _parse_matrix(lits, m, f"{where}.{key}[{x}]", dims[x], a.dim(x) * dims[x])
        for x, m in enumerate(raw)
    )


def _parse_module(doc: StructureDocument, name: str, spec, where, lits):
    over = spec.get("over")
    a = _named(doc, "hopf", over, where)
    f = doc.field
    if "line" in spec:
        d = _expect(spec["line"], dict, where, "an object")
        x = _int(d.get("degree"), f"{where}.degree", a.H.order)
        character = Matrix.row(
            f, _parse_vector(lits, d.get("character"), f"{where}.character", a.dim(x))
        )
        return over, line_module(a, x, character)
    if "regular" in spec:
        return over, regular_module(a, _int(spec["regular"], where, a.H.order))
    if _directive(spec, "unit", where):
        return over, unit_module(a)
    dims, actions = _parse_graded_action(lits, a, spec, where, "actions")
    return over, AModule(a, dims, actions)


def _parse_hopf_module(doc: StructureDocument, name: str, spec, where, lits):
    over = _ref(doc, "hopf", spec.get("over"), where)
    f = doc.field
    if "trivial" in spec:
        a, v = doc.hopf[over], _int(spec["trivial"], where)
        _check_cost(where, trivial_module_cost(a.H.order, max(map(a.dim, a.H.elements())), v))
        return over, trivial_hopf_module(a, v)
    if _directive(spec, "dual", where):

        def build_dual():
            if doc.hopf[over].base.antipode is None:
                raise DocumentSyntaxError(f"Hopf structure {over!r} has no antipode", where)
            return over, dual_hopf_module(doc.hopf[over])

        return _Deferred(build_dual, where)
    a = doc.hopf[over]
    H, E = a.H, a.E
    dims, r = _parse_graded_action(lits, a, spec, where, "r")
    rho = _parse_table(
        lits, spec.get("rho"), f"{where}.rho", "coaction", "x,y", H.elements(), H.elements(),
        lambda x, y: (a.dim(x) * dims[y], dims[H.mul(x, y)]),
    )
    psi = _parse_table(
        lits, spec.get("psi"), f"{where}.psi", "psi", "x,e", H.elements(), E.elements(),
        lambda x, e: (dims[H.mul(a.cm.xi_of(e), x)], dims[x]),
    )
    return over, HopfXiModule(a, dims, r, rho, psi)


def _parse_family(lits: _Literals, a, spec, where, what):
    """The list under `family`: one `what` over A_x for each group element x of a."""
    fam_raw = _expect(spec.get("family"), list, f"{where}.family", f"a list of {what}s")
    if len(fam_raw) != a.H.order:
        raise DocumentSyntaxError(f"one {what} per group element required", f"{where}.family")
    return tuple(
        _parse_vector(lits, v, f"{where}.family[{x}]", a.dim(x))
        for x, v in enumerate(fam_raw)
    )


def _parse_grouplike(doc: StructureDocument, name: str, spec, where, lits):
    a = _named(doc, "hopf", spec.get("in"), where)
    return spec.get("in"), _parse_family(lits, a, spec, where, "vector")


def _parse_integral(doc: StructureDocument, name: str, spec, where, lits):
    a = _named(doc, "hopf", spec.get("in"), where)
    side = spec.get("side", "left")
    if side not in ("left", "right"):
        raise DocumentSyntaxError("side must be 'left' or 'right'", where)
    return spec.get("in"), side, _parse_family(lits, a, spec, where, "covector")


def _object(pairs: list) -> dict:
    """The object of JSON `pairs`; a key that an object repeats is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise DocumentSyntaxError(f"an object repeats the key {key!r}", "document")
    return obj


class _Decoding:
    """The settings that _json's scanner reads, as json.loads(text, parse_int=literal_int)
    gives them, but for `_object`."""

    strict = True
    object_hook = None
    object_pairs_hook = _object
    parse_float = float
    parse_int = literal_int
    parse_constant = float  # NaN, Infinity and -Infinity


_scan = make_scanner(_Decoding)
_WHITESPACE = " \t\n\r"


def _invalid(message: str, text: str, pos: int):
    """Raise json.loads' error for `text` at `pos`; only this path loads json."""
    from json.decoder import JSONDecodeError

    raise JSONDecodeError(message, text, pos)


def _loads(text: str):
    """json.loads(text, parse_int=literal_int) by the C scanner it runs, without loading json,
    where an object that repeats a key is a DocumentSyntaxError.  Each error is the one
    json.loads raises."""
    if text.startswith("\ufeff"):
        _invalid("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    start = len(text) - len(text.lstrip(_WHITESPACE))
    try:
        value, end = _scan(text, start)
    except StopIteration as err:
        _invalid("Expecting value", text, err.value)
    except SystemError:
        # before Python 3.12 the scanner looks JSONDecodeError up only in a loaded json.decoder,
        # and fails without an exception when it is not: load it, and scan for the error again
        if "json.decoder" in sys.modules:
            raise
        import json.decoder  # noqa: F401

        value, end = _scan(text, start)
    rest = text[end:].lstrip(_WHITESPACE)
    if rest:
        _invalid("Extra data", text, len(text) - len(rest))
    return value


def parse(data: bytes) -> StructureDocument:
    """Parse and check a structure document; raises DocumentError subclasses.

    Every entry is checked here; a directive Hopf structure or dual Hopf module is
    built, and can fail, when first looked up (see Section).
    """
    try:
        text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
        raw = _loads(text)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too many digits
        raise DocumentSyntaxError(f"invalid JSON: {exc}", "document")
    if not isinstance(raw, dict):
        raise DocumentSyntaxError("top level must be an object", "document")
    if "field" not in raw:
        raise DocumentSyntaxError("missing field specification", "document")
    doc = StructureDocument(_parse_field(raw["field"]))

    seen = set()
    lits = _Literals(doc.field)
    for section, parse_entry, _ in SECTIONS:
        entries = _expect(raw.get(section, {}), dict, section, "an object")
        table = getattr(doc, section)
        for name, spec in entries.items():
            if not isinstance(name, str) or not name:
                raise DocumentSyntaxError("names must be nonempty strings", section)
            if name in seen:
                raise DocumentSyntaxError(f"duplicate name {name!r}", section)
            seen.add(name)
            where = f"{section}.{name}"
            spec = _expect(spec, dict, where, "an object")
            table[name] = _built(where, parse_entry, doc, name, spec, where, lits)
    return doc


# -- serialization ----------------------------------------------------------------------------


def _show_matrix(f: Field, m: Matrix):
    return [[f.show(v) for v in row] for row in m.data]


def _show_vector(f: Field, v):
    return [f.show(x) for x in v]


def _show_table(f: Field, rows, cols, matrix) -> dict:
    """The matrix(i, j) for (i, j) in rows x cols, keyed "i,j"."""
    return {f"{i},{j}": _show_matrix(f, matrix(i, j)) for i in rows for j in cols}


def _group_json(g: FiniteGroup):
    return {"order": g.order, "table": [list(r) for r in g.table]}


class _Refs:
    """Names of the groups and crossed modules that serialized objects refer to.

    One the document does not name gets a fresh name built from a hint; the
    serializer writes these extra objects after the named ones.
    """

    def __init__(self, doc: StructureDocument):
        self.doc = doc
        self.groups = {}
        self.cms = {}

    def group(self, g: FiniteGroup, hint: str) -> str:
        for name, known in self.doc.groups.items():
            if known == g:
                return name
        if hint in self.groups and self.groups[hint] == g:
            return hint
        n, i = hint, 0
        while n in self.doc.groups or (n in self.groups and self.groups[n] != g):
            i += 1
            n = f"{hint}_{i}"
        self.groups[n] = g
        return n

    def cm(self, cm: CrossedModule, hint: str) -> str:
        for name, known in chain(self.doc.crossed_modules.items(), self.cms.items()):
            if known == cm:
                return name
        n, i = hint, 0
        while n in self.doc.crossed_modules or n in self.cms:
            i += 1
            n = f"{hint}_{i}"
        self.cms[n] = cm
        return n


def _show_group(refs: _Refs, name: str, g: FiniteGroup):
    out = _group_json(g)
    if name in refs.doc.element_names:
        out["elements"] = list(refs.doc.element_names[name])
    return out


def _show_crossed_module(refs: _Refs, name: str, cm: CrossedModule):
    return {
        "E": refs.group(cm.E, f"{name}_E"),
        "H": refs.group(cm.H, f"{name}_H"),
        "xi": list(cm.xi.map),
        "action": [list(r) for r in cm.action.table],
    }


def _show_hopf(refs: _Refs, name: str, a: HopfXiCoalgebra):
    f = refs.doc.field
    comps = [
        {
            "mul": [
                [_show_vector(f, row) for row in plane]
                for plane in a.component(x).structure_constants()
            ],
            "unit": _show_vector(f, a.component(x).unit),
        }
        for x in a.H.elements()
    ]
    spec = {
        "cm": refs.cm(a.cm, f"{name}_cm"),
        "components": comps,
        "coproduct": _show_table(f, a.H.elements(), a.H.elements(), a.delta),
        "counit": _show_vector(f, a.counit.data[0]),
        "action": _show_table(f, a.H.elements(), a.E.elements(), a.phi),
    }
    if a.base.antipode is not None:
        spec["antipode"] = [_show_matrix(f, a.S(x)) for x in a.H.elements()]
    return spec


def _show_module(refs: _Refs, name: str, entry):
    over, m = entry
    return {
        "over": over,
        "dims": list(m.dims),
        "actions": [_show_matrix(refs.doc.field, m.r(x)) for x in m.algebra.H.elements()],
    }


def _show_hopf_module(refs: _Refs, name: str, entry):
    over, m = entry
    f, a = refs.doc.field, m.algebra
    return {
        "over": over,
        "dims": list(m.dims),
        "r": [_show_matrix(f, m.r[x]) for x in a.H.elements()],
        "rho": _show_table(f, a.H.elements(), a.H.elements(), lambda x, y: m.rho[(x, y)]),
        "psi": _show_table(f, a.H.elements(), a.E.elements(), lambda x, e: m.psi[(x, e)]),
    }


def _show_grouplike(refs: _Refs, name: str, entry):
    over, fam = entry
    return {"in": over, "family": [_show_vector(refs.doc.field, v) for v in fam]}


def _show_integral(refs: _Refs, name: str, entry):
    over, side, fam = entry
    return {"in": over, "side": side, "family": [_show_vector(refs.doc.field, v) for v in fam]}


# The document sections, in parse, lookup and serialization order: (name, parse, show).
# parse(doc, name, spec, where) checks one entry, an object at JSON path where, and returns
# its object or the _Deferred construction of it.  An object name is unique across all sections.
SECTIONS = (
    ("groups", _parse_group, _show_group),
    ("crossed_modules", _parse_crossed_module, _show_crossed_module),
    ("hopf", _parse_hopf, _show_hopf),
    ("modules", _parse_module, _show_module),
    ("hopf_modules", _parse_hopf_module, _show_hopf_module),
    ("grouplikes", _parse_grouplike, _show_grouplike),
    ("integrals", _parse_integral, _show_integral),
)


def serialize(doc: StructureDocument) -> bytes:
    """Canonical explicit serialization (constructor directives are materialized)."""
    f = doc.field
    out = {}
    out["field"] = (
        {"kind": "rational"} if f.p is None else {"kind": "prime", "characteristic": f.p}
    )
    refs = _Refs(doc)
    for section, _, show in SECTIONS:
        table = getattr(doc, section)
        out[section] = {name: show(refs, name, table[name]) for name in sorted(table)}
    # extra crossed modules may name extra groups, so they are written first
    for name in sorted(refs.cms):
        out["crossed_modules"][name] = _show_crossed_module(refs, name, refs.cms[name])
    for name in sorted(refs.groups):
        out["groups"][name] = _group_json(refs.groups[name])
    out = {key: value for key, value in out.items() if value}
    import json

    return (json.dumps(out, indent=2, sort_keys=True) + "\n").encode("utf-8")
