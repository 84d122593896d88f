"""Actions of a base algebra on a kernel algebra, and semidirect products.

Monoid actions follow the composition-after convention: phi(b1 + b2) =
phi(b1) . phi(b2), i.e. act[b1 + b2][x] = act[b1][act[b2][x]].  Semiring
actions carry a left table B x X -> X and a right table X x B -> X subject to
six compatibility families, checked by validate_action.

Every Schreier point induces an action of its base on its kernel via the
retraction q: for monoids b.x = q(s(b) + k(x)); for semirings b.x =
q(s(b) k(x)) and x.b = q(k(x) s(b)).  The semidirect product rebuilds the
point from the action; the two constructions are mutually inverse.

Both kinds of action are read through one view, the maps X -> X the base
acts by: act[b] for monoids, left[b] and the columns of right for semirings.
equivariant_homs filters hom_maps by commuting with each of them, and like
hom_maps it returns map arrays, not Hom objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (DEFAULT_HOM_GUARD, Hom, Kind, TabularAlgebra, Table,
                      _as_table, _homs_core, check_hom, enumerate_homs, hom_maps,
                      identity_hom, make_algebra, same_signature,
                      validate_algebra)
from .errors import (ComputationError, InvalidAction, NotSchreier,
                     SignatureMismatch)
from .points import (Point, PointMorphism, SchreierWitness, check_schreier,
                     kernel_algebra)

MONOID_KINDS = (Kind.MONOID, Kind.COMMUTATIVE_MONOID)


@dataclass(frozen=True)
class MonoidAction:
    """act[b][x] = b.x for a base monoid B acting on a monoid X."""

    B: TabularAlgebra
    X: TabularAlgebra
    act: Table

    def __post_init__(self):
        if self.B.kind not in MONOID_KINDS or self.X.kind not in MONOID_KINDS:
            raise SignatureMismatch("monoid action needs monoid-kind B and X")
        b, x = self.B.size, self.X.size
        object.__setattr__(self, "act", _as_table(self.act, b, x, x, "act"))


@dataclass(frozen=True)
class SemiringAction:
    """left[b][x] = b.x and right[x][b] = x.b for semirings B, X."""

    B: TabularAlgebra
    X: TabularAlgebra
    left: Table
    right: Table

    def __post_init__(self):
        if self.B.kind is not Kind.SEMIRING or self.X.kind is not Kind.SEMIRING:
            raise SignatureMismatch("semiring action needs semiring-kind B and X")
        b, x = self.B.size, self.X.size
        object.__setattr__(self, "left", _as_table(self.left, b, x, x, "act-left"))
        object.__setattr__(self, "right", _as_table(self.right, x, b, x, "act-right"))


Action = MonoidAction | SemiringAction


@dataclass(frozen=True)
class AxiomEntry:
    axiom: str
    ok: bool
    witness: tuple | None


@dataclass(frozen=True)
class ActionReport:
    action: Action
    entries: tuple[AxiomEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def first_violation(self) -> AxiomEntry | None:
        for e in self.entries:
            if not e.ok:
                return e
        return None


def _first(*families):
    """The first witness of the first family that has one, or None."""
    return next(itertools.chain(*families), None)


def validate_action(a: Action) -> ActionReport:
    """Check every action axiom; each entry carries the first witness found."""
    if isinstance(a, MonoidAction):
        return _validate_monoid_action(a)
    return _validate_semiring_action(a)


def _validate_monoid_action(a: MonoidAction) -> ActionReport:
    B, X, act = a.B, a.X, a.act
    entries = []
    entries.append(AxiomEntry(
        "endo_zero", *_wrap(_first((b,) for b in B.elements if act[b][0] != 0))))
    entries.append(AxiomEntry(
        "endo_add", *_wrap(_first((b, x, y) for b in B.elements
                                  for x in X.elements for y in X.elements
                                  if act[b][X.add[x][y]] != X.add[act[b][x]][act[b][y]]))))
    entries.append(AxiomEntry(
        "unit", *_wrap(_first((x,) for x in X.elements if act[0][x] != x))))
    entries.append(AxiomEntry(
        "compose", *_wrap(_first((b1, b2, x) for b1 in B.elements for b2 in B.elements
                                 for x in X.elements
                                 if act[B.add[b1][b2]][x] != act[b1][act[b2][x]]))))
    return ActionReport(a, tuple(entries))


def _wrap(witness):
    return (witness is None, witness)


def _validate_semiring_action(a: SemiringAction) -> ActionReport:
    B, X = a.B, a.X
    left, right = a.left, a.right
    bmul, xmul = B.op_table("mul"), X.op_table("mul")
    badd, xadd = B.add, X.add
    bs, xs = B.elements, X.elements
    entries = [
        AxiomEntry("zero", *_wrap(_first(
            (("0.x", x) for x in xs if left[0][x] != 0),
            (("x.0", x) for x in xs if right[x][0] != 0),
            (("b.0", b) for b in bs if left[b][0] != 0),
            (("0.b", b) for b in bs if right[0][b] != 0)))),
        AxiomEntry("add_in_x_left", *_wrap(_first(
            (b, x1, x2) for b in bs for x1 in xs for x2 in xs
            if left[b][xadd[x1][x2]] != xadd[left[b][x1]][left[b][x2]]))),
        AxiomEntry("add_in_x_right", *_wrap(_first(
            (x1, x2, b) for x1 in xs for x2 in xs for b in bs
            if right[xadd[x1][x2]][b] != xadd[right[x1][b]][right[x2][b]]))),
        AxiomEntry("add_in_b_left", *_wrap(_first(
            (b1, b2, x) for b1 in bs for b2 in bs for x in xs
            if left[badd[b1][b2]][x] != xadd[left[b1][x]][left[b2][x]]))),
        AxiomEntry("add_in_b_right", *_wrap(_first(
            (x, b1, b2) for x in xs for b1 in bs for b2 in bs
            if right[x][badd[b1][b2]] != xadd[right[x][b1]][right[x][b2]]))),
        # b.(x1 x2) = (b.x1) x2 and (x1 x2).b = x1 (x2.b)
        AxiomEntry("mul_in_x", *_wrap(_first(
            ((b, x1, x2) for b in bs for x1 in xs for x2 in xs
             if left[b][xmul[x1][x2]] != xmul[left[b][x1]][x2]),
            ((x1, x2, b) for x1 in xs for x2 in xs for b in bs
             if right[xmul[x1][x2]][b] != xmul[x1][right[x2][b]])))),
        # (b1 b2).x = b1.(b2.x) and x.(b1 b2) = (x.b1).b2
        AxiomEntry("mul_in_b", *_wrap(_first(
            ((b1, b2, x) for b1 in bs for b2 in bs for x in xs
             if left[bmul[b1][b2]][x] != left[b1][left[b2][x]]),
            ((x, b1, b2) for x in xs for b1 in bs for b2 in bs
             if right[right[x][b1]][b2] != right[x][bmul[b1][b2]])))),
        # x1 (b.x2) = (x1.b) x2 and (b1.x).b2 = b1.(x.b2)
        AxiomEntry("mixed", *_wrap(_first(
            ((x1, b, x2) for x1 in xs for b in bs for x2 in xs
             if xmul[x1][left[b][x2]] != xmul[right[x1][b]][x2]),
            ((b1, x, b2) for b1 in bs for x in xs for b2 in bs
             if right[left[b1][x]][b2] != left[b1][right[x][b2]])))),
    ]
    return ActionReport(a, tuple(entries))


def require_valid_action(a: Action) -> Action:
    report = validate_action(a)
    if not report.ok:
        raise InvalidAction(report)
    return a


# ---------------------------------------------------------------------------
# point -> action


def point_to_action(p: Point, witness: SchreierWitness | None = None) -> Action:
    """Extract the induced action of B on the kernel of a Schreier point.

    The kernel is materialized as an algebra X (indices 0..k-1 in kernel
    order).  Rejects non-Schreier points with the failing witness attached.
    """
    w = witness if witness is not None else check_schreier(p)
    if not w.is_schreier:
        raise NotSchreier(w)
    X, embed = kernel_algebra(p)
    pos = {v: i for i, v in enumerate(embed)}
    q = w.q
    if p.A.kind in MONOID_KINDS:
        act = tuple(tuple(pos[q[p.A.add[p.s.map[b]][k]]] for k in embed)
                    for b in p.B.elements)
        return MonoidAction(p.B, X, act)
    if p.A.kind is Kind.SEMIRING:
        mul = p.A.op_table("mul")
        left = tuple(tuple(pos[q[mul[p.s.map[b]][k]]] for k in embed)
                     for b in p.B.elements)
        right = tuple(tuple(pos[q[mul[k][p.s.map[b]]]] for b in p.B.elements)
                      for k in embed)
        return SemiringAction(p.B, X, left, right)
    raise SignatureMismatch("actions are defined for monoid and semiring signatures only")


# ---------------------------------------------------------------------------
# action -> point (semidirect products)


def _semidirect(a: Action, kind: Kind, add, mul=None) -> Point:
    """The semidirect product point of a (see semidirect) whose tables add
    and mul send (x1, b1, x2, b2) to a pair (x, b), element x * |B| + b."""
    require_valid_action(a)
    bsize = a.B.size
    pairs = [(x, b) for x in a.X.elements for b in a.B.elements]

    def table(op):
        return [[x * bsize + b for x, b in (op(x1, b1, x2, b2) for x2, b2 in pairs)]
                for x1, b1 in pairs]

    alg = make_algebra(kind, table(add), None if mul is None else {"mul": table(mul)})
    rep = validate_algebra(alg)
    if not rep.ok:
        raise ComputationError(f"semidirect product violates {rep.first_violation()}")
    f = Hom(alg, a.B, tuple(b for _, b in pairs))
    s = Hom(a.B, alg, tuple(a.B.elements))  # (0, b) is element b
    return Point(alg, a.B, f, s)


def semidirect(a: MonoidAction) -> Point:
    """Semidirect product point of a monoid action.

    Carrier X x B as pairs (x, b), addition (x1, b1) + (x2, b2) =
    (x1 + b1.x2, b1 + b2), projection onto B, section b |-> (0, b).  The
    result is Schreier with retraction (x, b) |-> (x, 0); the output algebra
    is re-validated, and a validation failure is a hard (internal) failure.
    """
    xadd, badd, act = a.X.add, a.B.add, a.act
    return _semidirect(a, Kind.MONOID,
                       lambda x1, b1, x2, b2: (xadd[x1][act[b1][x2]], badd[b1][b2]))


def semidirect_srng(a: SemiringAction) -> Point:
    """Semidirect product point of a semiring action: addition componentwise,
    multiplication (x1, b1)(x2, b2) = (x1 x2 + x1.b2 + b1.x2, b1 b2)."""
    xadd, badd, left, right = a.X.add, a.B.add, a.left, a.right
    xmul, bmul = a.X.op_table("mul"), a.B.op_table("mul")
    return _semidirect(
        a, Kind.SEMIRING,
        lambda x1, b1, x2, b2: (xadd[x1][x2], badd[b1][b2]),
        lambda x1, b1, x2, b2: (xadd[xadd[xmul[x1][x2]][right[x1][b2]]][left[b1][x2]],
                                bmul[b1][b2]))


def semidirect_point(a: Action) -> Point:
    return semidirect(a) if isinstance(a, MonoidAction) else semidirect_srng(a)


def roundtrip_point_iso(p: Point) -> PointMorphism:
    """The canonical comparison from semidirect(point_to_action(p)) back to p.

    Sends (x, b) to k(x) + s(b), where k embeds the kernel.  For a Schreier
    point this is an isomorphism of points over the identity of B; that it is
    a bijective homomorphism is verified, not assumed.
    """
    a = point_to_action(p)
    sd = semidirect_point(a)
    _, embed = kernel_algebra(p)
    g = Hom(sd.A, p.A, tuple(p.A.add[embed[x]][p.s.map[b]]
                             for x in a.X.elements for b in p.B.elements))
    chk = check_hom(g)
    if not chk.ok:
        raise ComputationError(f"comparison map fails to be a homomorphism at {chk.witness}")
    if not g.is_bijective():
        raise ComputationError("comparison map fails to be bijective")
    return PointMorphism(sd, p, g, identity_hom(p.B))


def restrict_action(h: Hom, a: Action) -> Action:
    """Change of base: turn an action of B into an action of E along h: E -> B."""
    if a.B != h.target:
        raise SignatureMismatch("restrict_action: h must land in the action's base")
    E = h.source
    if isinstance(a, MonoidAction):
        return MonoidAction(E, a.X, tuple(a.act[h.map[e]] for e in E.elements))
    return SemiringAction(E, a.X,
                          tuple(a.left[h.map[e]] for e in E.elements),
                          tuple(tuple(row[h.map[e]] for e in E.elements) for row in a.right))


# ---------------------------------------------------------------------------
# equivariant maps and action enumeration


def _acting_maps(a: Action) -> tuple[tuple[int, ...], ...]:
    """The maps X -> X the base acts by: act[b] for a monoid action; for a
    semiring action left[b], then x |-> x.b, the columns of right."""
    if isinstance(a, MonoidAction):
        return a.act
    return a.left + tuple(zip(*a.right))


@lru_cache(maxsize=1 << 14)
def _square_bits(x1: TabularAlgebra, x2: TabularAlgebra,
                 r1: tuple[int, ...], r2: tuple[int, ...]) -> int:
    """Bit i is set when hom_maps(x1, x2)[i] = m has m . r1 = r2 . m."""
    bits = 0
    for i, m in enumerate(_homs_core(x1, x2)):
        if all(m[r1[x]] == r2[m[x]] for x in x1.elements):
            bits |= 1 << i
    return bits


def equivariant_homs(a1: Action, a2: Action, *,
                     guard: int = DEFAULT_HOM_GUARD) -> tuple[tuple[int, ...], ...]:
    """The map arrays, in hom_maps order, of the homs m: X1 -> X2 with
    m . r1 = r2 . m for each pair (r1, r2) of _acting_maps(a1) and
    _acting_maps(a2); a semiring's right action is read by columns.

    Each square (r1, r2) is one int over hom_maps(X1, X2), kept by value in
    _square_bits; the hom-set is the AND of the squares' ints, the bitset
    form of a table constraint (Compact-Table, Demeulenaere et al., CP 2016).
    """
    if a1.B != a2.B:
        raise SignatureMismatch("equivariant homs need actions of the same base")
    if not same_signature(a1.X, a2.X):
        raise SignatureMismatch("equivariant homs need carriers of one signature")
    x1, x2 = a1.X, a2.X
    homs = hom_maps(x1, x2, guard=guard)
    bits = (1 << len(homs)) - 1
    for r1, r2 in zip(_acting_maps(a1), _acting_maps(a2)):
        bits &= _square_bits(x1, x2, r1, r2)
        if not bits:
            return ()
    out = []
    while bits:
        low = bits & -bits
        out.append(homs[low.bit_length() - 1])
        bits ^= low
    return tuple(out)


def additive_reduct(a: TabularAlgebra) -> TabularAlgebra:
    """Forget everything but the addition; the result is monoid-kind."""
    return TabularAlgebra(Kind.MONOID, a.size, a.add)


def endomorphism_monoid(x: TabularAlgebra) -> tuple[TabularAlgebra, tuple[tuple[int, ...], ...]]:
    """All endomorphisms of x as a monoid under composition-after.

    Element 0 is the identity endomorphism (the neutral element); the rest
    follow in lex order of their map arrays.  comp[i][j] is "apply j, then i",
    matching the action convention phi(b1 + b2) = phi(b1) . phi(b2).
    """
    endos = [h.map for h in enumerate_homs(x, x)]
    ident = tuple(range(x.size))
    maps = (ident,) + tuple(m for m in endos if m != ident)
    pos = {m: i for i, m in enumerate(maps)}
    comp = tuple(tuple(pos[tuple(mi[v] for v in mj)] for mj in maps) for mi in maps)
    return TabularAlgebra(Kind.MONOID, len(maps), comp), maps


def enumerate_monoid_actions(B: TabularAlgebra, X: TabularAlgebra, *,
                             guard: int = DEFAULT_HOM_GUARD) -> tuple[MonoidAction, ...]:
    """All actions of B on X, as homs B -> End(X)."""
    end, maps = endomorphism_monoid(X)
    out = []
    for h in enumerate_homs(B, end, guard=guard):
        act = tuple(maps[h.map[b]] for b in B.elements)
        out.append(MonoidAction(B, X, act))
    return tuple(out)


def _additive_endo_monoid(x: TabularAlgebra) -> tuple[TabularAlgebra, tuple[tuple[int, ...], ...]]:
    # Additive endomorphisms under pointwise addition; the zero map is the
    # neutral element and sorts first on its own.
    red = additive_reduct(x)
    maps = tuple(sorted(h.map for h in enumerate_homs(red, red)))
    pos = {m: i for i, m in enumerate(maps)}
    table = tuple(tuple(pos[tuple(x.add[mi[v]][mj[v]] for v in x.elements)] for mj in maps)
                  for mi in maps)
    return TabularAlgebra(Kind.MONOID, len(maps), table), maps


def enumerate_semiring_actions(B: TabularAlgebra, X: TabularAlgebra, *,
                               guard: int = DEFAULT_HOM_GUARD) -> tuple[SemiringAction, ...]:
    """All semiring actions of B on X.

    Candidates for each side are additive maps B -> End_+(X) compatible with
    the multiplication of B (so the zero, additivity and mul_in_b families
    hold by construction); validate_action decides each pair.
    """
    endp, maps = _additive_endo_monoid(X)
    badd = additive_reduct(B)
    bmul = B.op_table("mul")
    additive = enumerate_homs(badd, endp, guard=guard)
    compose_of = {}

    def comp(mi, mj):  # apply mj, then mi
        key = (mi, mj)
        if key not in compose_of:
            compose_of[key] = tuple(mi[v] for v in mj)
        return compose_of[key]

    lefts = []
    for h in additive:
        phi = [maps[h.map[b]] for b in B.elements]
        if all(phi[bmul[b1][b2]] == comp(phi[b1], phi[b2])
               for b1 in B.elements for b2 in B.elements):
            lefts.append(tuple(phi))
    rights = []
    for h in additive:
        psi = [maps[h.map[b]] for b in B.elements]
        if all(psi[bmul[b1][b2]] == comp(psi[b2], psi[b1])
               for b1 in B.elements for b2 in B.elements):
            rights.append(tuple(psi))

    actions = (SemiringAction(B, X, phi, tuple(zip(*psi))) for phi in lefts for psi in rights)
    return tuple(a for a in actions if validate_action(a).ok)
