"""Right adjoints to change of base between action categories.

For a monoid homomorphism h: E -> B and an action F of E on M, the cofree
B-action lives on

    L(B, M) = { u : B -> M | e . u(b) = u(h(e) + b) for all e, b }

with pointwise addition and the shift action (b0 . u)(b) = u(b + b0).
cofree_mon does not scan all |M| ** |B| functions: the equation fixes
u(h(e) + b) once u(b) is chosen, so it chooses values only where earlier
choices leave them free, propagates each choice, and prunes conflicts.  The
counit is evaluation at 0; the mediating map for an equivariant beta is
gamma(x)(b) = beta(b . x).  When h is surjective and a basepoint-preserving
set-section is chosen, L(B, M) collapses onto a submonoid of M; with a
non-pointed section the displayed submonoid can fail to be isomorphic to
L(B, M), so cofree_mon_surjective records the comparison's outcome as data
instead of assuming it.  It compares against a CofreeTable the caller built,
so a sweep over sections builds L(B, M) once per (h, F).

For semirings along a surjective h, the right adjoint is the invariant
subalgebra R_h(X) = { x | e1 . x = e2 . x and x . e1 = x . e2 whenever
h(e1) = h(e2) }, with B acting through any preimage.  verify_adjunction_srng
takes an InvariantSub the caller built, so a sweep over actions G builds
R_h(X) once per (h, F).  What depends on (h, F) alone, R_h on maps being a
functor into B-actions with a commuting counit square, is checked once per
(h, F) by verify_restriction_functor.

Identities that are theorems for valid inputs (closure of the filtered
carriers, equivariance of the counit, the triangle equation) are still
checked; their failure raises ComputationError, marking an internal bug.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field

from .actions import (MonoidAction, SemiringAction, equivariant_homs,
                      restrict_action, validate_action)
from .algebra import (DEFAULT_HOM_GUARD, Hom, TabularAlgebra, _subalgebra,
                      check_hom, first_escape)
from .errors import ComputationError, GuardExceeded, StructuralError

DEFAULT_FUNC_GUARD = 1_000_000


# ---------------------------------------------------------------------------
# monoids: the cofree action L(B, M)


@dataclass(frozen=True)
class CofreeTable:
    """L(B, M) materialized: the member functions, pointwise monoid, shift
    action.  elements[i] is the function u as a tuple indexed by B;
    element 0 is the zero function; pos inverts elements (a builder that
    already made that index passes it as index)."""

    h: Hom  # E -> B
    m_action: MonoidAction  # the given action of E on M
    elements: tuple[tuple[int, ...], ...]
    monoid: TabularAlgebra  # pointwise addition on elements
    action: MonoidAction  # shift action of B on the monoid
    pos: dict[tuple[int, ...], int] = field(init=False, compare=False, repr=False)
    index: InitVar[dict | None] = None

    def __post_init__(self, index):
        object.__setattr__(self, "pos", index if index is not None else
                           {u: i for i, u in enumerate(self.elements)})

    @property
    def M(self) -> TabularAlgebra:
        return self.m_action.X


def _member_mon(u, h: Hom, F: MonoidAction) -> bool:
    badd = h.target.add
    return all(F.act[e][u[b]] == u[badd[h.map[e]][b]]
               for e in h.source.elements for b in h.target.elements)


def _propagated_functions(h: Hom, F: MonoidAction) -> list[tuple[int, ...]]:
    """The functions B -> M that survive propagating u(h(e) + b) = e . u(b)
    from a value chosen at each b that earlier choices leave free."""
    B, M = h.target, F.X
    steps = tuple((B.add[h.map[e]], F.act[e]) for e in h.source.elements)
    found = []

    def force(u, b, m) -> bool:
        u[b] = m
        stack = [b]
        while stack:
            x = stack.pop()
            for shift, act in steps:
                y, w = shift[x], act[u[x]]
                if u[y] is None:
                    u[y] = w
                    stack.append(y)
                elif u[y] != w:
                    return False
        return True

    def extend(u, b):
        while b < B.size and u[b] is not None:
            b += 1
        if b == B.size:
            found.append(tuple(u))
            return
        for m in M.elements:
            v = list(u)
            if force(v, b, m):
                extend(v, b + 1)

    extend([None] * B.size, 0)
    return found


def cofree_mon(h: Hom, F: MonoidAction, *, guard: int = DEFAULT_FUNC_GUARD) -> CofreeTable:
    """Compute L(B, M) for h: E -> B and an action F of E on M.

    The equation u(h(e) + b) = e . u(b) fixes u at h(e) + b once u(b) is
    known.  So values are chosen only at the b, in order, that no earlier
    choice has reached; each choice is propagated through the equation, and
    a conflict prunes it.  Every member survives, since its own values
    satisfy each forced one; every survivor is confirmed by the full
    membership test.  The guard still bounds |M| ** |B|, the size of the
    function space searched.  Elements are sorted lexicographically, which
    puts the zero function at index 0.
    """
    if F.B != h.source:
        raise StructuralError("cofree_mon: the action must act by the source of h")
    B, M = h.target, F.X
    required = M.size ** B.size
    if required > guard:
        raise GuardExceeded("cofree_mon", required, guard, "--guard-functions")
    elements = tuple(sorted(u for u in _propagated_functions(h, F) if _member_mon(u, h, F)))
    if not elements or elements[0] != (0,) * B.size:
        raise ComputationError("zero function missing from L(B, M)")
    pos = {u: i for i, u in enumerate(elements)}

    def locate(u, what: str) -> int:
        i = pos.get(u)
        if i is None:
            raise ComputationError(f"L(B, M) not closed under {what} at {u}")
        return i

    add = tuple(tuple(locate(tuple(M.add[u[b]][v[b]] for b in B.elements), "pointwise +")
                      for v in elements) for u in elements)
    monoid = TabularAlgebra(M.kind, len(elements), add)
    shift = tuple(tuple(locate(tuple(u[B.add[b][b0]] for b in B.elements), "shift")
                        for u in elements) for b0 in B.elements)
    action = MonoidAction(B, monoid, shift)
    rep = validate_action(action)
    if not rep.ok:
        raise ComputationError(f"shift action violates {rep.first_violation()}")
    return CofreeTable(h, F, elements, monoid, action, index=pos)


def counit_mon(c: CofreeTable) -> Hom:
    """Evaluation at 0_B, as a homomorphism L(B, M) -> M.

    Verified to be a homomorphism and equivariant from the restriction of the
    shift action along h to the given action on M.
    """
    eps = Hom(c.monoid, c.M, tuple(u[0] for u in c.elements))
    chk = check_hom(eps)
    if not chk.ok:
        raise ComputationError(f"counit fails to be a homomorphism at {chk.witness}")
    F, h = c.m_action, c.h
    for e in h.source.elements:
        for i in range(len(c.elements)):
            if eps.map[c.action.act[h.map[e]][i]] != F.act[e][eps.map[i]]:
                raise ComputationError(f"counit fails equivariance at (e={e}, u={c.elements[i]})")
    return eps


def _index(c: CofreeTable, u: tuple[int, ...], what: str) -> int:
    i = c.pos.get(u)
    if i is None:
        raise ComputationError(f"{what} image {u} escapes L(B, M)")
    return i


def _mediating_map(c: CofreeTable, G: MonoidAction, beta_map: tuple[int, ...]) -> tuple[int, ...]:
    """gamma(x) = the index in c.elements of b |-> beta(b . x)."""
    # column x of G.act is b |-> b . x
    return tuple(_index(c, tuple(beta_map[y] for y in col), "mediating") for col in zip(*G.act))


def mediate_mon(c: CofreeTable, G: MonoidAction, beta: Hom, *,
                guard: int = DEFAULT_HOM_GUARD) -> Hom:
    """The mediating map gamma: S -> L(B, M) for an equivariant beta: h*(G) -> M.

    gamma(x)(b) = beta(b . x).  Rejects a beta that is not a homomorphism or
    not equivariant for the restricted action.  Verifies that gamma lands in
    L(B, M), is an equivariant homomorphism, and satisfies counit . gamma =
    beta, and exhaustively confirms that no other equivariant map satisfies
    the triangle.
    """
    h, F = c.h, c.m_action
    if G.B != h.target:
        raise StructuralError("mediate_mon: G must be an action of the target of h")
    if beta.source != G.X or beta.target != c.M:
        raise StructuralError("mediate_mon: beta must map the carrier of G to M")
    chk = check_hom(beta)
    if not chk.ok:
        raise StructuralError(f"beta is not a homomorphism: witness {chk.witness}")
    for e in h.source.elements:
        for x in G.X.elements:
            if beta.map[G.act[h.map[e]][x]] != F.act[e][beta.map[x]]:
                raise StructuralError(f"beta is not equivariant at (e={e}, x={x})")
    gamma = Hom(G.X, c.monoid, _mediating_map(c, G, beta.map))
    chk = check_hom(gamma)
    if not chk.ok:
        raise ComputationError(f"gamma fails to be a homomorphism at {chk.witness}")
    for b in h.target.elements:
        for x in G.X.elements:
            if gamma.map[G.act[b][x]] != c.action.act[b][gamma.map[x]]:
                raise ComputationError(f"gamma fails equivariance at (b={b}, x={x})")
    for x in G.X.elements:
        if c.elements[gamma.map[x]][0] != beta.map[x]:
            raise ComputationError(f"triangle identity fails at x={x}")
    mediators = [g for g in equivariant_homs(G, c.action, guard=guard)
                 if all(c.elements[g[x]][0] == beta.map[x] for x in G.X.elements)]
    if mediators != [gamma.map]:
        raise ComputationError(f"expected a unique mediating map, found {len(mediators)}")
    return gamma


# ---------------------------------------------------------------------------
# monoids: the simplified description along a surjection


@dataclass(frozen=True)
class SurjectiveCofree:
    """The submonoid { m | (e + sect(b)) . m = sect(h(e) + b) . m } of M,
    with the comparison m |-> (b |-> sect(b) . m) into cofree_mon(h, F).

    For a basepoint-preserving section the comparison is an isomorphism and
    the submonoid is independent of the section; for other set-sections the
    comparison can fail, and that outcome is recorded in is_isomorphism and
    failure rather than raised.
    """

    sect: tuple[int, ...]
    members: tuple[int, ...]
    monoid: TabularAlgebra  # the submonoid, restricted from M
    cofree: CofreeTable  # carries h and the action of E on M
    compare: tuple[int, ...]  # submonoid index -> index in cofree.elements
    is_isomorphism: bool
    failure: str | None


def cofree_mon_surjective(c: CofreeTable, sect) -> SurjectiveCofree:
    """The simplified L(B, M) along a surjective h with a chosen set-section.

    c = cofree_mon(h, F) carries h and F; the submonoid is compared against
    c.elements, so c can be shared by every section of the same (h, F).
    """
    h, F = c.h, c.m_action
    if not h.is_surjective():
        raise StructuralError("cofree_mon_surjective needs a surjective h")
    E, B, M = h.source, h.target, F.X
    sect = tuple(sect)
    if len(sect) != B.size or any(not (0 <= e < E.size) for e in sect):
        raise StructuralError("sect must assign an element of E to each element of B")
    if any(h.map[sect[b]] != b for b in B.elements):
        raise StructuralError("sect is not a right inverse of h")
    act = F.act
    # (e + sect(b)) . m = sect(h(e) + b) . m, one test per distinct pair of rows
    rows = {(act[E.add[e][sect[b]]], act[sect[B.add[h.map[e]][b]]])
            for e in E.elements for b in B.elements}
    pairs = [(r1, r2) for r1, r2 in rows if r1 != r2]
    members = tuple(m for m in M.elements if all(r1[m] == r2[m] for r1, r2 in pairs))
    if 0 not in members:
        raise ComputationError("0 escapes the simplified submonoid")
    escape = first_escape(M, members)  # a theorem: the membership condition is additive
    if escape is not None:
        _, m1, m2 = escape
        raise ComputationError(f"submonoid not closed at ({m1}, {m2})")
    monoid, _ = _subalgebra(M, members)
    compare = tuple(_index(c, tuple(act[sect[b]][m] for b in B.elements), "comparison")
                    for m in members)
    is_iso, failure = _compare_verdict(monoid, c, compare)
    return SurjectiveCofree(sect, members, monoid, c, compare, is_iso, failure)


def _compare_verdict(monoid: TabularAlgebra, cofree: CofreeTable,
                     compare: tuple[int, ...]) -> tuple[bool, str | None]:
    if len(set(compare)) != len(compare):
        return False, "comparison map is not injective"
    if set(compare) != set(range(len(cofree.elements))):
        return False, "comparison map is not surjective onto L(B, M)"
    if compare[0] != 0:
        return False, "comparison map does not preserve the zero"
    for i in range(monoid.size):
        for j in range(monoid.size):
            if compare[monoid.add[i][j]] != cofree.monoid.add[compare[i]][compare[j]]:
                return False, f"comparison map fails additivity at ({i}, {j})"
    return True, None


def _sections(h: Hom):
    # Lazily, so that pointed_sections does not hold the sections it drops.
    if not h.is_surjective():
        raise StructuralError("sections exist only for surjective maps")
    fibres = [[e for e in h.source.elements if h.map[e] == b] for b in h.target.elements]
    return itertools.product(*fibres)


def all_sections(h: Hom) -> tuple[tuple[int, ...], ...]:
    """Every set-section of a surjective h, basepoint-preserving or not, lex
    ordered: one fibre per element of the target, the first varying slowest."""
    return tuple(_sections(h))


def pointed_sections(h: Hom) -> tuple[tuple[int, ...], ...]:
    """The basepoint-preserving sections among all_sections(h), in its order."""
    return tuple(s for s in _sections(h) if s[0] == 0)


# ---------------------------------------------------------------------------
# semirings: the invariant subalgebra R_h(X)


@dataclass(frozen=True)
class InvariantSub:
    """R_h(X) for a surjective h: the elements on which h-equal scalars agree,
    as a subalgebra of X with the induced B-action; pos inverts members (a
    builder that already made that index passes it as index)."""

    h: Hom
    x_action: SemiringAction
    members: tuple[int, ...]  # sorted; index i of the subalgebra is members[i]
    algebra: TabularAlgebra
    action: SemiringAction  # B acting on the subalgebra
    pos: dict[int, int] = field(init=False, compare=False, repr=False)
    index: InitVar[dict | None] = None

    def __post_init__(self, index):
        object.__setattr__(self, "pos", index if index is not None else
                           {v: i for i, v in enumerate(self.members)})


def invariants_srng(h: Hom, F: SemiringAction) -> InvariantSub:
    """Compute R_h(X) and its induced B-action along a surjective h.

    The induced action evaluates through the least preimage of each b; the
    defining condition of R_h(X) is exactly that the choice is irrelevant.
    """
    if F.B != h.source:
        raise StructuralError("invariants_srng: the action must act by the source of h")
    if not h.is_surjective():
        raise StructuralError("invariants_srng needs a surjective h")
    E, B, X = h.source, h.target, F.X
    left, right = F.left, F.right
    fibres = [[e for e in E.elements if h.map[e] == b] for b in B.elements]
    members = tuple(x for x in X.elements
                    if all(left[e][x] == left[fib[0]][x] and right[x][e] == right[x][fib[0]]
                           for fib in fibres for e in fib[1:]))
    escape = first_escape(X, members)  # closure under + and . is a theorem
    if escape is not None:
        name, x, y = escape
        raise ComputationError(f"R_h(X) not closed under {name} at ({x}, {y})")
    algebra, _ = _subalgebra(X, members)
    pos = {v: i for i, v in enumerate(members)}
    pre = tuple(fib[0] for fib in fibres)

    def locate(v: int, at: str) -> int:
        if v not in pos:
            raise ComputationError(f"action escapes R_h(X) at ({at})")
        return pos[v]

    bl = tuple(tuple(locate(left[pre[b]][v], f"{b} . {v}") for v in members) for b in B.elements)
    br = tuple(tuple(locate(right[v][pre[b]], f"{v} . {b}") for b in B.elements) for v in members)
    action = SemiringAction(B, algebra, bl, br)
    rep = validate_action(action)
    if not rep.ok:
        raise ComputationError(f"induced action violates {rep.first_violation()}")
    return InvariantSub(h, F, members, algebra, action, index=pos)


def restrict_invariant_map(inv: InvariantSub, w: Hom) -> Hom:
    """R_h on maps: restrict an equivariant w: X -> X to R_h(X)."""
    if w.source != inv.x_action.X or w.target != inv.x_action.X:
        raise StructuralError("restrict_invariant_map expects an endomap of the carrier")
    rows = []
    for v in inv.members:
        if w.map[v] not in inv.pos:
            raise ComputationError(f"equivariant map leaves R_h(X) at {v}")
        rows.append(inv.pos[w.map[v]])
    return Hom(inv.algebra, inv.algebra, tuple(rows))


def verify_restriction_functor(inv: InvariantSub, *,
                               guard: int = DEFAULT_HOM_GUARD) -> str | None:
    """Check R_h on maps for inv = invariants_srng(h, F): for every
    equivariant endomap w of F, R_h(w) is an equivariant endomap of R_h(X)
    (so R_h is a functor into B-actions) and the counit square commutes,
    members[R_h(w)(i)] = w(members[i]).  Returns the first failure, or None.
    """
    endos = set(equivariant_homs(inv.action, inv.action, guard=guard))
    for w in equivariant_homs(inv.x_action, inv.x_action, guard=guard):
        r = restrict_invariant_map(inv, Hom(inv.x_action.X, inv.x_action.X, w)).map
        if r not in endos:
            return f"R_h({w}) = {r} is not an equivariant endomap of R_h(X)"
        for i, v in enumerate(inv.members):
            if inv.members[r[i]] != w[v]:
                return f"counit square fails for w={w} at x={v}"
    return None


# ---------------------------------------------------------------------------
# semirings: adjunction verification


@dataclass(frozen=True)
class AdjunctionReport:
    h: Hom
    lhs_count: int  # equivariant maps h*(G) -> F
    rhs_count: int  # equivariant maps G -> R_h(F)
    bijection_ok: bool
    failure: str | None

    @property
    def ok(self) -> bool:
        return self.lhs_count == self.rhs_count and self.bijection_ok


def verify_adjunction_srng(inv: InvariantSub, G: SemiringAction, *,
                           guard: int = DEFAULT_HOM_GUARD) -> AdjunctionReport:
    """Exhibit the bijection Hom_E(h*(G), F) = Hom_B(G, R_h(F)) for
    inv = invariants_srng(h, F).

    Every equivariant map on the left lands inside R_h(X) and corestricts to
    a map on the right; the two hom-sets are enumerated independently and the
    corestriction is checked to be a bijection.  The checks run in that
    order and stop at the first failure.  Naturality in F rests on R_h on
    maps, which verify_restriction_functor checks once per (h, F).
    """
    h = inv.h
    if G.B != h.target:
        raise StructuralError("verify_adjunction_srng: G acts by the target of h, F by its source")
    lhs = equivariant_homs(restrict_action(h, G), inv.x_action, guard=guard)
    rhs = set(equivariant_homs(G, inv.action, guard=guard))
    failure = None
    images = []
    for t in lhs:
        c = tuple(inv.pos.get(t[y]) for y in G.X.elements)
        if None in c:
            failure = f"a left-hand map escapes R_h(X): {t}"
            break
        if c not in rhs:
            failure = f"corestriction {c} is not equivariant on the right"
            break
        images.append(c)
    if failure is None and (len(set(images)) != len(images) or set(images) != rhs):
        failure = "corestriction is not a bijection of hom-sets"
    return AdjunctionReport(h, len(lhs), len(rhs), failure is None, failure)
