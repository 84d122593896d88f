"""Points (split epimorphisms with a chosen section) and Schreier structure.

A point is f: A -> B together with a section s (f after s is the identity).
It is Schreier when every a in A splits uniquely as a = alpha + s(f(a)) with
alpha in the kernel f^{-1}(0); the induced retraction q is a plain map, not a
homomorphism in general.

Fibre morphisms (over the identity of the base) are swept as map arrays,
fibre_maps; ssfl_facts decides the split short five lemma on one of them
for the verify sweep, the search and the witness replay alike.  JseCheck is
the one generation verdict: a strong point is the joint strong epimorphy of
the kernel inclusion and the section, and coherence reads the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import (DEFAULT_HOM_GUARD, Hom, Subset, TabularAlgebra, _subalgebra,
                      compose, check_hom, enumerate_homs, first_escape,
                      generated_subalgebra, hom_maps, identity_hom, product,
                      pullback, subset)
from .errors import NotSchreier, StructuralError


@dataclass(frozen=True)
class Point:
    """A split epimorphism f: A -> B with section s; kernel cached at construction.

    Construction enforces that f and s are homomorphisms, that f(s(b)) = b,
    and that the kernel is closed under every op (automatic for monoids and
    semirings; a real constraint for jt signatures).
    """

    A: TabularAlgebra
    B: TabularAlgebra
    f: Hom
    s: Hom
    kernel: Subset = None  # type: ignore[assignment]  # computed below

    def __post_init__(self):
        if self.f.source != self.A or self.f.target != self.B:
            raise StructuralError("f must map A to B")
        if self.s.source != self.B or self.s.target != self.A:
            raise StructuralError("s must map B to A")
        for h, name in ((self.f, "f"), (self.s, "s")):
            chk = check_hom(h)
            if not chk.ok:
                raise StructuralError(f"{name} is not a homomorphism: witness {chk.witness}")
        if compose(self.f, self.s).map != identity_hom(self.B).map:
            raise StructuralError("s is not a section of f")
        ker = subset(self.A, (a for a in self.A.elements if self.f.map[a] == 0))
        escape = first_escape(self.A, ker.members)
        if escape is not None:
            name, x, y = escape
            raise StructuralError(f"kernel not closed under {name} at ({x}, {y})")
        object.__setattr__(self, "kernel", ker)

    def section_image(self, a: int) -> int:
        """s(f(a))."""
        return self.s.map[self.f.map[a]]


def identity_point(b: TabularAlgebra) -> Point:
    return Point(b, b, identity_hom(b), identity_hom(b))


def product_point(b: TabularAlgebra, x: TabularAlgebra) -> Point:
    """The trivial point B x X -> B with section b |-> (b, 0)."""
    pr = product(b, x)
    return Point(pr.algebra, b, pr.proj1, pr.inj1)


class SchreierStatus(Enum):
    SCHREIER = "schreier"
    EXISTENCE_FAILS = "existence_fails"
    UNIQUENESS_FAILS = "uniqueness_fails"


@dataclass(frozen=True)
class SchreierWitness:
    point: Point
    status: SchreierStatus
    q: tuple[int, ...] | None  # the retraction, defined only when Schreier
    element: int | None  # failing element, when not Schreier
    alphas: tuple[int, int] | None  # two distinct decompositions, when uniqueness fails

    @property
    def is_schreier(self) -> bool:
        return self.status is SchreierStatus.SCHREIER

    def describe(self) -> str:
        if self.is_schreier:
            return "Schreier"
        if self.status is SchreierStatus.EXISTENCE_FAILS:
            return f"ExistenceFails(a={self.element})"
        return f"UniquenessFails(a={self.element}, alphas={self.alphas})"


def check_schreier(p: Point) -> SchreierWitness:
    """Decide the Schreier condition by counting decompositions of every element.

    A uniqueness failure is reported in preference to an existence failure;
    within each failure kind, the least failing element (carrier order) is the
    witness.
    """
    add = p.A.add
    q: list[int] = []
    existence_at: int | None = None
    for a in p.A.elements:
        sb = p.section_image(a)
        sols = [alpha for alpha in p.kernel if add[alpha][sb] == a]
        if len(sols) > 1:
            return SchreierWitness(p, SchreierStatus.UNIQUENESS_FAILS, None, a, (sols[0], sols[1]))
        if not sols:
            if existence_at is None:
                existence_at = a
            q.append(-1)
        else:
            q.append(sols[0])
    if existence_at is not None:
        # No element had two decompositions; a later element may still, so the
        # scan above must finish before existence failures are reported.
        return SchreierWitness(p, SchreierStatus.EXISTENCE_FAILS, None, existence_at, None)
    return SchreierWitness(p, SchreierStatus.SCHREIER, tuple(q), None, None)


def schreier_retraction(p: Point) -> tuple[int, ...]:
    w = check_schreier(p)
    if not w.is_schreier:
        raise NotSchreier(w)
    return w.q


@dataclass(frozen=True)
class JseCheck:
    """Verdict of a joint-strong-epimorphy test and the generated subset."""

    ok: bool
    generated: Subset


def _generate(d: TabularAlgebra, seeds) -> JseCheck:
    gen = generated_subalgebra(d, seeds)
    return JseCheck(gen.is_all(), gen)


def is_strong_point(p: Point) -> JseCheck:
    """Kernel and section image jointly generate A (the varietal reading of
    'kernel inclusion and section jointly strongly epimorphic')."""
    return _generate(p.A, p.kernel.members + p.s.map)


def kernel_algebra(p: Point) -> tuple[TabularAlgebra, tuple[int, ...]]:
    """The kernel as an algebra of its own, plus the embedding into A."""
    return _subalgebra(p.A, p.kernel.members)  # Point proved the kernel closed


# ---------------------------------------------------------------------------
# limits of points


@dataclass(frozen=True)
class PulledBackPoint:
    point: Point  # over E
    pairs: tuple[tuple[int, int], ...]  # (a, e) carrier of the new total algebra
    to_A: Hom  # first projection, a morphism of total algebras


def pullback_point(h: Hom, p: Point) -> PulledBackPoint:
    """Change of base: pull p = (A, f, s) back along h: E -> B.

    The new point lives over E: carrier {(a, e) | f(a) = h(e)}, projection
    (a, e) |-> e, section e |-> (s(h(e)), e).  Its kernel is {(a, 0) | a in
    ker f}, in bijection with ker f.
    """
    if h.target != p.B:
        raise StructuralError("pullback_point: h must land in the base of p")
    pb = pullback(p.f, h)
    index = {pair: i for i, pair in enumerate(pb.pairs)}
    s_map = tuple(index[(p.s.map[h.map[e]], e)] for e in h.source.elements)
    new = Point(pb.algebra, h.source, pb.proj2, Hom(h.source, pb.algebra, s_map))
    return PulledBackPoint(new, pb.pairs, pb.proj1)


@dataclass(frozen=True)
class FibreProductPoint:
    point: Point  # over the common base
    pairs: tuple[tuple[int, int], ...]
    to_first: Hom
    to_second: Hom


def fibre_product_point(p1: Point, p2: Point) -> FibreProductPoint:
    """Binary product in the fibre over B: carrier {(a1, a2) | f1(a1) = f2(a2)},
    projection through f1, section <s1, s2>."""
    if p1.B != p2.B:
        raise StructuralError("fibre product needs points over the same base")
    pb = pullback(p1.f, p2.f)
    index = {pair: i for i, pair in enumerate(pb.pairs)}
    s_map = tuple(index[(p1.s.map[b], p2.s.map[b])] for b in p1.B.elements)
    f = compose(p1.f, pb.proj1)
    new = Point(pb.algebra, p1.B, f, Hom(p1.B, pb.algebra, s_map))
    return FibreProductPoint(new, pb.pairs, pb.proj1, pb.proj2)


# ---------------------------------------------------------------------------
# morphisms of points


@dataclass(frozen=True)
class PointMorphism:
    """A pair (g, h) with h . f1 = f2 . g and g . s1 = s2 . h."""

    source: Point
    target: Point
    g: Hom  # total algebras
    h: Hom  # bases

    def __post_init__(self):
        if self.g.source != self.source.A or self.g.target != self.target.A:
            raise StructuralError("g must map total algebras source -> target")
        if self.h.source != self.source.B or self.h.target != self.target.B:
            raise StructuralError("h must map bases source -> target")
        for hom, name in ((self.g, "g"), (self.h, "h")):
            chk = check_hom(hom)
            if not chk.ok:
                raise StructuralError(f"{name} is not a homomorphism: witness {chk.witness}")
        if compose(self.h, self.source.f).map != compose(self.target.f, self.g).map:
            raise StructuralError("projection square does not commute")
        if compose(self.g, self.source.s).map != compose(self.target.s, self.h).map:
            raise StructuralError("section square does not commute")

    @property
    def is_fibre(self) -> bool:
        return self.source.B == self.target.B and self.h.map == identity_hom(self.source.B).map


def fibre_maps(p1: Point, p2: Point, *,
               guard: int = DEFAULT_HOM_GUARD) -> tuple[tuple[int, ...], ...]:
    """The map arrays g of all morphisms p1 -> p2 over the identity of the
    common base, in lex order: the homs g: A1 -> A2 of hom_maps with
    f2 . g = f1 (projection square) and g . s1 = s2 (section square)."""
    if p1.B != p2.B:
        raise StructuralError("fibre morphisms need points over the same base")
    f1, f2, s1, s2 = p1.f.map, p2.f.map, p1.s.map, p2.s.map
    return tuple(g for g in hom_maps(p1.A, p2.A, guard=guard)
                 if tuple(g[b] for b in s1) == s2 and tuple(f2[v] for v in g) == f1)


def fibre_morphism(p1: Point, p2: Point, g: tuple[int, ...]) -> PointMorphism:
    """The morphism p1 -> p2 over the identity of the base with total map g."""
    return PointMorphism(p1, p2, Hom(p1.A, p2.A, g), identity_hom(p1.B))


def enumerate_fibre_morphisms(p1: Point, p2: Point, *,
                              guard: int = DEFAULT_HOM_GUARD) -> tuple[PointMorphism, ...]:
    """All morphisms over the identity of the common base, in lex order of g.
    The sweeps read fibre_maps instead; this object-level form serves tests
    and the benchmark's tracer."""
    return tuple(fibre_morphism(p1, p2, g) for g in fibre_maps(p1, p2, guard=guard))


def ssfl_facts(p1: Point, p2: Point, g: tuple[int, ...]) -> tuple[bool, bool]:
    """(kernel_bijective, bijective) for the total map g of a fibre morphism
    p1 -> p2: does g restrict to a bijection of kernels (it always lands in
    the kernel of p2), and is g bijective?  The split short five lemma is
    the implication, which can fail off the Schreier class; the caller
    decides whether the endpoints are Schreier."""
    return (sorted(g[x] for x in p1.kernel) == list(p2.kernel.members),
            sorted(g) == list(p2.A.elements))


def enumerate_split_epis(A: TabularAlgebra, B: TabularAlgebra, *,
                         guard: int = DEFAULT_HOM_GUARD) -> tuple[Point, ...]:
    """Every point (f, s) with f: A -> B, ordered by (f, s) map arrays."""
    sections = hom_maps(B, A, guard=guard)
    identity = tuple(range(B.size))
    return tuple(Point(A, B, Hom(A, B, f), Hom(B, A, s))
                 for f in hom_maps(A, B, guard=guard) for s in sections
                 if tuple(f[v] for v in s) == identity)


def points_isomorphic(p1: Point, p2: Point, *,
                      guard: int = DEFAULT_HOM_GUARD) -> PointMorphism | None:
    """Search for an isomorphism of points: bijective (g, h) making both
    squares commute.  Returns the first found in (h, g) lex order, else None."""
    if p1.A.size != p2.A.size or p1.B.size != p2.B.size:
        return None
    for h in enumerate_homs(p1.B, p2.B, guard=guard):
        if not h.is_bijective():
            continue
        for g in enumerate_homs(p1.A, p2.A, guard=guard):
            if not g.is_bijective():
                continue
            if (compose(h, p1.f).map == compose(p2.f, g).map
                    and compose(g, p1.s).map == compose(p2.s, h).map):
                return PointMorphism(p1, p2, g, h)
    return None
