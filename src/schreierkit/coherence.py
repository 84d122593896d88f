"""Preservation of jointly strongly epimorphic pairs under change of base.

In a variety a cospan (f: A -> D, g: C -> D) is jointly strongly epimorphic
iff the images of f and g generate D; for fibre morphisms of points the fibre
notion agrees with the underlying one because the section image s(B) = f(s'(B))
already sits inside the image of f.  A CoherenceInstance packages two fibre
morphisms of Schreier points into a common middle point; the checks below pull
such an instance back along a base change (or apply the kernel functor) and
ask whether joint strong epimorphy survives.  Every verdict comes from
algebra.closure_mask on the seed elements, and no record of how an element
was generated is kept.  jse_pairs sweeps the fibre morphisms into a middle
point as map arrays (points.fibre_maps); a PointMorphism is built only for a
CoherenceInstance the caller keeps.

check_coherence_along takes the three pullbacks along h from its caller, so
a sweep whose instances share points builds each pullback once per (h, point);
it transports f and g as plain rows, since the pulled-back squares hold by
construction.

For semirings the positive answer rests on an explicit decomposition of
kernel elements of the middle point into sums of products of kernel images:
decompose_kernel_word builds that expression tree in one pass, testing each
leaf's kernel membership as it is made and folding its value into the sum
that certifies the tree; its rewrite steps hold by construction (f(h)s(b) =
f(h s'(b)) as f is a hom with f s' = s, and s(b1)s(b2) = s(b1 b2) as s is a
hom), so they are not re-evaluated one by one.  evaluate_tree reads a
returned tree independently.  The product identity for f(a)g(c) and
g(c)f(a) is the case of the mixed two-letter word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .algebra import (DEFAULT_HOM_GUARD, Hom, Kind, Subset, TabularAlgebra,
                      closure_mask, mask_of)
from .errors import ComputationError, StructuralError
from .points import (JseCheck, Point, PointMorphism, PulledBackPoint, _generate,
                     check_schreier, enumerate_split_epis, fibre_maps,
                     kernel_algebra, schreier_retraction)


def jointly_strongly_epi(f: Hom, g: Hom) -> JseCheck:
    """Do the images of f and g generate their common codomain?"""
    if f.target != g.target:
        raise StructuralError("jointly_strongly_epi needs a common codomain")
    return _generate(f.target, f.map + g.map)


def jse_pairs(middle: Point, points, *, guard: int = DEFAULT_HOM_GUARD):
    """Every jointly strongly epimorphic pair of fibre morphisms into middle.

    points are candidate sources over the base of middle.  Yields (l, i, r, j,
    f, g) where f is the map array of the i-th fibre morphism points[l] ->
    middle and g that of the j-th points[r] -> middle, looping over l, i, r,
    j; each list of fibre maps is enumerated once, and each verdict once per
    union of images.
    """
    flat = [(l, i, f, mask_of(f)) for l, p in enumerate(points)
            for i, f in enumerate(fibre_maps(p, middle, guard=guard))]
    full = (1 << middle.A.size) - 1
    epi: dict[int, bool] = {}  # union of the two image masks -> verdict
    for l, i, f, fm in flat:
        for r, j, g, gm in flat:
            m = fm | gm
            if m not in epi:
                epi[m] = closure_mask(middle.A, m) == full
            if epi[m]:
                yield l, i, r, j, f, g


@dataclass(frozen=True)
class CoherenceInstance:
    """Two fibre morphisms of Schreier points into a common middle point.

    f: (A, p', s') -> (D, p, s) and g: (C, p'', s'') -> (D, p, s), all over
    the same base B.  H, K, L name the kernels of p', p, p''.  retractions
    holds the Schreier retractions q' and q'' of the left and right points.
    """

    f: PointMorphism
    g: PointMorphism
    retractions: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (self.f.is_fibre and self.g.is_fibre):
            raise StructuralError("coherence instances are built from fibre morphisms")
        if self.f.target != self.g.target:
            raise StructuralError("f and g must share the middle point")
        q_left, _, q_right = (schreier_retraction(p)
                              for p in (self.left, self.middle, self.right))
        object.__setattr__(self, "retractions", (q_left, q_right))

    @cached_property
    def jse(self) -> JseCheck:  # is (f, g) jointly strongly epi: decided once, on first use
        return jointly_strongly_epi(self.f.g, self.g.g)

    @property
    def left(self) -> Point:
        return self.f.source

    @property
    def middle(self) -> Point:
        return self.f.target

    @property
    def right(self) -> Point:
        return self.g.source

    @property
    def base(self) -> TabularAlgebra:
        return self.middle.B

    @property
    def H(self) -> Subset:
        return self.left.kernel

    @property
    def K(self) -> Subset:
        return self.middle.kernel

    @property
    def L(self) -> Subset:
        return self.right.kernel


def jse_in_fibre(inst: CoherenceInstance) -> JseCheck:
    """The fibre-category notion: images of f, g and the section generate D.

    Since f s' = s, the seed s(B) is redundant; this variant exists so tests
    can confirm the fibre and underlying notions agree by computing both.
    """
    return _generate(inst.middle.A, inst.f.g.map + inst.g.g.map + inst.middle.s.map)


def check_kernel_coherence(inst: CoherenceInstance) -> JseCheck:
    """Does the kernel functor preserve the pair: is K generated by f(H) and g(L)?"""
    k_alg, k_embed = kernel_algebra(inst.middle)
    pos = {v: i for i, v in enumerate(k_embed)}
    fmap, gmap = inst.f.g.map, inst.g.g.map
    return _generate(k_alg, [pos[fmap[x]] for x in inst.H] + [pos[gmap[y]] for y in inst.L])


def check_coherence_along(h: Hom, inst: CoherenceInstance,
                          pulled_left: PulledBackPoint,
                          pulled_middle: PulledBackPoint,
                          pulled_right: PulledBackPoint) -> JseCheck:
    """Pull the instance back along h: E -> B and re-test joint strong epimorphy.

    pulled_left, pulled_middle and pulled_right are pullback_point(h, p) for
    the left, middle and right points of inst.  Rejects instances whose pair
    is not jointly strongly epimorphic to begin with: preservation is only
    meaningful for pairs that have the property.

    The pulled-back maps f_e(a, e) = (f(a), e) and g_e are transported as
    rows, and no PointMorphism is built from them, because nothing it would
    check can fail: f_e is a hom because f is one; its projection square
    holds by definition; and its section square is f(s'(h(e))) = s(h(e)),
    which the instance's own PointMorphism f already checked (likewise g).
    """
    if h.target != inst.base:
        raise StructuralError("check_coherence_along: h must land in the base")
    if not inst.jse.ok:
        raise StructuralError("the pair is not jointly strongly epimorphic over the base")
    middle_index = {pair: i for i, pair in enumerate(pulled_middle.pairs)}

    def transport(pulled_src, total_map) -> list[int]:
        return [middle_index[(total_map[a], e)] for (a, e) in pulled_src.pairs]

    return _generate(pulled_middle.point.A, transport(pulled_left, inst.f.g.map)
                     + transport(pulled_right, inst.g.g.map))


# ---------------------------------------------------------------------------
# the semiring decomposition identities

# Expression trees: ("f", x) and ("g", y) are leaves (x in H, y in L);
# ("mul", t, ...) and ("add", t, ...) are nodes; ("szero",) is the vanished
# all-section term, kept in the tree so the certificate stays visible.


def evaluate_tree(inst: CoherenceInstance, tree) -> int:
    """The value of an expression tree in the middle algebra D."""
    d = inst.middle.A
    tag = tree[0]
    if tag == "f":
        return inst.f.g.map[tree[1]]
    if tag == "g":
        return inst.g.g.map[tree[1]]
    if tag == "szero":
        return 0
    vals = [evaluate_tree(inst, t) for t in tree[1:]]
    table = d.op_table("mul") if tag == "mul" else d.add
    acc = vals[0]
    for v in vals[1:]:
        acc = table[acc][v]
    return acc


@dataclass(frozen=True)
class Decomposition:
    """A middle-kernel element written over f(H) and g(L), fully certified."""

    instance: CoherenceInstance
    value: int  # the decomposed element of K
    tree: tuple
    vanishing: tuple[int, ...]  # base values whose product is 0 in B


def _require_semiring(inst: CoherenceInstance):
    if inst.middle.A.kind is not Kind.SEMIRING:
        raise StructuralError("decomposition identities are semiring-specific")


def decompose_kernel_word(inst: CoherenceInstance, word) -> Decomposition:
    """Decompose a product of letters f(a_i), g(c_i) lying in the kernel K.

    Each letter splits through its Schreier decomposition into a kernel image
    plus a section value; distributing the product gives 2^n terms.  Section
    factors are absorbed into neighbouring kernel leaves (f(h)s(b) = f(h s'(b))
    and symmetrically), adjacent section factors multiply, and the all-section
    term is s of the product of the base values, which the hypothesis forces
    to 0.  One pass checks, in this order: each letter in range, the
    hypothesis, each letter split, that vanishing (from the base values),
    then the other 2^n - 1 summands as they are built: each leaf's membership
    in H or L, in tree order, with its value folded into the running sum,
    which must come to the word's value.  Each absorption holds by
    construction, so none is re-evaluated: f(h)s(b) = f(h)f(s'(b)) =
    f(h s'(b)) as f is a hom and f s' = s (PointMorphism checks that square),
    and s(b1)s(b2) = s(b1 b2) as s is a hom.
    """
    _require_semiring(inst)
    word = tuple(word)
    if not word:
        raise StructuralError("cannot decompose the empty word")
    D, B = inst.middle.A, inst.base
    dmul, dadd = D.op_table("mul"), D.add
    smap = inst.middle.s.map
    # per letter tag: its source point and its map into D
    sides = {"f": (inst.left, inst.f.g.map), "g": (inst.right, inst.g.g.map)}
    for tag, x in word:
        if tag not in ("f", "g"):
            raise StructuralError(f"unknown letter tag {tag!r}")
        if not (0 <= x < sides[tag][0].A.size):
            raise StructuralError(f"letter {tag}({x}) out of range")
    values = [sides[tag][1][x] for tag, x in word]
    k = values[0]
    for v in values[1:]:
        k = dmul[k][v]
    if inst.middle.f.map[k] != 0:
        raise StructuralError("hypothesis fails: the word does not land in the kernel")

    q = dict(zip("fg", inst.retractions))
    letters = [(v, (tag, q[tag][x]), sides[tag][0].f.map[x])
               for v, (tag, x) in zip(values, word)]

    for value, (tag, h), b in letters:  # each split checked: letter = leaf + s(b)
        if dadd[sides[tag][1][h]][smap[b]] != value:
            raise ComputationError(f"Schreier split fails for letter of value {value}")

    vanishing = tuple(b for _, _, b in letters)
    prod = vanishing[0]
    for b in vanishing[1:]:
        prod = B.mul(prod, b)
    if prod != 0:  # the all-section term is s(prod)
        raise ComputationError("all-section term does not vanish")

    kernels = {"f": ("H", inst.H), "g": ("L", inst.L)}
    n = len(letters)
    summands, total = [], None
    for mask in range((1 << n) - 1):  # every summand but the all-section one
        # One left fold: section factors before the first leaf multiply into
        # pending, the first leaf absorbs them, and later leaves absorb the
        # section factors that follow them.
        leaves, pending = [], None
        for i, (_, (tag, h), b) in enumerate(letters):
            if not mask >> i & 1:
                if pending is not None:  # s(b) f(h) = f(s'(b) h), and likewise for g
                    src = sides[tag][0]
                    h, pending = src.A.mul(src.s.map[pending], h), None
                leaves.append((tag, h))
            elif leaves:  # f(h) s(b) = f(h s'(b)), and likewise for g
                t, y = leaves[-1]
                src = sides[t][0]
                leaves[-1] = (t, src.A.mul(y, src.s.map[b]))
            else:
                pending = b if pending is None else B.mul(pending, b)
        term = None
        for tag, h in leaves:
            name, kernel = kernels[tag]
            if h not in kernel:
                raise ComputationError(f"leaf {tag}({h}) escapes the kernel {name}")
            v = sides[tag][1][h]
            term = v if term is None else dmul[term][v]
        total = term if total is None else dadd[total][term]
        summands.append(leaves[0] if len(leaves) == 1 else ("mul", *leaves))
    if total != k:
        raise ComputationError(f"decomposition evaluates to {total}, expected {k}")
    return Decomposition(inst, k, ("add", *summands, ("szero",)), vanishing)


# ---------------------------------------------------------------------------
# ring bases force the Schreier condition


def is_additive_group(b: TabularAlgebra) -> bool:
    """Does every element have a two-sided additive inverse?"""
    return all(any(b.add[x][y] == 0 and b.add[y][x] == 0 for y in b.elements)
               for x in b.elements)


@dataclass(frozen=True)
class RingBaseReport:
    base: TabularAlgebra
    checked: int
    entries: tuple[tuple[str, int], ...]  # (source label, points checked)
    violations: tuple  # SchreierWitness items

    @property
    def ok(self) -> bool:
        return not self.violations


def check_ring_base_schreier(B: TabularAlgebra, sources, *,
                             guard: int = DEFAULT_HOM_GUARD) -> RingBaseReport:
    """Over a base whose addition is a group, every split epi is Schreier.

    Enumerates all split epimorphisms onto B from each (label, algebra) source
    and checks each.  Rejects bases without additive
    inverses: the statement is specific to rings.
    """
    if B.kind is not Kind.SEMIRING:
        raise StructuralError("check_ring_base_schreier expects a semiring base")
    if not is_additive_group(B):
        raise StructuralError("base is not additively a group; the Schreier "
                              "guarantee only holds over rings")
    entries = []
    violations = []
    checked = 0
    for label, A in sources:
        count = 0
        for p in enumerate_split_epis(A, B, guard=guard):
            w = check_schreier(p)
            count += 1
            checked += 1
            if not w.is_schreier:
                violations.append(w)
        entries.append((label, count))
    return RingBaseReport(B, checked, tuple(entries), tuple(violations))
