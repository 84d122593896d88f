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

For semirings the positive answer rests on an explicit decomposition of
kernel elements of the middle point into sums of products of kernel images:
decompose_product_element and decompose_kernel_word build that expression
tree and check every rewrite step by evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (DEFAULT_HOM_GUARD, Hom, Kind, Subset, TabularAlgebra,
                      closure_mask, generated_subalgebra, identity_hom,
                      mask_of)
from .errors import ComputationError, StructuralError
from .points import (Point, PointMorphism, check_schreier,
                     enumerate_split_epis, fibre_maps, kernel_algebra,
                     pullback_point, schreier_retraction)


@dataclass(frozen=True)
class JseCheck:
    """Verdict of a joint-strong-epimorphy test and the generated subset."""

    ok: bool
    generated: Subset


def _generate(d: TabularAlgebra, seeds) -> JseCheck:
    gen = generated_subalgebra(d, seeds)
    return JseCheck(gen.is_all(), gen)


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
    the same base B.  H, K, L name the kernels of p', p, p''.
    """

    f: PointMorphism
    g: PointMorphism

    def __post_init__(self):
        if not (self.f.is_fibre and self.g.is_fibre):
            raise StructuralError("coherence instances are built from fibre morphisms")
        if self.f.target != self.g.target:
            raise StructuralError("f and g must share the middle point")
        for p in (self.f.source, self.f.target, self.g.source):
            schreier_retraction(p)

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


def check_coherence_along(h: Hom, inst: CoherenceInstance) -> JseCheck:
    """Pull the instance back along h: E -> B and re-test joint strong epimorphy.

    Rejects instances whose pair is not jointly strongly epimorphic to begin
    with: preservation is only meaningful for pairs that have the property.
    """
    if h.target != inst.base:
        raise StructuralError("check_coherence_along: h must land in the base")
    if not jointly_strongly_epi(inst.f.g, inst.g.g).ok:
        raise StructuralError("the pair is not jointly strongly epimorphic over the base")
    pulled_left = pullback_point(h, inst.left)
    pulled_middle = pullback_point(h, inst.middle)
    pulled_right = pullback_point(h, inst.right)
    middle_index = {pair: i for i, pair in enumerate(pulled_middle.pairs)}

    def transport(pulled_src, total_map) -> Hom:
        rows = tuple(middle_index[(total_map[a], e)] for (a, e) in pulled_src.pairs)
        return Hom(pulled_src.point.A, pulled_middle.point.A, rows)

    f_e = transport(pulled_left, inst.f.g.map)
    g_e = transport(pulled_right, inst.g.g.map)
    # Squares of the pulled-back morphisms; construction failure is a bug.
    PointMorphism(pulled_left.point, pulled_middle.point, f_e, identity_hom(h.source))
    PointMorphism(pulled_right.point, pulled_middle.point, g_e, identity_hom(h.source))
    return jointly_strongly_epi(f_e, g_e)


# ---------------------------------------------------------------------------
# the semiring decomposition identities

# Expression trees: ("f", x) and ("g", y) are leaves (x in H, y in L);
# ("mul", t, ...) and ("add", t, ...) are nodes; ("szero",) is the vanished
# all-section term, kept in the tree so the certificate stays visible.


def evaluate_tree(inst: CoherenceInstance, tree) -> int:
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


def _leaf_membership(inst: CoherenceInstance, tree):
    tag = tree[0]
    if tag == "f":
        if tree[1] not in inst.H:
            raise ComputationError(f"leaf f({tree[1]}) escapes the kernel H")
        return
    if tag == "g":
        if tree[1] not in inst.L:
            raise ComputationError(f"leaf g({tree[1]}) escapes the kernel L")
        return
    if tag == "szero":
        return
    for t in tree[1:]:
        _leaf_membership(inst, t)


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


def _certify(inst: CoherenceInstance, value: int, tree, vanishing) -> Decomposition:
    if inst.middle.f.map[value] != 0:
        raise ComputationError("decomposed element escapes the kernel K")
    _leaf_membership(inst, tree)
    got = evaluate_tree(inst, tree)
    if got != value:
        raise ComputationError(f"decomposition evaluates to {got}, expected {value}")
    prod = vanishing[0]
    for b in vanishing[1:]:
        prod = inst.base.mul(prod, b)
    if prod != 0:
        raise ComputationError(f"vanishing certificate fails: product of {vanishing} "
                               f"is {prod} != 0 in B")
    return Decomposition(inst, value, tree, tuple(vanishing))


def decompose_product_element(inst: CoherenceInstance, a: int, c: int,
                              order: str = "fg") -> Decomposition:
    """Decompose f(a)g(c) (order "fg") or g(c)f(a) (order "gf") over f(H), g(L).

    Requires p(f(a) g(c)) = 0.  Writing a = h + s'(b1) and c = l + s''(b2),
    the product expands to f(h)g(l) + f(h s'(b2)) + g(s''(b1) l), the fourth
    summand s(b1 b2) vanishing because b1 b2 = p(f(a)g(c)) = 0.  This is
    decompose_kernel_word on the two-letter word, which checks membership of
    the corrected leaves in the kernels, the identity, and the vanishing by
    evaluation.
    """
    _require_semiring(inst)
    if order not in ("fg", "gf"):
        raise StructuralError(f"unknown order {order!r}")
    f, g = ("f", a), ("g", c)
    return decompose_kernel_word(inst, (f, g) if order == "fg" else (g, f))


def decompose_kernel_word(inst: CoherenceInstance, word) -> Decomposition:
    """Decompose a product of letters f(a_i), g(c_i) lying in the kernel K.

    Each letter splits through its Schreier decomposition into a kernel image
    plus a section value; distributing the product gives 2^n terms.  Section
    factors are absorbed into neighbouring kernel leaves (f(h)s(b) = f(h s'(b))
    and symmetrically), adjacent section factors multiply, and the all-section
    term is s of the product of the base values, which the hypothesis forces
    to 0.  Every absorption step is checked by evaluating the term before and
    after.
    """
    _require_semiring(inst)
    word = tuple(word)
    if not word:
        raise StructuralError("cannot decompose the empty word")
    D = inst.middle.A
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

    # the retractions are needed only for a word the hypothesis admits
    q = {"f": schreier_retraction(inst.left), "g": schreier_retraction(inst.right)}
    letters = [(v, (tag, q[tag][x]), sides[tag][0].f.map[x])
               for v, (tag, x) in zip(values, word)]

    for value, leaf, b in letters:  # each split checked: letter = leaf + s(b)
        if dadd[evaluate_tree(inst, leaf)][smap[b]] != value:
            raise ComputationError(f"Schreier split fails for letter of value {value}")

    def term_value(factors) -> int:
        acc = None
        for kind, payload in factors:
            v = smap[payload] if kind == "s" else evaluate_tree(inst, payload)
            acc = v if acc is None else dmul[acc][v]
        return acc

    def merge(x, y):
        # The factor replacing adjacent factors x y, or None for two leaves.
        (k1, p1), (k2, p2) = x, y
        if k1 == "s" and k2 == "s":
            return ("s", inst.base.mul(p1, p2))
        if k2 == "s":  # f(h) s(b) = f(h s'(b)), and likewise for g
            src = sides[p1[0]][0]
            return ("leaf", (p1[0], src.A.mul(p1[1], src.s.map[p2])))
        if k1 == "s":
            src = sides[p2[0]][0]
            return ("leaf", (p2[0], src.A.mul(src.s.map[p1], p2[1])))
        return None

    def absorb(factors):
        # One left fold: out is always [s] or a run of kernel leaves, and each
        # merge is checked on the value of the whole term.
        out = []
        for i, cur in enumerate(factors):
            repl = merge(out[-1], cur) if out else None
            if repl is None:
                out.append(cur)
                continue
            rest = factors[i + 1:]
            if term_value(out + [cur] + rest) != term_value(out[:-1] + [repl] + rest):
                raise ComputationError("absorption step changed the term value")
            out[-1] = repl
        return out

    n = len(letters)
    summands = []
    for mask in range(1 << n):
        factors = [("s", b) if mask & (1 << i) else ("leaf", leaf)
                   for i, (_, leaf, b) in enumerate(letters)]
        reduced = absorb(factors)
        if mask == (1 << n) - 1:
            # s of the product of the base values, which the hypothesis forces to 0
            if reduced != [("s", 0)]:
                raise ComputationError("all-section term does not vanish")
            summands.append(("szero",))
            continue
        leaves = [payload for _, payload in reduced]
        summands.append(leaves[0] if len(leaves) == 1 else ("mul", *leaves))
    tree = ("add", *summands)
    return _certify(inst, k, tree, tuple(b for _, _, b in letters))


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
