"""Preservation of jointly strongly epimorphic pairs under change of base.

In a variety a cospan (f: A -> D, g: C -> D) is jointly strongly epimorphic
iff the images of f and g generate D; for fibre morphisms of points the fibre
notion agrees with the underlying one because the section image s(B) = f(s'(B))
already sits inside the image of f.  A CoherenceInstance packages two fibre
morphisms of Schreier points into a common middle point; the checks below pull
such an instance back along a base change (or apply the kernel functor) and
ask whether joint strong epimorphy survives.  Each check generates with the
one closure routine, algebra.derivation, whose record is the JseCheck trace.

For semirings the positive answer rests on an explicit decomposition of
kernel elements of the middle point into sums of products of kernel images:
decompose_product_element and decompose_kernel_word build that expression
tree and check every rewrite step by evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (DEFAULT_HOM_GUARD, Hom, Kind, Subset, TabularAlgebra,
                      derivation, identity_hom, subset)
from .errors import ComputationError, StructuralError
from .points import (Point, PointMorphism, check_schreier, enumerate_split_epis,
                     kernel_algebra, pullback_point, schreier_retraction)

Trace = tuple[tuple[int, tuple], ...]


@dataclass(frozen=True)
class JseCheck:
    """Verdict of a joint-strong-epimorphy test plus a generation trace.

    trace[i] = (element, how); how is ("zero",), a labelled seed like
    ("f", x), or (op_name, y, z) with y, z previously derived elements.
    """

    ok: bool
    generated: Subset
    trace: Trace


def _generate_with_trace(d: TabularAlgebra, seeds) -> JseCheck:
    how = derivation(d, seeds)
    gen = subset(d, how)
    trace = tuple((e, how[e]) for e in gen)
    return JseCheck(gen.is_all(), gen, trace)


def jointly_strongly_epi(f: Hom, g: Hom) -> JseCheck:
    """Do the images of f and g generate their common codomain?"""
    if f.target != g.target:
        raise StructuralError("jointly_strongly_epi needs a common codomain")
    seeds = ([(f.map[a], ("f", a)) for a in f.source.elements]
             + [(g.map[c], ("g", c)) for c in g.source.elements])
    return _generate_with_trace(f.target, seeds)


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
    f, g = inst.f.g, inst.g.g
    s = inst.middle.s
    seeds = ([(f.map[a], ("f", a)) for a in f.source.elements]
             + [(g.map[c], ("g", c)) for c in g.source.elements]
             + [(s.map[b], ("s", b)) for b in inst.base.elements])
    return _generate_with_trace(inst.middle.A, seeds)


def check_kernel_coherence(inst: CoherenceInstance) -> JseCheck:
    """Does the kernel functor preserve the pair: is K generated by f(H) and g(L)?"""
    k_alg, k_embed = kernel_algebra(inst.middle)
    pos = {v: i for i, v in enumerate(k_embed)}
    fmap, gmap = inst.f.g.map, inst.g.g.map
    seeds = ([(pos[fmap[x]], ("f", x)) for x in inst.H]
             + [(pos[gmap[y]], ("g", y)) for y in inst.L])
    return _generate_with_trace(k_alg, seeds)


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
    summand s(b1 b2) vanishing because b1 b2 = p(f(a)g(c)) = 0.  Membership of
    the corrected leaves in the kernels, the identity, and the vanishing are
    all checked by evaluation.
    """
    _require_semiring(inst)
    if order not in ("fg", "gf"):
        raise StructuralError(f"unknown order {order!r}")
    A, C, D = inst.left.A, inst.right.A, inst.middle.A
    fa, gc = inst.f.g.map[a], inst.g.g.map[c]
    k = D.mul(fa, gc) if order == "fg" else D.mul(gc, fa)
    if inst.middle.f.map[k] != 0:
        raise StructuralError(f"hypothesis fails: the product maps to "
                              f"{inst.middle.f.map[k]} != 0 in the base")
    q_left = schreier_retraction(inst.left)
    q_right = schreier_retraction(inst.right)
    h, l = q_left[a], q_right[c]
    b1, b2 = inst.left.f.map[a], inst.right.f.map[c]
    s_left, s_right = inst.left.s.map, inst.right.s.map
    if order == "fg":
        tree = ("add",
                ("mul", ("f", h), ("g", l)),
                ("f", A.mul(h, s_left[b2])),
                ("g", C.mul(s_right[b1], l)),
                ("szero",))
        vanishing = (b1, b2)
    else:
        tree = ("add",
                ("mul", ("g", l), ("f", h)),
                ("g", C.mul(l, s_right[b1])),
                ("f", A.mul(s_left[b2], h)),
                ("szero",))
        vanishing = (b2, b1)
    return _certify(inst, k, tree, vanishing)


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
    fmap, gmap = inst.f.g.map, inst.g.g.map
    smap = inst.middle.s.map
    q_left = schreier_retraction(inst.left)
    q_right = schreier_retraction(inst.right)
    s_left, s_right = inst.left.s.map, inst.right.s.map

    letters = []
    for tag, x in word:
        if tag == "f":
            if not (0 <= x < inst.left.A.size):
                raise StructuralError(f"letter f({x}) out of range")
            letters.append((fmap[x], ("f", q_left[x]), inst.left.f.map[x]))
        elif tag == "g":
            if not (0 <= x < inst.right.A.size):
                raise StructuralError(f"letter g({x}) out of range")
            letters.append((gmap[x], ("g", q_right[x]), inst.right.f.map[x]))
        else:
            raise StructuralError(f"unknown letter tag {tag!r}")

    k = letters[0][0]
    for v, _, _ in letters[1:]:
        k = dmul[k][v]
    if inst.middle.f.map[k] != 0:
        raise StructuralError("hypothesis fails: the word does not land in the kernel")

    for value, leaf, b in letters:  # each split checked: letter = leaf + s(b)
        if dadd[evaluate_tree(inst, leaf)][smap[b]] != value:
            raise ComputationError(f"Schreier split fails for letter of value {value}")

    def term_value(factors) -> int:
        acc = None
        for kind, payload in factors:
            v = smap[payload] if kind == "s" else evaluate_tree(inst, payload)
            acc = v if acc is None else dmul[acc][v]
        return acc

    def absorb(factors):
        # Eliminate section factors, preserving the evaluated value at each step.
        factors = list(factors)
        while True:
            merged = False
            for i in range(len(factors) - 1):
                (k1, p1), (k2, p2) = factors[i], factors[i + 1]
                if k1 == "s" and k2 == "s":
                    repl = ("s", inst.base.mul(p1, p2))
                elif k1 != "s" and p1[0] in ("f", "g") and k2 == "s":
                    if p1[0] == "f":
                        repl = ("leaf", ("f", inst.left.A.mul(p1[1], s_left[p2])))
                    else:
                        repl = ("leaf", ("g", inst.right.A.mul(p1[1], s_right[p2])))
                elif k1 == "s" and k2 != "s" and p2[0] in ("f", "g"):
                    if p2[0] == "f":
                        repl = ("leaf", ("f", inst.left.A.mul(s_left[p1], p2[1])))
                    else:
                        repl = ("leaf", ("g", inst.right.A.mul(s_right[p1], p2[1])))
                else:
                    continue
                before = term_value(factors)
                candidate = factors[:i] + [repl] + factors[i + 2:]
                after = term_value(candidate)
                if before != after:
                    raise ComputationError("absorption step changed the term value")
                factors = candidate
                merged = True
                break
            if not merged:
                return factors

    n = len(letters)
    summands = []
    vanishing_product = None
    for mask in range(1 << n):
        factors = []
        for i, (_, leaf, b) in enumerate(letters):
            if mask & (1 << i):
                factors.append(("s", b))
            else:
                factors.append(("leaf", leaf))
        if mask == (1 << n) - 1:
            only_s = absorb(factors)
            if len(only_s) != 1 or only_s[0][0] != "s":
                raise ComputationError("all-section term failed to collapse")
            vanishing_product = only_s[0][1]
            if vanishing_product != 0:
                raise ComputationError("all-section term does not vanish")
            summands.append(("szero",))
            continue
        reduced = absorb(factors)
        if any(kind == "s" for kind, _ in reduced):
            raise ComputationError("a mixed term kept a section factor")
        leaves = [payload for _, payload in reduced]
        summands.append(leaves[0] if len(leaves) == 1 else ("mul", *leaves))
    tree = ("add", *summands)
    # Certificate: the product of the letters' base values is p of the word,
    # forced to 0 by the hypothesis; absorb() already collapsed it stepwise.
    if vanishing_product is None:
        raise ComputationError("all-section term never materialized")
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
                             guard: int = DEFAULT_HOM_GUARD,
                             max_size: int = 8) -> RingBaseReport:
    """Over a base whose addition is a group, every split epi is Schreier.

    Enumerates all split epimorphisms onto B from each source algebra of size
    at most max_size and checks each.  Rejects bases without additive
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
        if A.size > max_size:
            continue
        count = 0
        for p in enumerate_split_epis(A, B, guard=guard):
            w = check_schreier(p)
            count += 1
            checked += 1
            if not w.is_schreier:
                violations.append(w)
        entries.append((label, count))
    return RingBaseReport(B, checked, tuple(entries), tuple(violations))
