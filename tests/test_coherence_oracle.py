"""Differential tests: the product decomposition (now the mixed two-letter
word), the word decomposition (now one left fold over the retractions the
instance holds, then without the per-merge re-evaluations and the certificate
checks that were equal by construction, and then one pass that tests each
leaf and folds its value as it is built instead of walking the tree twice),
coherence along change of base (now on pullbacks its caller builds once per
(h, point), without re-proving the pulled-back squares) and the catalog
coherence instances (now one jse_pairs sweep) against the routines they
replaced, kept here verbatim as oracles."""

import copy
import functools
import itertools

import pytest

from schreierkit import (CoherenceInstance, ComputationError, Hom,
                         PointMorphism, StructuralError, build_catalog,
                         check_coherence_along, check_schreier,
                         coherence_instances, decompose_kernel_word,
                         enumerate_fibre_morphisms, enumerate_homs,
                         identity_hom, jointly_strongly_epi, pullback_point,
                         schreier_retraction, subset)
from schreierkit.algebra import DEFAULT_HOM_GUARD
from schreierkit.catalog import Catalog
from schreierkit.coherence import (Decomposition, JseCheck, _require_semiring,
                                   evaluate_tree)
from schreierkit.suites import COHERENCE_ALONG_MAX, _sized

CAT = build_catalog()


# ---------------------------------------------------------------------------
# the oracles


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


def _oracle_certify(inst: CoherenceInstance, value: int, tree, vanishing) -> Decomposition:
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


def _oracle_parent_decompose_kernel_word(inst: CoherenceInstance, word) -> Decomposition:
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

    q = dict(zip("fg", inst.retractions))
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
    return _oracle_certify(inst, k, tree, tuple(b for _, _, b in letters))


def _oracle_two_walk_decompose_kernel_word(inst: CoherenceInstance, word) -> Decomposition:
    """Decompose a product of letters f(a_i), g(c_i) lying in the kernel K.

    Each letter splits through its Schreier decomposition into a kernel image
    plus a section value; distributing the product gives 2^n terms.  Section
    factors are absorbed into neighbouring kernel leaves (f(h)s(b) = f(h s'(b))
    and symmetrically), adjacent section factors multiply, and the all-section
    term is s of the product of the base values, which the hypothesis forces
    to 0.  Checked: each letter split, that vanishing, leaf membership in H
    and L, and the value of the final tree.  Each absorption holds by
    construction, so none is re-evaluated: f(h)s(b) = f(h)f(s'(b)) =
    f(h s'(b)) as f is a hom and f s' = s (PointMorphism checks that square),
    and s(b1)s(b2) = s(b1 b2) as s is a hom.
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

    q = dict(zip("fg", inst.retractions))
    letters = [(v, (tag, q[tag][x]), sides[tag][0].f.map[x])
               for v, (tag, x) in zip(values, word)]

    for value, leaf, b in letters:  # each split checked: letter = leaf + s(b)
        if dadd[evaluate_tree(inst, leaf)][smap[b]] != value:
            raise ComputationError(f"Schreier split fails for letter of value {value}")

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
        # One left fold: out is always [s] or a run of kernel leaves.
        out = []
        for cur in factors:
            repl = merge(out[-1], cur) if out else None
            if repl is None:
                out.append(cur)
            else:
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
    _leaf_membership(inst, tree)
    got = evaluate_tree(inst, tree)
    if got != k:
        raise ComputationError(f"decomposition evaluates to {got}, expected {k}")
    return Decomposition(inst, k, tree, tuple(b for _, _, b in letters))


def _oracle_decompose_product_element(inst: CoherenceInstance, a: int, c: int,
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
    return _oracle_certify(inst, k, tree, vanishing)


def _oracle_decompose_kernel_word(inst: CoherenceInstance, word) -> Decomposition:
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
    return _oracle_certify(inst, k, tree, tuple(b for _, _, b in letters))


def _oracle_check_coherence_along(h: Hom, inst: CoherenceInstance) -> JseCheck:
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


def _oracle_coherence_instances(cat: Catalog, variety: str, *,
                                guard: int = DEFAULT_HOM_GUARD
                                ) -> tuple[tuple[str, CoherenceInstance], ...]:
    """All catalog coherence instances for one variety, deterministically named.

    An instance is a pair of fibre morphisms f: left -> middle, g: right ->
    middle between Schreier catalog points over one base, with f and g
    jointly strongly epimorphic.
    """
    points = cat.points_of(variety)
    schreier = {name: p for name, p in sorted(points.items())
                if check_schreier(p).is_schreier}
    out = []
    for mid_name, mid in schreier.items():
        for left_name, left in schreier.items():
            if left.B != mid.B:
                continue
            fs = enumerate_fibre_morphisms(left, mid, guard=guard)
            for right_name, right in schreier.items():
                if right.B != mid.B:
                    continue
                gs = enumerate_fibre_morphisms(right, mid, guard=guard)
                for i, f in enumerate(fs):
                    for j, g in enumerate(gs):
                        if not jointly_strongly_epi(f.g, g.g).ok:
                            continue
                        name = f"{left_name}[{i}]->{mid_name}<-{right_name}[{j}]"
                        out.append((name, CoherenceInstance(f, g)))
    return tuple(out)


# ---------------------------------------------------------------------------
# the comparisons


def _identity_instance(point_name):
    mid = CAT.points[point_name]
    m = PointMorphism(mid, mid, identity_hom(mid.A), identity_hom(mid.B))
    return CoherenceInstance(m, m)


INSTANCES = [inst for _, inst in coherence_instances(CAT, "srng")] \
    + [_identity_instance("sd_mul_bool")]


def _outcome(fn, *args):
    """The Decomposition, or the class of the error the call raised."""
    try:
        return fn(*args)
    except (StructuralError, ComputationError) as exc:
        return type(exc)


def _swap_middle_summands(d: Decomposition) -> Decomposition:
    add, fh_gl, first, second, szero = d.tree
    return Decomposition(d.instance, d.value, (add, fh_gl, second, first, szero),
                         d.vanishing)


def test_product_decomposition_is_the_oracle_with_middle_summands_swapped():
    decomposed = refused = 0
    for inst in INSTANCES:
        for a in inst.left.A.elements:
            for c in inst.right.A.elements:
                for order in ("fg", "gf"):
                    word = (("f", a), ("g", c)) if order == "fg" else (("g", c), ("f", a))
                    got = _outcome(decompose_kernel_word, inst, word)
                    want = _outcome(_oracle_decompose_product_element, inst, a, c, order)
                    if isinstance(want, Decomposition):
                        assert _swap_middle_summands(got) == want, (a, c, order)
                        decomposed += 1
                    else:
                        assert got is want is StructuralError, (a, c, order)
                        refused += 1
    # verify coherence counts 390 and 130 on the catalog; sd_mul_bool adds 24 and 8
    assert (decomposed, refused) == (414, 138)


def test_word_decomposition_matches_the_oracle_on_every_short_word():
    decomposed = refused = 0
    for inst in INSTANCES:
        alphabet = ([("f", a) for a in inst.left.A.elements]
                    + [("g", c) for c in inst.right.A.elements])
        for n in range(1, 4):
            for word in itertools.product(alphabet, repeat=n):
                got = _outcome(decompose_kernel_word, inst, word)
                want = _outcome(_oracle_decompose_kernel_word, inst, word)
                assert got == want, word
                if isinstance(want, Decomposition):
                    decomposed += 1
                else:
                    assert want is StructuralError, word
                    refused += 1
    # verify coherence counts 7946 and 1346 on the catalog; sd_mul_bool adds 500 and 84
    assert (decomposed, refused) == (8446, 1430)


def test_word_decomposition_matches_the_parent_on_the_sweep_words():
    # every word of the verify coherence sweep: the same value, tree and
    # vanishing certificate, or the same error with the same message
    decomposed = refused = 0
    for _, inst in coherence_instances(CAT, "srng"):
        alphabet = ([("f", a) for a in inst.left.A.elements]
                    + [("g", c) for c in inst.right.A.elements])
        for n in range(1, 4):
            for word in itertools.product(alphabet, repeat=n):
                try:
                    want = _oracle_parent_decompose_kernel_word(inst, word)
                except (StructuralError, ComputationError) as exc:
                    with pytest.raises(type(exc)) as got:
                        decompose_kernel_word(inst, word)
                    assert str(got.value) == str(exc), word
                    refused += 1
                    continue
                got = decompose_kernel_word(inst, word)
                assert (got.value, got.tree, got.vanishing) == (
                    want.value, want.tree, want.vanishing), word
                decomposed += 1
    assert (decomposed, refused) == (7946, 1346)


@pytest.mark.parametrize("variety", ["mon", "srng"])
def test_catalog_instances_match_the_oracle(variety):
    got = coherence_instances(CAT, variety)
    want = _oracle_coherence_instances(CAT, variety)
    assert len(got) == len(want)
    assert ({name: (i.f.g.map, i.g.g.map) for name, i in got}
            == {name: (i.f.g.map, i.g.g.map) for name, i in want})


@pytest.mark.parametrize("variety, pairs", [("mon", 1024), ("srng", 190)])
def test_coherence_along_shared_pullbacks_match_the_oracle(variety, pairs):
    # the sweep of verify coherence: every (instance, h), each pullback built once
    pulled_back = functools.cache(pullback_point)
    checked = 0
    for _, inst in coherence_instances(CAT, variety):
        for _, E in _sized(CAT.algebras(variety), COHERENCE_ALONG_MAX):
            for h in enumerate_homs(E, inst.base):
                legs = (pulled_back(h, p) for p in (inst.left, inst.middle, inst.right))
                got = check_coherence_along(h, inst, *legs)
                want = _oracle_check_coherence_along(h, inst)
                assert (got.ok, got.generated) == (want.ok, want.generated), h.map
                checked += 1
    assert checked == pairs


def _with_shifted_sections(inst: CoherenceInstance) -> CoherenceInstance:
    """inst with the sections s' and s'' of its left and right points moved
    one element on, so that the folded value can miss the word's, and with H
    cut down to {0}, so that leaves escape it (a semiring kernel is an ideal,
    so no section can push a leaf out of it)."""
    wrong = copy.copy(inst)
    for side in ("f", "g"):
        m = copy.copy(getattr(inst, side))
        src = copy.copy(m.source)
        shifted = tuple((v + 1) % src.A.size for v in src.s.map)
        object.__setattr__(src, "s", Hom(src.B, src.A, shifted))
        if side == "f":
            object.__setattr__(src, "kernel", subset(src.A, (0,)))
        object.__setattr__(m, "source", src)
        object.__setattr__(wrong, side, m)
    return wrong


def _error_or_certificate(fn, inst, word):
    try:
        d = fn(inst, word)
    except (StructuralError, ComputationError) as exc:
        return type(exc), str(exc)
    return d.value, d.tree, d.vanishing


def test_one_pass_raises_the_two_walk_error_first_on_shifted_sections():
    # the one pass tests membership in tree order and the value last, as the
    # two walks did: the same first error, with the same message, on every
    # sweep word of instances whose absorbed leaves go wrong
    messages = set()
    for _, inst in coherence_instances(CAT, "srng"):
        wrong = _with_shifted_sections(inst)
        alphabet = ([("f", a) for a in inst.left.A.elements]
                    + [("g", c) for c in inst.right.A.elements])
        for n in range(1, 4):
            for word in itertools.product(alphabet, repeat=n):
                got = _error_or_certificate(decompose_kernel_word, wrong, word)
                want = _error_or_certificate(_oracle_two_walk_decompose_kernel_word,
                                             wrong, word)
                assert got == want, word
                if want[0] is ComputationError:
                    messages.add(want[1].split(" ")[0])
    assert messages == {"leaf", "decomposition"}
