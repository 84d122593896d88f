"""Built-in catalog of small algebras, points, and actions.

Every verification sweep quantifies over these entries, so names are stable:
renaming an entry invalidates stored reports.  All monoid entries use the
plain monoid kind even when commutative, so that homomorphism enumeration
never refuses a pair on signature grounds.

Catalog coherence instances are derived, not listed: every pair of fibre
morphisms between Schreier catalog points over a common base whose images
jointly generate the middle total algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import (MONOID_KINDS, MonoidAction, SemiringAction,
                      require_valid_action, semidirect, semidirect_srng)
from .algebra import (DEFAULT_HOM_GUARD, Hom, Kind, TabularAlgebra,
                      make_algebra, product, require_valid)
from .coherence import CoherenceInstance, jse_pairs
from .errors import StructuralError
from .points import (Point, check_schreier, fibre_morphism, identity_point,
                     product_point)


def _mon(add) -> TabularAlgebra:
    return require_valid(make_algebra(Kind.MONOID, add))


def _srng(add, mul) -> TabularAlgebra:
    return require_valid(make_algebra(Kind.SEMIRING, add, {"mul": mul}))


@dataclass(frozen=True)
class Catalog:
    monoids: dict[str, TabularAlgebra]
    semirings: dict[str, TabularAlgebra]
    points: dict[str, Point]
    monoid_actions: dict[str, MonoidAction]
    semiring_actions: dict[str, SemiringAction]

    def algebras(self, variety: str) -> dict[str, TabularAlgebra]:
        if variety == "mon":
            return self.monoids
        if variety == "srng":
            return self.semirings
        raise ValueError(f"unknown variety {variety!r}")

    def points_of(self, variety: str) -> dict[str, Point]:
        if variety not in ("mon", "srng"):
            raise ValueError(f"unknown variety {variety!r}")
        kinds = MONOID_KINDS if variety == "mon" else (Kind.SEMIRING,)
        return {name: p for name, p in self.points.items() if p.A.kind in kinds}

    def schreier_points(self, variety: str) -> list[tuple[str, Point]]:
        """The Schreier points of one variety, in name order."""
        return [(name, p) for name, p in sorted(self.points_of(variety).items())
                if check_schreier(p).is_schreier]

    def all_algebras(self) -> dict[str, TabularAlgebra]:
        return {**self.monoids, **self.semirings}


def build_catalog() -> Catalog:
    zero = _mon([[0]])
    b2 = _mon([[0, 1], [1, 1]])
    z2 = _mon([[0, 1], [1, 0]])
    n3 = _mon([[0, 1, 2], [1, 2, 2], [2, 2, 2]])
    monoids = {"zero": zero, "b2": b2, "z2": z2, "n3": n3}
    for name, (a, b) in {
        "b2xb2": (b2, b2), "b2xz2": (b2, z2), "b2xn3": (b2, n3),
        "z2xz2": (z2, z2), "z2xn3": (z2, n3), "n3xn3": (n3, n3),
    }.items():
        monoids[name] = require_valid(product(a, b).algebra)

    zero_rig = _srng([[0]], [[0]])
    bool_rig = _srng([[0, 1], [1, 1]], [[0, 0], [0, 1]])
    z2_ring = _srng([[0, 1], [1, 0]], [[0, 0], [0, 1]])
    semirings = {"zero_rig": zero_rig, "bool_rig": bool_rig, "z2_ring": z2_ring}
    for name, (a, b) in {
        "bool_x_bool": (bool_rig, bool_rig),
        "bool_x_z2r": (bool_rig, z2_ring),
        "z2r_x_z2r": (z2_ring, z2_ring),
    }.items():
        semirings[name] = require_valid(product(a, b).algebra)
    semirings["bool_cube"] = require_valid(
        product(bool_rig, semirings["bool_x_bool"]).algebra)
    semirings["z2r_cube"] = require_valid(
        product(z2_ring, semirings["z2r_x_z2r"]).algebra)

    def trivial(B: TabularAlgebra, X: TabularAlgebra) -> MonoidAction:
        return MonoidAction(B, X, tuple(tuple(X.elements) for _ in B.elements))

    def zero_endo(B: TabularAlgebra, X: TabularAlgebra) -> MonoidAction:
        # 0 acts as the identity, everything else as the zero endomorphism.
        rows = [tuple(X.elements)]
        rows += [(0,) * X.size for _ in range(B.size - 1)]
        return MonoidAction(B, X, tuple(rows))

    monoid_actions = {
        "triv_b2_b2": trivial(b2, b2),
        "triv_b2_z2": trivial(b2, z2),
        "zeroendo_b2_b2": zero_endo(b2, b2),
        "zeroendo_b2_z2": zero_endo(b2, z2),
        "annih_n3_b2": zero_endo(n3, b2),
    }

    def mul_action(r: TabularAlgebra) -> SemiringAction:
        t = r.op_table("mul")
        return SemiringAction(r, r, t, t)

    def zero_action(B: TabularAlgebra, X: TabularAlgebra) -> SemiringAction:
        return SemiringAction(B, X,
                              tuple((0,) * X.size for _ in B.elements),
                              tuple((0,) * B.size for _ in X.elements))

    z2r2 = semirings["z2r_x_z2r"]
    z2r_mul = z2_ring.op_table("mul")
    # The product base acts on z2_ring through its first coordinate.
    proj_mul = SemiringAction(
        z2r2, z2_ring,
        tuple(z2r_mul[b1] for b1 in z2_ring.elements for _ in z2_ring.elements),
        tuple(tuple(z2r_mul[x][b1] for b1 in z2_ring.elements
                    for _ in z2_ring.elements) for x in z2_ring.elements))
    semiring_actions = {
        "mul_bool_bool": mul_action(bool_rig),
        "mul_z2r_z2r": mul_action(z2_ring),
        "zero_bool_bool": zero_action(bool_rig, bool_rig),
        "zero_z2r_z2r": zero_action(z2_ring, z2_ring),
        "proj_mul_z2r2_z2r": proj_mul,
    }
    for a in (*monoid_actions.values(), *semiring_actions.values()):
        require_valid_action(a)

    def diag_point(alg_product: TabularAlgebra, base: TabularAlgebra) -> Point:
        pr = product(base, base)
        f = Hom(alg_product, base, pr.proj1.map)
        s = Hom(base, alg_product, tuple(b * base.size + b for b in base.elements))
        return Point(alg_product, base, f, s)

    points = {
        "id_b2": identity_point(b2),
        "id_n3": identity_point(n3),
        "prod_b2_b2": product_point(b2, b2),
        "prod_b2_z2": product_point(b2, z2),
        "prod_n3_b2": product_point(n3, b2),
        "diag_b2": diag_point(monoids["b2xb2"], b2),
        "sd_zeroendo_b2_z2": semidirect(monoid_actions["zeroendo_b2_z2"]),
        "id_z2ring": identity_point(z2_ring),
        "prod_bool_bool": product_point(bool_rig, bool_rig),
        "diag_bool": diag_point(semirings["bool_x_bool"], bool_rig),
        "sd_mul_bool": semidirect_srng(semiring_actions["mul_bool_bool"]),
        "sd_mul_z2r": semidirect_srng(semiring_actions["mul_z2r_z2r"]),
    }
    return Catalog(monoids, semirings, points, monoid_actions, semiring_actions)


def lookup(cat: Catalog, name: str):
    """Find a catalog entry of any type by its unique name."""
    hits = [(slot, d[name])
            for slot, d in (("monoid", cat.monoids), ("semiring", cat.semirings),
                            ("point", cat.points), ("monoid action", cat.monoid_actions),
                            ("semiring action", cat.semiring_actions))
            if name in d]
    if not hits:
        raise StructuralError(f"no catalog entry named {name!r}")
    if len(hits) > 1:
        slots = ", ".join(slot for slot, _ in hits)
        raise StructuralError(f"name {name!r} is ambiguous across: {slots}")
    return hits[0][1]


def export_catalog(cat: Catalog, out_dir) -> list:
    """Write every entry to out_dir as <name>.<slot>.json; returns the paths."""
    from pathlib import Path

    from .serialize import save, writing
    out = Path(out_dir)
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
    written = []
    for d, slot in ((cat.monoids, "algebra"), (cat.semirings, "algebra"),
                    (cat.points, "point"), (cat.monoid_actions, "action"),
                    (cat.semiring_actions, "action")):
        for name, obj in sorted(d.items()):
            written.append(save(obj, out / f"{name}.{slot}.json"))
    return written


def load_catalog_dir(path) -> Catalog:
    """Assemble a catalog from a directory of JSON files (named <name>.*.json).

    Accepts algebra, point, and action files; every entry is validated the
    same way the built-in catalog is.
    """
    from pathlib import Path

    from .algebra import validate_algebra
    from .serialize import load
    root = Path(path)
    if not root.is_dir():
        raise StructuralError(f"catalog directory {root} does not exist")
    monoids: dict[str, TabularAlgebra] = {}
    semirings: dict[str, TabularAlgebra] = {}
    points: dict[str, Point] = {}
    mon_actions: dict[str, MonoidAction] = {}
    srng_actions: dict[str, SemiringAction] = {}
    files = sorted(root.glob("*.json"))
    if not files:
        raise StructuralError(f"catalog directory {root} holds no .json files")
    named: dict[str, Path] = {}
    for file in files:
        name = file.name.split(".")[0]
        if named.setdefault(name, file) != file:
            raise StructuralError(f"{named[name]} and {file} both name the entry {name!r}")
        obj = load(file)
        if isinstance(obj, TabularAlgebra):
            if not validate_algebra(obj).ok:
                raise StructuralError(f"{file}: algebra violates its laws")
            slot = monoids if obj.kind in MONOID_KINDS else semirings
            if obj.kind not in MONOID_KINDS and obj.kind is not Kind.SEMIRING:
                raise StructuralError(f"{file}: catalogs hold monoids and semirings only")
            slot[name] = obj
        elif isinstance(obj, Point):
            points[name] = obj
        elif isinstance(obj, MonoidAction):
            require_valid_action(obj)
            mon_actions[name] = obj
        elif isinstance(obj, SemiringAction):
            require_valid_action(obj)
            srng_actions[name] = obj
        else:
            raise StructuralError(f"{file}: no catalog slot for this document type")
    return Catalog(monoids, semirings, points, mon_actions, srng_actions)


def coherence_instances(cat: Catalog, variety: str, *,
                        guard: int = DEFAULT_HOM_GUARD
                        ) -> tuple[tuple[str, CoherenceInstance], ...]:
    """All catalog coherence instances for one variety, deterministically named.

    An instance is a pair of fibre morphisms f: left -> middle, g: right ->
    middle between Schreier catalog points over one base, with f and g
    jointly strongly epimorphic.
    """
    schreier = dict(cat.schreier_points(variety))
    out = []
    for mid_name, mid in schreier.items():
        names = [name for name, p in schreier.items() if p.B == mid.B]
        sources = [schreier[name] for name in names]
        for l, i, r, j, f, g in jse_pairs(mid, sources, guard=guard):
            name = f"{names[l]}[{i}]->{mid_name}<-{names[r]}[{j}]"
            out.append((name, CoherenceInstance(fibre_morphism(sources[l], mid, f),
                                                fibre_morphism(sources[r], mid, g))))
    return tuple(out)
