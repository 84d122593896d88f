"""Finite pointed algebras as Cayley tables, their homomorphisms, and finite limits.

Every algebra lives on the carrier {0, ..., size-1} with element 0 as the
distinguished zero.  The binary operation `add` must satisfy 0+x = x+0 = x
(the one law every kind shares); further laws depend on the kind.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import GuardExceeded, SignatureMismatch, StructuralError

DEFAULT_HOM_GUARD = 10_000_000

Table = tuple[tuple[int, ...], ...]

# Law names, usable in JTGeneric declared-law lists.
LAW_UNIT = "unit"
LAW_ASSOC = "assoc"
LAW_COMM = "comm"
LAW_LDIST = "ldist"
LAW_RDIST = "rdist"
LAW_ABSORB = "absorb"
KNOWN_LAWS = (LAW_ASSOC, LAW_COMM, LAW_LDIST, LAW_RDIST, LAW_ABSORB)


class Kind(str, Enum):
    MONOID = "monoid"
    COMMUTATIVE_MONOID = "cmon"
    SEMIRING = "semiring"
    JT_GENERIC = "jt"


def _as_table(t, rows: int, cols: int, size: int, what: str) -> Table:
    """t as a tuple table of shape rows x cols with integer entries in range(size)."""
    if len(t) != rows:
        raise StructuralError(f"{what}: expected {rows} rows, got {len(t)}")
    out = []
    for i, row in enumerate(t):
        if len(row) != cols:
            raise StructuralError(f"{what}: row {i} has {len(row)} entries, expected {cols}")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < size):
                raise StructuralError(f"{what}: entry {v!r} in row {i} out of range 0..{size - 1}")
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class TabularAlgebra:
    """A finite algebra given by tables: zero element 0, binary `add`, named extra ops.

    kind=MONOID/COMMUTATIVE_MONOID carry no extra ops; kind=SEMIRING carries
    exactly one extra op named "mul"; kind=JT_GENERIC carries any extra ops
    plus a list of laws declared per op (checked by validate_algebra, never
    assumed).  Values are immutable and hashable.
    """

    kind: Kind
    size: int
    add: Table
    extra_ops: tuple[tuple[str, Table], ...] = ()
    declared_laws: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self):
        if self.size < 1:
            raise StructuralError("algebra needs at least the zero element")
        n = self.size
        object.__setattr__(self, "add", _as_table(self.add, n, n, n, "add"))
        ops = []
        seen = set()
        for name, table in self.extra_ops:
            if name == "add" or name in seen:
                raise StructuralError(f"duplicate or reserved op name {name!r}")
            seen.add(name)
            ops.append((name, _as_table(table, n, n, n, name)))
        object.__setattr__(self, "extra_ops", tuple(ops))
        names = tuple(name for name, _ in self.extra_ops)
        if self.kind in (Kind.MONOID, Kind.COMMUTATIVE_MONOID) and names:
            raise StructuralError(f"{self.kind.value} admits no extra ops, got {names}")
        if self.kind is Kind.SEMIRING and names != ("mul",):
            raise StructuralError(f"semiring needs exactly one extra op 'mul', got {names}")
        if self.kind is not Kind.JT_GENERIC and self.declared_laws:
            raise StructuralError("declared_laws are only meaningful for jt algebras")
        for op, laws in self.declared_laws:
            if op != "add" and op not in seen:
                raise StructuralError(f"declared law on unknown op {op!r}")
            for law in laws:
                if law not in KNOWN_LAWS:
                    raise StructuralError(f"unknown law {law!r}")

    @property
    def elements(self) -> range:
        return range(self.size)

    @property
    def op_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.extra_ops)

    def op_table(self, name: str) -> Table:
        if name == "add":
            return self.add
        for n, table in self.extra_ops:
            if n == name:
                return table
        raise StructuralError(f"no op named {name!r}")

    def all_tables(self) -> tuple[tuple[str, Table], ...]:
        return (("add", self.add),) + self.extra_ops

    def plus(self, x: int, y: int) -> int:
        return self.add[x][y]

    def mul(self, x: int, y: int) -> int:
        return self.op_table("mul")[x][y]

    def signature(self) -> tuple:
        return (self.kind, self.op_names)


def make_algebra(kind: Kind, add, ops=None, laws=None) -> TabularAlgebra:
    """Build an algebra from plain lists; `ops` maps name -> table."""
    extra = tuple((name, tuple(tuple(r) for r in t)) for name, t in (ops or {}).items())
    declared = tuple((op, tuple(ls)) for op, ls in (laws or {}).items())
    return TabularAlgebra(kind=kind, size=len(add), add=tuple(tuple(r) for r in add),
                          extra_ops=extra, declared_laws=declared)


def same_signature(a: TabularAlgebra, b: TabularAlgebra) -> bool:
    return a.signature() == b.signature()


def _require_same_signature(a: TabularAlgebra, b: TabularAlgebra, what: str):
    if not same_signature(a, b):
        raise SignatureMismatch(f"{what}: {a.signature()} vs {b.signature()}")


# ---------------------------------------------------------------------------
# law checking


@dataclass(frozen=True)
class LawEntry:
    op: str
    law: str
    ok: bool
    witness: tuple | None


@dataclass(frozen=True)
class LawReport:
    algebra: TabularAlgebra
    entries: tuple[LawEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def first_violation(self) -> LawEntry | None:
        for e in self.entries:
            if not e.ok:
                return e
        return None


def _unit_witness(t: Table) -> tuple | None:
    for x in range(len(t)):
        if t[0][x] != x or t[x][0] != x:
            return (x,)
    return None


def _assoc_witness(t: Table) -> tuple | None:
    n = range(len(t))
    for x in n:
        for y in n:
            xy = t[x][y]
            for z in n:
                if t[xy][z] != t[x][t[y][z]]:
                    return (x, y, z)
    return None


def _comm_witness(t: Table) -> tuple | None:
    n = len(t)
    for x in range(n):
        for y in range(x + 1, n):
            if t[x][y] != t[y][x]:
                return (x, y)
    return None


def _ldist_witness(mul: Table, add: Table) -> tuple | None:
    n = range(len(mul))
    for x in n:
        for y in n:
            for z in n:
                if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
                    return (x, y, z)
    return None


def _rdist_witness(mul: Table, add: Table) -> tuple | None:
    n = range(len(mul))
    for x in n:
        for y in n:
            for z in n:
                if mul[add[x][y]][z] != add[mul[x][z]][mul[y][z]]:
                    return (x, y, z)
    return None


def _absorb_witness(mul: Table) -> tuple | None:
    for x in range(len(mul)):
        if mul[0][x] != 0 or mul[x][0] != 0:
            return (x,)
    return None


_LAW_CHECKS = {
    LAW_ASSOC: lambda table, add: _assoc_witness(table),
    LAW_COMM: lambda table, add: _comm_witness(table),
    LAW_LDIST: lambda table, add: _ldist_witness(table, add),
    LAW_RDIST: lambda table, add: _rdist_witness(table, add),
    LAW_ABSORB: lambda table, add: _absorb_witness(table),
}


def validate_algebra(a: TabularAlgebra) -> LawReport:
    """Check every law the algebra's kind enforces; violations carry a witness.

    The unit law on add is enforced for every kind.  Structural problems
    (malformed tables) never reach this point: construction rejects them.
    """
    entries = [LawEntry("add", LAW_UNIT, _unit_witness(a.add) is None, _unit_witness(a.add))]

    def check(op: str, law: str):
        w = _LAW_CHECKS[law](a.op_table(op), a.add)
        entries.append(LawEntry(op, law, w is None, w))

    if a.kind in (Kind.MONOID, Kind.COMMUTATIVE_MONOID, Kind.SEMIRING):
        check("add", LAW_ASSOC)
    if a.kind in (Kind.COMMUTATIVE_MONOID, Kind.SEMIRING):
        check("add", LAW_COMM)
    if a.kind is Kind.SEMIRING:
        check("mul", LAW_ASSOC)
        check("mul", LAW_LDIST)
        check("mul", LAW_RDIST)
        check("mul", LAW_ABSORB)
    if a.kind is Kind.JT_GENERIC:
        for op, laws in a.declared_laws:
            for law in laws:
                check(op, law)
    return LawReport(algebra=a, entries=tuple(entries))


def require_valid(a: TabularAlgebra) -> TabularAlgebra:
    report = validate_algebra(a)
    if not report.ok:
        raise StructuralError(f"algebra violates {report.first_violation()}")
    return a


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class Hom:
    """A map between algebras of the same signature; may or may not preserve ops.

    check_hom decides whether it actually is a homomorphism.  map[0] == 0 and
    preservation are reported there, not enforced here, so that violating maps
    can be examined.
    """

    source: TabularAlgebra
    target: TabularAlgebra
    map: tuple[int, ...]

    def __post_init__(self):
        _require_same_signature(self.source, self.target, "hom endpoints")
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.source.size:
            raise StructuralError(f"map has {len(self.map)} entries for source of size {self.source.size}")
        for v in self.map:
            if not (0 <= v < self.target.size):
                raise StructuralError(f"map value {v} out of range for target of size {self.target.size}")

    def __call__(self, x: int) -> int:
        return self.map[x]

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.map)))

    def is_injective(self) -> bool:
        return len(set(self.map)) == len(self.map)

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.size

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


def identity_hom(a: TabularAlgebra) -> Hom:
    return Hom(a, a, tuple(range(a.size)))


def compose(outer: Hom, inner: Hom) -> Hom:
    if inner.target != outer.source:
        raise StructuralError("compose: inner.target differs from outer.source")
    return Hom(inner.source, outer.target, tuple(outer.map[v] for v in inner.map))


@dataclass(frozen=True)
class HomCheck:
    ok: bool
    witness: tuple | None  # (x, y, op) for a preservation failure, (0, None, "zero") for map[0] != 0


def check_hom(h: Hom) -> HomCheck:
    """Decide homomorphism-ness; on failure return the first violation found.

    Scan order: the zero condition, then each op table in declaration order,
    pairs in lexicographic order.
    """
    if h.map[0] != 0:
        return HomCheck(False, (0, None, "zero"))
    for name, table in h.source.all_tables():
        t_target = h.target.op_table(name)
        for x in h.source.elements:
            for y in h.source.elements:
                if h.map[table[x][y]] != t_target[h.map[x]][h.map[y]]:
                    return HomCheck(False, (x, y, name))
    return HomCheck(True, None)


def is_hom(h: Hom) -> bool:
    return check_hom(h).ok


# ---------------------------------------------------------------------------
# generation and enumeration


def mask_of(elements) -> int:
    """The int with bit x set for each x in elements."""
    return sum(1 << x for x in set(elements))


def closure_mask(a: TabularAlgebra, mask: int) -> int:
    """The subalgebra generated by 0 and the elements whose bits are set in
    mask, as a mask.  Per round: ops in all_tables() order, x over the last
    round's new elements, y over those known when the round began, x op y
    then y op x; pairs of older elements were combined in an earlier round."""
    mask |= 1
    frontier = members = [x for x in a.elements if mask >> x & 1]
    tables = a.all_tables()
    while frontier:
        fresh = []
        for _, t in tables:
            for x in frontier:
                row = t[x]
                for y in members:
                    z = row[y]
                    if not mask >> z & 1:
                        mask |= 1 << z
                        fresh.append(z)
                    z = t[y][x]
                    if not mask >> z & 1:
                        mask |= 1 << z
                        fresh.append(z)
        members = members + fresh
        frontier = fresh
    return mask


@lru_cache(maxsize=None)
def generating_set(a: TabularAlgebra) -> tuple[int, ...]:
    """Greedy generating set: repeatedly adjoin the least element not yet generated."""
    gens: list[int] = []
    closed = closure_mask(a, 0)
    for x in a.elements:
        if not closed >> x & 1:
            gens.append(x)
            closed = closure_mask(a, closed | 1 << x)
    return tuple(gens)


def first_escape(a: TabularAlgebra, members) -> tuple[str, int, int] | None:
    """The first (op_name, x, y) with x op y outside members, or None if closed;
    ops in all_tables() order, x and y in the order of the members sequence."""
    inside = set(members)
    for name, t in a.all_tables():
        for x in members:
            row = t[x]
            for y in members:
                if row[y] not in inside:
                    return name, x, y
    return None


@dataclass(frozen=True)
class Subset:
    """A sorted subset of an algebra's carrier."""

    algebra: TabularAlgebra
    members: tuple[int, ...]

    def __post_init__(self):
        ms = tuple(self.members)
        if list(ms) != sorted(set(ms)):
            raise StructuralError("subset members must be sorted and distinct")
        for v in ms:
            if not (0 <= v < self.algebra.size):
                raise StructuralError(f"subset member {v} out of range")
        object.__setattr__(self, "members", ms)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def is_all(self) -> bool:
        return len(self.members) == self.algebra.size


def subset(a: TabularAlgebra, members) -> Subset:
    return Subset(a, tuple(sorted(set(members))))


def generated_subalgebra(a: TabularAlgebra, gens) -> Subset:
    """Least subset containing gens and 0, closed under add and all extra ops."""
    closed = closure_mask(a, mask_of(gens))
    return Subset(a, tuple(x for x in a.elements if closed >> x & 1))


def _extend_from_generators(a: TabularAlgebra, b: TabularAlgebra,
                            gens: tuple[int, ...], images: tuple[int, ...]):
    # Propagate images from the generators through the tables; a conflict or a
    # failed full preservation check rejects the assignment.
    m: list[int | None] = [None] * a.size
    m[0] = 0
    for g, img in zip(gens, images):
        if m[g] is not None and m[g] != img:
            return None
        m[g] = img
    tables = a.all_tables()
    changed = True
    while changed:
        changed = False
        known = [x for x in a.elements if m[x] is not None]
        for name, t in tables:
            tt = b.op_table(name)
            for x in known:
                for y in known:
                    z = t[x][y]
                    w = tt[m[x]][m[y]]
                    if m[z] is None:
                        m[z] = w
                        changed = True
                    elif m[z] != w:
                        return None
    if any(v is None for v in m):
        return None
    full = tuple(m)
    # Propagation only follows derivation paths; confirm every pair.
    for name, t in tables:
        tt = b.op_table(name)
        for x in a.elements:
            for y in a.elements:
                if full[t[x][y]] != tt[full[x]][full[y]]:
                    return None
    return full


@lru_cache(maxsize=None)
def _homs_core(a: TabularAlgebra, b: TabularAlgebra) -> tuple[tuple[int, ...], ...]:
    gens = generating_set(a)
    found = []
    for images in itertools.product(range(b.size), repeat=len(gens)):
        m = _extend_from_generators(a, b, gens, images)
        if m is not None:
            found.append(m)
    found.sort()
    return tuple(found)


def hom_candidate_count(a: TabularAlgebra, b: TabularAlgebra) -> int:
    return b.size ** len(generating_set(a))


def hom_maps(a: TabularAlgebra, b: TabularAlgebra, *,
             guard: int = DEFAULT_HOM_GUARD) -> tuple[tuple[int, ...], ...]:
    """The map arrays of all homomorphisms a -> b, lexicographic.

    Backtracks over generator images, so the guarded quantity is
    |b| ** |generating set of a|; when the bound exceeds the guard the call
    refuses and names the required bound.
    """
    _require_same_signature(a, b, "enumerate_homs")
    required = hom_candidate_count(a, b)
    if required > guard:
        raise GuardExceeded("enumerate_homs", required, guard, "--guard-homs")
    return _homs_core(a, b)


def enumerate_homs(a: TabularAlgebra, b: TabularAlgebra, *,
                   guard: int = DEFAULT_HOM_GUARD) -> tuple[Hom, ...]:
    """All homomorphisms a -> b as Hom objects, in hom_maps order."""
    return tuple(Hom(a, b, m) for m in hom_maps(a, b, guard=guard))


def find_isomorphism(a: TabularAlgebra, b: TabularAlgebra, *,
                     guard: int = DEFAULT_HOM_GUARD) -> Hom | None:
    """First bijective hom a -> b, or None.  No canonical forms: plain search."""
    if a.size != b.size or not same_signature(a, b):
        return None
    for h in enumerate_homs(a, b, guard=guard):
        if h.is_bijective():
            return h
    return None


def algebras_isomorphic(a: TabularAlgebra, b: TabularAlgebra) -> bool:
    return find_isomorphism(a, b) is not None


# ---------------------------------------------------------------------------
# finite limits


def _derived(a: TabularAlgebra, size: int, table_for_op) -> TabularAlgebra:
    """a's kind, ops and jt laws on `size` elements; each op's table is
    table_for_op(name, a's table of that op)."""
    extra = tuple((name, table_for_op(name, t)) for name, t in a.extra_ops)
    return TabularAlgebra(kind=a.kind, size=size, add=table_for_op("add", a.add), extra_ops=extra,
                          declared_laws=a.declared_laws if a.kind is Kind.JT_GENERIC else ())


def pair_index(x: int, y: int, second_size: int) -> int:
    return x * second_size + y


@dataclass(frozen=True)
class Product:
    algebra: TabularAlgebra
    proj1: Hom
    proj2: Hom
    inj1: Hom  # x |-> (x, 0); a section of proj1
    inj2: Hom  # y |-> (0, y); a section of proj2


def product(a: TabularAlgebra, b: TabularAlgebra) -> Product:
    """Componentwise product on pairs (x, y), indexed x*|b| + y so (0,0) is 0."""
    _require_same_signature(a, b, "product")
    n = a.size * b.size

    def build(ta: Table, tb: Table) -> Table:
        rows = []
        for x1 in a.elements:
            for y1 in b.elements:
                row = [pair_index(ta[x1][x2], tb[y1][y2], b.size)
                       for x2 in a.elements for y2 in b.elements]
                rows.append(tuple(row))
        return tuple(rows)

    alg = _derived(a, n, lambda name, ta: build(ta, b.op_table(name)))
    proj1 = Hom(alg, a, tuple(x for x in a.elements for _ in b.elements))
    proj2 = Hom(alg, b, tuple(y for _ in a.elements for y in b.elements))
    inj1 = Hom(a, alg, tuple(pair_index(x, 0, b.size) for x in a.elements))
    inj2 = Hom(b, alg, tuple(pair_index(0, y, b.size) for y in b.elements))
    return Product(alg, proj1, proj2, inj1, inj2)


@dataclass(frozen=True)
class Pullback:
    algebra: TabularAlgebra
    pairs: tuple[tuple[int, int], ...]  # carrier, position i is pairs[i]
    proj1: Hom
    proj2: Hom


def pullback(f: Hom, g: Hom) -> Pullback:
    """Sub-product {(x, y) | f(x) = g(y)} with the two projections.

    Pairs are sorted lexicographically, so (0, 0) sits at index 0.
    """
    if f.target != g.target:
        raise StructuralError("pullback needs a common codomain")
    a, c = f.source, g.source
    _require_same_signature(a, c, "pullback legs")
    pairs = tuple((x, y) for x in a.elements for y in c.elements if f.map[x] == g.map[y])
    index = {p: i for i, p in enumerate(pairs)}

    def build(ta: Table, tc: Table) -> Table:
        rows = []
        for (x1, y1) in pairs:
            row = []
            for (x2, y2) in pairs:
                z = (ta[x1][x2], tc[y1][y2])
                if z not in index:  # cannot happen for genuine homs
                    raise StructuralError("pullback carrier not closed; legs are not homs")
                row.append(index[z])
            rows.append(tuple(row))
        return tuple(rows)

    alg = _derived(a, len(pairs), lambda name, ta: build(ta, c.op_table(name)))
    proj1 = Hom(alg, a, tuple(x for (x, _) in pairs))
    proj2 = Hom(alg, c, tuple(y for (_, y) in pairs))
    return Pullback(alg, pairs, proj1, proj2)


def pullback_satisfies_universal(pb: Pullback, f: Hom, g: Hom, probe: TabularAlgebra, *,
                                 guard: int = DEFAULT_HOM_GUARD) -> bool:
    """Spot-check the universal property against every cone from `probe`."""
    cones = [(u, v)
             for u in enumerate_homs(probe, f.source, guard=guard)
             for v in enumerate_homs(probe, g.source, guard=guard)
             if compose(f, u).map == compose(g, v).map]
    mediators_pool = enumerate_homs(probe, pb.algebra, guard=guard)
    for u, v in cones:
        mediators = [w for w in mediators_pool
                     if compose(pb.proj1, w).map == u.map and compose(pb.proj2, w).map == v.map]
        if len(mediators) != 1:
            return False
    return True


def _subalgebra(a: TabularAlgebra, embed: tuple[int, ...]) -> tuple[TabularAlgebra, tuple[int, ...]]:
    """The algebra on embed, a sorted subset of a's carrier that the caller has
    proved closed under every op."""
    if not embed or embed[0] != 0:
        raise StructuralError("subalgebra must contain 0")
    pos = {v: i for i, v in enumerate(embed)}
    alg = _derived(a, len(embed), lambda _, t: tuple(
        tuple(pos[t[x][y]] for y in embed) for x in embed))
    return alg, embed
