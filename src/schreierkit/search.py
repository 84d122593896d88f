"""Counterexample search over small algebras.

Three goals: points that fail the Schreier condition, coherence instances
whose kernel images fail to generate the kernel, and fibre morphisms with
bijective kernel restriction but non-bijective total map (the split short
five lemma read off the Schreier class, where it can fail).

Universes: varieties "mon" and "srng" sweep the built-in catalog up to
max_size; variety "jt" enumerates generic tables, first with add alone, then
add plus one zero-absorbing binary op (absorption keeps kernels closed, and
is the only law imposed, so non-associative ops are searched too).  Every
goal sweeps the split-epi points between universe algebras (_split_epis).

Every witness is serialized, re-loaded, and re-checked before it is
reported; a mismatch means a harness bug and raises.  Witnesses come out
canonically sorted, so a completed search is reproducible regardless of the
exploration order chosen by `seed`.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass

from .algebra import (Kind, TabularAlgebra, closure_mask, make_algebra,
                      mask_of, same_signature)
from .catalog import build_catalog
from .coherence import CoherenceInstance, check_kernel_coherence, jse_pairs
from .errors import ComputationError, StructuralError
from .points import (check_schreier, enumerate_split_epis, fibre_maps,
                     fibre_morphism, ssfl_facts)
from .serialize import (SCHEMA_VERSION, Document, _field, dumps_canonical,
                        point_from_dict, point_morphism_from_dict,
                        point_morphism_to_dict, point_to_dict)

GOALS = ("NonSchreier", "KernelCoherenceFailure", "SSFLFailureOffClass")

# Generic tables with a second op are enumerated only up to this size; the
# pair count grows as n^((n-1)^2) twice over.
JT_MUL_SIZE_CAP = 2


@dataclass(frozen=True)
class SearchBounds:
    max_size: int = 4
    timeout_s: float = 10.0
    max_witnesses: int = 100
    variety: str = "mon"
    seed: int | None = None

    def __post_init__(self):
        if self.variety not in ("mon", "srng", "jt"):
            raise StructuralError(f"unknown search variety {self.variety!r}")
        # not (t > 0) also refuses NaN, which would disable the deadline
        if self.max_size < 1 or self.max_witnesses < 1 or not self.timeout_s > 0:
            raise StructuralError("search bounds must be positive")


@dataclass(frozen=True)
class SearchResult:
    goal: str
    bounds: SearchBounds
    witnesses: tuple[Document, ...]
    completed: bool
    timed_out: bool
    examined: int
    elapsed_s: float


class _TimeUp(Exception):
    pass


class _Clock:
    def __init__(self, timeout_s: float):
        self.start = time.monotonic()
        self.deadline = self.start + timeout_s

    def tick(self) -> None:
        if time.monotonic() > self.deadline:
            raise _TimeUp

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def _jt_tables(n: int, unit: bool):
    """Every n x n table whose row and column 0 hold x (0 + x = x + 0 = x)
    when unit, else 0 (zero-absorbing); the other cells run lexicographically."""
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    for fill in itertools.product(range(n), repeat=len(cells)):
        rows = [[0] * n for _ in range(n)]
        if unit:
            for j in range(n):
                rows[0][j] = j
                rows[j][0] = j
        for (i, j), v in zip(cells, fill):
            rows[i][j] = v
        yield rows


def _jt_universe(max_size: int, clock: _Clock) -> list[TabularAlgebra]:
    """The jt universe up to max_size; the clock ticks once per addition
    table, so the search deadline bounds its generation too."""
    out = []
    for n in range(1, max_size + 1):
        for add in _jt_tables(n, unit=True):
            clock.tick()
            out.append(make_algebra(Kind.JT_GENERIC, add))
    for n in range(1, min(max_size, JT_MUL_SIZE_CAP) + 1):
        for add in _jt_tables(n, unit=True):
            clock.tick()
            for mul in _jt_tables(n, unit=False):
                out.append(make_algebra(Kind.JT_GENERIC, add,
                                        {"mul": mul}, {"mul": ["absorb"]}))
    return out


def _universe(bounds: SearchBounds, clock: _Clock) -> list[TabularAlgebra]:
    if bounds.variety == "jt":
        algebras = _jt_universe(bounds.max_size, clock)
    else:
        cat = build_catalog()
        pool = cat.algebras(bounds.variety)
        algebras = [a for _, a in sorted(pool.items()) if a.size <= bounds.max_size]
    if bounds.seed is not None:
        random.Random(bounds.seed).shuffle(algebras)
    return algebras


def _witness(goal: str, checker: str, payload: Document, verdict: str) -> Document:
    return {"type": "witness", "schema": SCHEMA_VERSION, "goal": goal,
            "checker": checker, "payload": payload, "verdict": verdict}


def _kernel_coherence_verdict(inst: CoherenceInstance) -> str:
    chk = check_kernel_coherence(inst)
    return f"kernel_jse={chk.ok}, generated={list(chk.generated.members)}"


def _ssfl_verdict(kernel_bijective: bool, bijective: bool) -> str:
    return f"kernel_bijective={kernel_bijective}, bijective={bijective}"


def replay_witness(doc: Document) -> str:
    """Re-run the witness's checker on its embedded payload, from scratch."""
    checker = doc.get("checker")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise StructuralError("witness: missing payload object")
    if checker == "schreier":
        p = point_from_dict(_field(payload, "point", "witness payload"))
        return check_schreier(p).describe()
    if checker == "kernel_coherence":
        f = point_morphism_from_dict(_field(payload, "f", "witness payload"))
        g = point_morphism_from_dict(_field(payload, "g", "witness payload"))
        return _kernel_coherence_verdict(CoherenceInstance(f, g))
    if checker == "ssfl":
        m = point_morphism_from_dict(_field(payload, "morphism", "witness payload"))
        return _ssfl_verdict(*ssfl_facts(m.source, m.target, m.g.map))
    raise StructuralError(f"witness: unknown checker {checker!r}")


def _reverify(doc: Document) -> Document:
    # Round-trip through the serialized form so the replay sees exactly what
    # a reader of the witness file would see.
    round_tripped = json.loads(dumps_canonical(doc))
    verdict = replay_witness(round_tripped)
    if verdict != doc["verdict"]:
        raise ComputationError(
            f"witness failed re-verification: stored {doc['verdict']!r}, replayed {verdict!r}")
    return doc


def _split_epis(sources, bases, clock: _Clock):
    """Every split-epi point A -> B, A in sources, B in bases; one tick per (A, B)."""
    for A in sources:
        for B in bases:
            if A.size < B.size or not same_signature(A, B):
                continue
            clock.tick()
            yield from enumerate_split_epis(A, B)


def _points_over(algebras, clock: _Clock):
    """All split-epi points between universe algebras, one base at a time, so
    that only the points of the current base are held."""
    for B in algebras:
        yield list(_split_epis(algebras, (B,), clock))


def _search_non_schreier(goal, algebras, clock, tally):
    for p in _split_epis(algebras, algebras, clock):
        tally[0] += 1
        w = check_schreier(p)
        if not w.is_schreier:
            yield _witness(goal, "schreier", {"point": point_to_dict(p)}, w.describe())


def _search_kernel_coherence(goal, algebras, clock, tally):
    for points in _points_over(algebras, clock):
        schreier = [p for p in points if check_schreier(p).is_schreier]
        for middle in schreier:
            clock.tick()
            # K is a subalgebra of D holding every seed: closing in D is closing in K
            kmask = mask_of(middle.kernel.members)
            kimage: dict[tuple[int, int], int] = {}  # (l, i) -> mask of f(H)
            coherent: dict[int, bool] = {}  # f(H) | g(L) -> verdict
            for l, i, r, j, f, g in jse_pairs(middle, schreier):
                tally[0] += 1
                for key, src, gmap in (((l, i), schreier[l], f), ((r, j), schreier[r], g)):
                    if key not in kimage:
                        kimage[key] = mask_of(gmap[x] for x in src.kernel)
                seeds = kimage[l, i] | kimage[r, j]
                if seeds not in coherent:
                    coherent[seeds] = closure_mask(middle.A, seeds) == kmask
                if coherent[seeds]:
                    continue
                inst = CoherenceInstance(fibre_morphism(schreier[l], middle, f),
                                         fibre_morphism(schreier[r], middle, g))
                payload = {"f": point_morphism_to_dict(inst.f),
                           "g": point_morphism_to_dict(inst.g)}
                if check_kernel_coherence(inst).ok:
                    raise ComputationError("mask verdict fails, check_kernel_coherence "
                                           f"holds, on {dumps_canonical(payload)}")
                yield _witness(goal, "kernel_coherence", payload,
                               _kernel_coherence_verdict(inst))


def _search_ssfl(goal, algebras, clock, tally):
    for points in _points_over(algebras, clock):
        for src in points:
            clock.tick()
            for tgt in points:
                for g in fibre_maps(src, tgt):
                    tally[0] += 1
                    if ssfl_facts(src, tgt, g) == (True, False):
                        payload = {"morphism": point_morphism_to_dict(
                            fibre_morphism(src, tgt, g))}
                        yield _witness(goal, "ssfl", payload, _ssfl_verdict(True, False))


_GOAL_RUNNERS = {
    "NonSchreier": _search_non_schreier,
    "KernelCoherenceFailure": _search_kernel_coherence,
    "SSFLFailureOffClass": _search_ssfl,
}


def search_counterexamples(goal: str, bounds: SearchBounds = SearchBounds()
                           ) -> SearchResult:
    """Sweep the bounded universe for the goal; see the module docstring.

    `completed` is False when the timeout fired or a distinct witness turned
    up with the witness cap already full, in which case the witness list
    covers only the explored prefix.
    """
    if goal not in GOALS:
        raise StructuralError(f"unknown goal {goal!r}, expected one of {GOALS}")
    clock = _Clock(bounds.timeout_s)
    tally = [0]
    found: dict[str, Document] = {}
    timed_out = False
    truncated = False
    try:
        algebras = _universe(bounds, clock)
        for doc in _GOAL_RUNNERS[goal](goal, algebras, clock, tally):
            key = dumps_canonical(doc)
            if key not in found and len(found) >= bounds.max_witnesses:
                truncated = True  # a new witness with the cap already full
                break
            found.setdefault(key, doc)
    except _TimeUp:
        timed_out = True
    witnesses = tuple(_reverify(doc) for _, doc in sorted(found.items()))
    return SearchResult(goal=goal, bounds=bounds, witnesses=witnesses,
                        completed=not (timed_out or truncated),
                        timed_out=timed_out, examined=tally[0],
                        elapsed_s=clock.elapsed())


def result_to_dict(res: SearchResult) -> Document:
    return {
        "type": "search_result", "schema": SCHEMA_VERSION, "goal": res.goal,
        "bounds": {"max_size": res.bounds.max_size,
                   "timeout_s": res.bounds.timeout_s,
                   "max_witnesses": res.bounds.max_witnesses,
                   "variety": res.bounds.variety, "seed": res.bounds.seed},
        "completed": res.completed, "timed_out": res.timed_out,
        "examined": res.examined, "witnesses": list(res.witnesses),
    }
