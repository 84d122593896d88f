"""Outside-in tracing of the package's layers.

`Tracer.install` wraps each function named in `TARGETS` and rebinds every
module-level binding of it across the ``schreierkit`` modules, so callers
that imported the name (``from .algebra import enumerate_homs``) reach the
wrapper too; a class is traced by wrapping its ``__init__``.  `uninstall`
puts every original back.  Nothing under ``src/`` changes.

Each call records a span (name, start, end, parent span, operation id) in
flat arrays kept in memory; `write_spans` stores them when the run ends.
Self time is a span's duration minus the time its child spans cover.  The
work counters run after the traced call has returned, and their cost is
kept out of every span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

# Layers are the package's modules; these are the calls traced in each.
TARGETS = {
    "algebra": ("enumerate_homs", "make_algebra"),
    "points": ("check_schreier", "enumerate_split_epis",
               "enumerate_fibre_morphisms"),
    "actions": ("equivariant_homs", "restrict_action",
                "enumerate_monoid_actions"),
    "adjoints": ("cofree_mon", "cofree_mon_surjective", "mediate_mon",
                 "verify_adjunction_srng", "invariants_srng"),
    "coherence": ("jointly_strongly_epi", "check_kernel_coherence",
                  "CoherenceInstance", "check_coherence_along"),
    "search": ("search_counterexamples", "replay_witness"),
    "serialize": ("dumps_canonical", "point_to_dict", "point_morphism_to_dict",
                  "point_from_dict", "point_morphism_from_dict"),
    "catalog": ("build_catalog",),
    "suites": ("suite_protomodularity", "suite_ssfl", "suite_roundtrip",
               "suite_adjunction_mon", "suite_adjunction_srng",
               "suite_coherence", "suite_ring_base"),
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]

# Work counters and ratios beyond calls and self time, with their units.
WORK_METRICS = {
    "algebra.enumerate_homs.candidates": "count",
    "algebra.enumerate_homs.returned": "count",
    "algebra.enumerate_homs.accept_ratio": "ratio",
    "actions.equivariant_homs.filtered": "count",
    "actions.equivariant_homs.returned": "count",
    "actions.equivariant_homs.distinct_ratio": "ratio",
    "adjoints.cofree_mon.functions_scanned": "count",
    "adjoints.cofree_mon.elements_kept": "count",
    "adjoints.cofree_mon.distinct_ratio": "ratio",
    "points.check_schreier.distinct_ratio": "ratio",
    "coherence.jointly_strongly_epi.ok_ratio": "ratio",
    "search.examined": "count",
    "search.witnesses": "count",
    "serialize.dumps_canonical.bytes": "bytes",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(WORK_METRICS)
    return units


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.op = 0  # id of the operation now running; set by the caller
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counts: dict[str, int] = dict.fromkeys(
            ("candidates", "homs_returned", "filtered", "equivariant_returned",
             "functions_scanned", "elements_kept", "jse_ok", "examined",
             "witnesses", "bytes"), 0)
        self.distinct: dict[str, set] = {"equivariant_homs": set(),
                                         "cofree_mon": set(),
                                         "check_schreier": set()}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, time covered by children]
        self._restore: list[tuple[object, str, object]] = []
        self._hom_candidates = None
        self._dumps = None

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        from schreierkit import algebra, serialize
        self._hom_candidates = algebra.hom_candidate_count
        self._dumps = serialize.dumps_canonical
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "schreierkit" or name.startswith("schreierkit.")]
        for idx, name in enumerate(SPAN_NAMES):
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"schreierkit.{mod_name}"),
                               fn_name)
            counter = getattr(self, f"_count_{fn_name}", None)
            if inspect.isclass(original):
                init = original.__dict__["__init__"]
                self._restore.append((original, "__init__", init))
                setattr(original, "__init__", self._wrap(idx, init, counter))
                continue
            wrapper = self._wrap(idx, original, counter)
            for module in package:
                for attr in [k for k, v in vars(module).items() if v is original]:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, idx: int, fn, counter):
        stack = self._stack

        def close(frame, t0: float, t1: float) -> None:
            stack.pop()
            sid = frame[0]
            self.span_start[sid] = t0
            self.span_end[sid] = t1
            self.calls[idx] += 1
            self.self_s[idx] += (t1 - t0) - frame[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(self.span_name), 0.0]
            self.span_name.append(idx)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                close(frame, t0, t1)
                if stack:
                    stack[-1][1] += t1 - t0
                raise
            t1 = perf_counter()
            close(frame, t0, t1)
            if counter is not None:
                counter(args, kwargs, result)
            if stack:
                # the parent's self time excludes this span and its counting
                stack[-1][1] += perf_counter() - t0
            return result

        return traced

    # -- work counters, run after the traced call returned -----------------

    def _parent_name(self) -> str | None:
        return SPAN_NAMES[self.span_name[self._stack[-1][0]]] if self._stack else None

    def _count_enumerate_homs(self, args, kwargs, result) -> None:
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        self.counts["candidates"] += self._hom_candidates(a, b)
        self.counts["homs_returned"] += len(result)
        if self._parent_name() == "actions.equivariant_homs":
            self.counts["filtered"] += len(result)

    def _count_equivariant_homs(self, args, kwargs, result) -> None:
        self.counts["equivariant_returned"] += len(result)
        self.distinct["equivariant_homs"].add(
            (_arg(args, kwargs, 0, "a1"), _arg(args, kwargs, 1, "a2")))

    def _count_cofree_mon(self, args, kwargs, result) -> None:
        h, F = _arg(args, kwargs, 0, "h"), _arg(args, kwargs, 1, "F")
        self.counts["functions_scanned"] += F.X.size ** h.target.size
        self.counts["elements_kept"] += len(result.elements)
        self.distinct["cofree_mon"].add((h, F))

    def _count_check_schreier(self, args, kwargs, result) -> None:
        self.distinct["check_schreier"].add(_arg(args, kwargs, 0, "p"))

    def _count_jointly_strongly_epi(self, args, kwargs, result) -> None:
        self.counts["jse_ok"] += bool(result.ok)

    def _count_search_counterexamples(self, args, kwargs, result) -> None:
        self.counts["examined"] += result.examined
        self.counts["witnesses"] += len(result.witnesses)

    def _count_dumps_canonical(self, args, kwargs, result) -> None:
        doc = _arg(args, kwargs, 0, "doc")
        if isinstance(doc, dict) and "timestamp" in doc:
            # A report's timestamp block holds clock readings whose length
            # varies; count the rest, which report comparison also uses.
            result = self._dumps({k: v for k, v in doc.items() if k != "timestamp"})
        self.counts["bytes"] += len(result.encode("utf-8"))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        def calls(name: str) -> int:
            return self.calls[SPAN_NAMES.index(name)]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0  # 0 when nothing was attempted

        c = self.counts
        out: dict[str, float] = {}
        for idx, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
        out.update({
            "algebra.enumerate_homs.candidates": c["candidates"],
            "algebra.enumerate_homs.returned": c["homs_returned"],
            "algebra.enumerate_homs.accept_ratio":
                ratio(c["homs_returned"], c["candidates"]),
            "actions.equivariant_homs.filtered": c["filtered"],
            "actions.equivariant_homs.returned": c["equivariant_returned"],
            "actions.equivariant_homs.distinct_ratio":
                ratio(len(self.distinct["equivariant_homs"]),
                      calls("actions.equivariant_homs")),
            "adjoints.cofree_mon.functions_scanned": c["functions_scanned"],
            "adjoints.cofree_mon.elements_kept": c["elements_kept"],
            "adjoints.cofree_mon.distinct_ratio":
                ratio(len(self.distinct["cofree_mon"]), calls("adjoints.cofree_mon")),
            "points.check_schreier.distinct_ratio":
                ratio(len(self.distinct["check_schreier"]),
                      calls("points.check_schreier")),
            "coherence.jointly_strongly_epi.ok_ratio":
                ratio(c["jse_ok"], calls("coherence.jointly_strongly_epi")),
            "search.examined": c["examined"],
            "search.witnesses": c["witnesses"],
            "serialize.dumps_canonical.bytes": c["bytes"],
        })
        return out

    def write_spans(self, path) -> None:
        """One JSON header line, then the raw span arrays in header order."""
        columns = (("name", self.span_name), ("parent", self.span_parent),
                   ("op", self.span_op), ("start", self.span_start),
                   ("end", self.span_end))
        header = {"names": SPAN_NAMES, "count": len(self.span_name),
                  "columns": [[k, a.typecode] for k, a in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in columns:
                a.tofile(fh)

