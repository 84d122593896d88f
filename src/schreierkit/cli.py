"""Command-line front end.

One invocation runs one command and prints a report to stdout; --json writes
the same report as canonical JSON.  Exit codes: 0 when every check passes (or
a search runs to completion), 1 when a check fails (witnesses included in the
report), 2 for usage, structural, and guard problems, among them an output
path that cannot be written.  A reader that closes stdout early (`| head`)
ends the run with exit 1 and no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

from .actions import (MonoidAction, SemiringAction, point_to_action,
                      require_valid_action, roundtrip_point_iso,
                      semidirect_point, validate_action)
from .adjoints import (DEFAULT_FUNC_GUARD, cofree_mon, cofree_mon_surjective,
                       counit_mon, invariants_srng)
from .algebra import (DEFAULT_HOM_GUARD, Hom, TabularAlgebra, check_hom,
                      validate_algebra)
from .catalog import (Catalog, build_catalog, export_catalog,
                      load_catalog_dir, lookup)
from .errors import ComputationError, StructuralError, ToolkitError
from .points import Point, PointMorphism, check_schreier
from .reporting import Report, reports_equal_modulo_timestamp
from .search import (GOALS, SearchBounds, replay_witness, result_to_dict,
                     search_counterexamples)
from .serialize import (Document, dumps_canonical, load, load_action,
                        load_hom, load_point, point_to_dict, save, tagged)
from .suites import (suite_adjunction_mon, suite_adjunction_srng,
                     suite_coherence, suite_protomodularity, suite_ring_base,
                     suite_ssfl)


# ---------------------------------------------------------------------------
# shared plumbing


def _strip_json(argv: list[str]) -> list[str]:
    """The command echoed into a report: argv minus --json, so replaying the
    report does not overwrite the file being replayed."""
    out = []
    skip = False
    for a in argv:
        if skip:
            skip = False
            continue
        if a == "--json":
            skip = True
            continue
        if a.startswith("--json="):
            continue
        out.append(a)
    return out


def _write_json(doc: Document, json_path: str | None) -> Document:
    """Write doc to json_path if one was given (`save` turns a failed write
    into exit 2), and return it."""
    if json_path:
        save(doc, json_path)
    return doc


def _finish(rep: Report, json_path: str | None) -> tuple[int, Document]:
    print(rep.render_text(), end="")
    return (0 if rep.ok else 1), _write_json(rep.to_dict(), json_path)


def _load_cat(spec: str) -> Catalog:
    return build_catalog() if spec == "builtin" else load_catalog_dir(spec)


def _parse_section(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise StructuralError(f"--section wants comma-separated integers, got {text!r}")


def _write_artifact(obj, path: str) -> None:
    save(obj, path)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(ns, argv) -> tuple[int, Document]:
    obj = load(ns.file)
    rep = Report(_strip_json(argv), {"file": str(ns.file)})
    if isinstance(obj, TabularAlgebra):
        law = validate_algebra(obj)
        for e in law.entries:
            rep.add(f"law[{e.op}.{e.law}]", e.ok,
                    "" if e.ok else f"violated at {e.witness}")
    elif isinstance(obj, (MonoidAction, SemiringAction)):
        arep = validate_action(obj)
        for e in arep.entries:
            rep.add(f"axiom[{e.axiom}]", e.ok,
                    "" if e.ok else f"violated at {e.witness}")
    elif isinstance(obj, Point):
        # construction already proved the split and the kernel closure
        rep.add("point-structure", True,
                f"|A|={obj.A.size}, |B|={obj.B.size}, |kernel|={len(obj.kernel)}")
    elif isinstance(obj, PointMorphism):
        rep.add("morphism-structure", True,
                "both squares commute and both legs are homomorphisms")
    elif isinstance(obj, Hom):
        chk = check_hom(obj)
        rep.add("homomorphism", chk.ok,
                "preserves 0 and every op" if chk.ok else f"violated at {chk.witness}")
    else:
        raise StructuralError(
            "validate expects an algebra, hom, point, action, or point morphism;"
            " use the report command to replay witness and report files")
    return _finish(rep, ns.json)


def _cmd_schreier(ns, argv) -> tuple[int, Document]:
    p = load_point(ns.file)
    w = check_schreier(p)
    rep = Report(_strip_json(argv), {"file": str(ns.file)})
    rep.add("schreier", w.is_schreier, w.describe(),
            None if w.is_schreier else point_to_dict(p))
    return _finish(rep, ns.json)


def _cmd_semidirect(ns, argv) -> tuple[int, Document]:
    a = require_valid_action(load_action(ns.file))
    p = semidirect_point(a)
    rep = Report(_strip_json(argv), {"file": str(ns.file)})
    w = check_schreier(p)
    rep.add("semidirect-schreier", w.is_schreier, w.describe())
    rep.add("action-roundtrip", point_to_action(p) == a,
            "extracting the action from the semidirect point recovers the input")
    if ns.out:
        _write_artifact(p, ns.out)
    return _finish(rep, ns.json)


def _cmd_action(ns, argv) -> tuple[int, Document]:
    p = load_point(ns.file)
    rep = Report(_strip_json(argv), {"file": str(ns.file)})
    w = check_schreier(p)
    if not rep.add("schreier", w.is_schreier, w.describe(),
                   None if w.is_schreier else point_to_dict(p)):
        return _finish(rep, ns.json)  # no action to extract
    a = point_to_action(p, w)
    arep = validate_action(a)
    rep.add("action-axioms", arep.ok,
            "" if arep.ok else f"violated: {arep.first_violation()}")
    try:
        roundtrip_point_iso(p)
    except ComputationError as exc:
        rep.add("roundtrip-isomorphism", False, str(exc))
    else:
        rep.add("roundtrip-isomorphism", True,
                "semidirect point of the extracted action is isomorphic to the input")
    if ns.out:
        _write_artifact(a, ns.out)
    return _finish(rep, ns.json)


def _cmd_radjoint(ns, argv) -> tuple[int, Document]:
    h = load_hom(ns.hom)
    F = load_action(ns.action)
    rep = Report(_strip_json(argv),
                 {"hom": str(ns.hom), "action": str(ns.action)})
    if ns.variety == "mon":
        if not isinstance(F, MonoidAction):
            raise StructuralError("radjoint mon expects a monoid action file")
        rep.config["guard_functions"] = ns.guard_functions
        c = cofree_mon(h, F, guard=ns.guard_functions)
        counit_mon(c)  # raises if evaluation at 0 is not an equivariant hom
        rep.add("cofree-action", True,
                f"|L(B, M)|={len(c.elements)} over |M|^|B|={c.M.size ** h.target.size} functions")
        rep.add("counit", True, "evaluation at 0 is an equivariant homomorphism")
        artifact = c.action
        if ns.section is not None:
            sc = cofree_mon_surjective(c, _parse_section(ns.section))
            rep.add("section-comparison", sc.is_isomorphism,
                    f"|submonoid|={len(sc.members)}, |L(B, M)|={len(sc.cofree.elements)}"
                    if sc.is_isomorphism else sc.failure)
    else:
        if not isinstance(F, SemiringAction):
            raise StructuralError("radjoint srng expects a semiring action file")
        inv = invariants_srng(h, F)
        rep.add("invariant-subalgebra", True,
                f"|R_h(X)|={len(inv.members)}, members={list(inv.members)}")
        artifact = inv.action
    if ns.out:
        _write_artifact(artifact, ns.out)
    return _finish(rep, ns.json)


def _cmd_verify(ns, argv) -> tuple[int, Document]:
    cat = _load_cat(ns.catalog)
    echo = _strip_json(argv)
    hg = ns.guard_homs
    if ns.subject == "protomodularity":
        rep = suite_protomodularity(cat, hom_guard=hg, command=echo)
    elif ns.subject == "ssfl":
        rep = suite_ssfl(cat, hom_guard=hg, command=echo)
    elif ns.subject == "adjunction":
        fg = ns.guard_functions
        if ns.variety == "mon":
            rep = suite_adjunction_mon(cat, hom_guard=hg, func_guard=fg,
                                       command=echo)
        elif ns.variety == "srng":
            rep = suite_adjunction_srng(cat, hom_guard=hg, command=echo)
        else:
            rep = Report(echo, {"guard_homs": hg, "guard_functions": fg})
            rep.extend(suite_adjunction_mon(cat, hom_guard=hg, func_guard=fg))
            rep.extend(suite_adjunction_srng(cat, hom_guard=hg))
    elif ns.subject == "coherence":
        rep = suite_coherence(cat, variety=ns.variety, hom_guard=hg,
                              command=echo)
    else:
        rep = suite_ring_base(cat, hom_guard=hg, command=echo)
    return _finish(rep, ns.json)


def _cmd_search(ns, argv) -> tuple[int, Document]:
    bounds = SearchBounds(max_size=ns.max_size, timeout_s=ns.timeout,
                          max_witnesses=ns.max_witnesses,
                          variety=ns.variety, seed=ns.seed)
    res = search_counterexamples(ns.goal, bounds)
    print(f"goal: {res.goal} (variety {bounds.variety}, max size {bounds.max_size})")
    print(f"examined: {res.examined} instances in {res.elapsed_s:.2f}s")
    for i, w in enumerate(res.witnesses):
        print(f"witness[{i}]: {w['verdict']} (re-verified)")
    status = ("completed" if res.completed else
              "timed out" if res.timed_out else "witness cap reached")
    print(f"result: {status}, {len(res.witnesses)} witness(es)")
    return (0 if res.completed else 1), _write_json(result_to_dict(res), ns.json)


def _cmd_catalog(ns, argv) -> tuple[int, None]:
    cat = _load_cat(ns.catalog)
    if ns.sub == "list":
        for slot, d in (("monoid", cat.monoids), ("semiring", cat.semirings),
                        ("point", cat.points),
                        ("monoid action", cat.monoid_actions),
                        ("semiring action", cat.semiring_actions)):
            for name in sorted(d):
                print(f"{slot:16} {name}")
    elif ns.sub == "show":
        print(dumps_canonical(tagged(lookup(cat, ns.name))), end="")
    else:
        for path in export_catalog(cat, ns.out):
            print(path)
    return 0, None


def _cmd_report(ns, argv) -> tuple[int, Document]:
    doc = load(ns.file)
    if not isinstance(doc, dict):
        raise StructuralError(
            "report expects a witness, report, or search result file")
    rep = Report(_strip_json(argv), {"file": str(ns.file)})
    kind = doc.get("type")
    if kind == "witness":
        _replay_witness_into(rep, doc, "witness-replay")
    elif kind == "search_result":
        witnesses = doc.get("witnesses", [])
        if not isinstance(witnesses, list) or not all(isinstance(w, dict) for w in witnesses):
            raise StructuralError("search result: 'witnesses' must be a list of objects")
        if not witnesses:
            rep.add("witness-replay", True, "no witnesses to replay")
        for i, w in enumerate(witnesses):
            _replay_witness_into(rep, w, f"witness-replay[{i}]")
    elif kind == "report":
        cmd = doc.get("command")
        if (not isinstance(cmd, list) or not cmd
                or not all(isinstance(c, str) for c in cmd)):
            raise StructuralError("report file carries no replayable command")
        try:  # argparse exits on --help or a usage error
            with contextlib.redirect_stdout(io.StringIO()):
                stored = _build_parser().parse_args(cmd)
        except SystemExit:
            raise StructuralError("report file carries no replayable command")
        if stored.command == "report":
            raise StructuralError("refusing to replay a replay report")
        if stored.command == "catalog":
            raise StructuralError("refusing to replay a catalog command")
        stored.json = stored.out = None  # a replay recomputes verdicts, writes no file
        with contextlib.redirect_stdout(io.StringIO()):
            _, fresh = stored.handler(stored, cmd)
        same = fresh is not None and reports_equal_modulo_timestamp(doc, fresh)
        rep.add("report-replay", same,
                f"re-ran `{' '.join(cmd)}`: " +
                ("verdicts reproduced" if same else "replay DIFFERS from the stored report"))
    else:
        raise StructuralError(f"cannot replay a document of type {kind!r}")
    return _finish(rep, ns.json)


def _replay_witness_into(rep: Report, doc: Document, name: str) -> None:
    stored = doc.get("verdict")
    replayed = replay_witness(doc)
    rep.add(name, replayed == stored,
            f"stored {stored!r}, replayed {replayed!r}")


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="schreierkit",
        description="Verification toolkit for Schreier split epimorphisms "
                    "of monoids and semirings.")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_json(p):
        p.add_argument("--json", metavar="PATH",
                       help="also write the report as canonical JSON")

    def add_catalog(p):
        p.add_argument("--catalog", default="builtin", metavar="SRC",
                       help="'builtin' or a directory of exported files")

    p = sub.add_parser("validate", help="check the laws or axioms of a stored object")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("schreier", help="decide the Schreier condition for a point file")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(handler=_cmd_schreier)

    p = sub.add_parser("semidirect", help="build the semidirect product point of an action")
    p.add_argument("file")
    p.add_argument("--out", metavar="FILE", help="write the resulting point")
    add_json(p)
    p.set_defaults(handler=_cmd_semidirect)

    p = sub.add_parser("action", help="extract the kernel action of a Schreier point")
    p.add_argument("file")
    p.add_argument("--out", metavar="FILE", help="write the resulting action")
    add_json(p)
    p.set_defaults(handler=_cmd_action)

    r = sub.add_parser("radjoint",
                       help="compute the value of the relative right adjoint")
    rsub = r.add_subparsers(dest="variety", required=True, metavar="VARIETY")
    p = rsub.add_parser("mon", help="cofree action L(B, M) along h: E -> B")
    p.add_argument("--hom", required=True, metavar="FILE", help="h as a hom file")
    p.add_argument("--action", required=True, metavar="FILE",
                   help="action of the source of h on M")
    p.add_argument("--section", metavar="CSV",
                   help="set-section of a surjective h (one source index per "
                        "target element); compares the simplified form against L(B, M)")
    p.add_argument("--out", metavar="FILE", help="write the B-action on L(B, M)")
    p.add_argument("--guard-functions", type=int, default=DEFAULT_FUNC_GUARD,
                   metavar="N", help="bound on the |M|^|B| enumeration")
    add_json(p)
    p.set_defaults(handler=_cmd_radjoint, variety="mon")
    p = rsub.add_parser("srng", help="invariant subalgebra R_h(X) along a surjective h")
    p.add_argument("--hom", required=True, metavar="FILE", help="h as a hom file")
    p.add_argument("--action", required=True, metavar="FILE",
                   help="action of the source of h on X")
    p.add_argument("--out", metavar="FILE", help="write the B-action on R_h(X)")
    add_json(p)
    p.set_defaults(handler=_cmd_radjoint, variety="srng")

    v = sub.add_parser("verify", help="run a verification sweep over a catalog")
    vsub = v.add_subparsers(dest="subject", required=True, metavar="SUBJECT")
    blurbs = {
        "protomodularity": "Schreier implies strong; stability under pullback "
                           "and fibre product",
        "ssfl": "split short five lemma on fibre morphisms of Schreier points",
        "adjunction": "relative right adjoints: hom-set bijections, triangle "
                      "identity, uniqueness",
        "coherence": "kernel coherence, coherence along change of base, and "
                     "the product decompositions",
        "ring-base": "every split epi onto a ring-like base is Schreier",
    }
    for subject, blurb in blurbs.items():
        p = vsub.add_parser(subject, help=blurb)
        add_catalog(p)
        p.add_argument("--guard-homs", type=int, default=DEFAULT_HOM_GUARD,
                       metavar="N", help="bound on map enumerations")
        if subject in ("adjunction", "coherence"):
            p.add_argument("--variety", choices=("mon", "srng"), default=None,
                           help="restrict to one variety (default: both)")
        if subject == "adjunction":
            p.add_argument("--guard-functions", type=int,
                           default=DEFAULT_FUNC_GUARD, metavar="N",
                           help="bound on the |M|^|B| enumerations")
        add_json(p)
        p.set_defaults(handler=_cmd_verify, subject=subject)

    p = sub.add_parser("search",
                       help="sweep bounded universes for counterexample witnesses")
    p.add_argument("--goal", required=True, choices=GOALS)
    p.add_argument("--max-size", type=int, default=4, metavar="N",
                   help="largest algebra carrier in the universe")
    p.add_argument("--timeout", type=float, default=10.0, metavar="S")
    p.add_argument("--max-witnesses", type=int, default=100, metavar="N")
    p.add_argument("--variety", choices=("mon", "srng", "jt"), default="mon",
                   help="catalog monoids, catalog semirings, or generated "
                        "generic tables")
    p.add_argument("--seed", type=int, default=None, metavar="N",
                   help="shuffle enumeration order; verdicts are seed-independent")
    add_json(p)
    p.set_defaults(handler=_cmd_search)

    c = sub.add_parser("catalog", help="inspect or export a catalog")
    csub = c.add_subparsers(dest="sub", required=True, metavar="ACTION")
    p = csub.add_parser("list", help="stable list of entry names")
    add_catalog(p)
    p.set_defaults(handler=_cmd_catalog, sub="list")
    p = csub.add_parser("show", help="print one entry as canonical JSON")
    p.add_argument("name")
    add_catalog(p)
    p.set_defaults(handler=_cmd_catalog, sub="show")
    p = csub.add_parser("export", help="write every entry to a directory")
    p.add_argument("--out", required=True, metavar="DIR")
    add_catalog(p)
    p.set_defaults(handler=_cmd_catalog, sub="export")

    p = sub.add_parser("report",
                       help="replay a witness, report, or search result file")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(handler=_cmd_report)

    return top


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ns = _build_parser().parse_args(argv)
    try:
        code, _ = ns.handler(ns, argv)
        sys.stdout.flush()  # so a closed pipe shows up here, not at exit
        return code
    except ToolkitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left; keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
