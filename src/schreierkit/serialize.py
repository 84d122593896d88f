"""JSON files for algebras, homs, points, actions, and search witnesses.

Documents are plain JSON objects.  Saved files carry a "type" tag and
"schema": 1; loaders accept a missing schema field and reject any other
version.  Algebras may be embedded inline or referenced by a path string
(resolved relative to the referencing file), so a point file can share one
algebra file between runs.

Serialization is canonical: sorted keys, two-space indent, trailing newline.
Whatever `save` writes, `load` returns as an equal object.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from .actions import MonoidAction, SemiringAction
from .algebra import Hom, Kind, TabularAlgebra
from .errors import StructuralError
from .points import Point, PointMorphism

SCHEMA_VERSION = 1

Document = dict


def dumps_canonical(doc: Document) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _check_schema(doc: Document, what: str) -> None:
    if not isinstance(doc, dict):
        raise StructuralError(f"{what}: expected an object, got {type(doc).__name__}")
    version = doc.get("schema", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise StructuralError(
            f"{what}: schema version {version!r} not supported, expected {SCHEMA_VERSION}")


def _rows(value, what: str) -> tuple:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise StructuralError(f"{what}: expected a list of rows")
    return tuple(tuple(r) for r in value)


def _ints(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise StructuralError(f"{what}: expected a list of integers")
    for v in value:
        if not isinstance(v, int) or isinstance(v, bool):
            raise StructuralError(f"{what}: entry {v!r} is not an integer")
    return tuple(value)


def _field(doc: Document, key: str, what: str):
    if key not in doc:
        raise StructuralError(f"{what}: missing field {key!r}")
    return doc[key]


def algebra_to_dict(a: TabularAlgebra) -> Document:
    doc: Document = {"kind": a.kind.value, "size": a.size,
                     "add": [list(r) for r in a.add]}
    if a.extra_ops:
        doc["ops"] = {name: [list(r) for r in table] for name, table in a.extra_ops}
    if a.declared_laws:
        doc["laws"] = {op: list(laws) for op, laws in a.declared_laws}
    return doc


def algebra_from_dict(doc: Document, base_dir: Path | None = None) -> TabularAlgebra:
    _check_schema(doc, "algebra")
    kind_name = _field(doc, "kind", "algebra")
    try:
        kind = Kind(kind_name)
    except ValueError:
        names = ", ".join(k.value for k in Kind)
        raise StructuralError(f"algebra: unknown kind {kind_name!r}, expected one of {names}")
    size = _field(doc, "size", "algebra")
    if not isinstance(size, int) or isinstance(size, bool):
        raise StructuralError(f"algebra: size {size!r} is not an integer")
    ops = doc.get("ops", {})
    laws = doc.get("laws", {})
    if not isinstance(ops, dict) or not isinstance(laws, dict):
        raise StructuralError("algebra: 'ops' and 'laws' must be objects")
    for op, ls in laws.items():
        if not isinstance(ls, list) or not all(isinstance(law, str) for law in ls):
            raise StructuralError(f"algebra: laws of {op!r} must be a list of law names")
    return TabularAlgebra(
        kind=kind, size=size, add=_rows(_field(doc, "add", "algebra"), "add"),
        extra_ops=tuple((name, _rows(table, name)) for name, table in ops.items()),
        declared_laws=tuple((op, tuple(ls)) for op, ls in laws.items()))


def _algebra_ref(value, base_dir: Path | None, what: str) -> TabularAlgebra:
    # Inline object or a path string relative to the referencing file, read
    # as an algebra document: that references nothing, so references cannot loop.
    if isinstance(value, dict):
        return algebra_from_dict(value, base_dir)
    if isinstance(value, str):
        path = (base_dir or Path.cwd()) / value
        return algebra_from_dict(_read_json(path), path.parent)
    raise StructuralError(f"{what}: expected an inline algebra or a path string")


def hom_to_dict(h: Hom) -> Document:
    return {"source": algebra_to_dict(h.source), "target": algebra_to_dict(h.target),
            "map": list(h.map)}


def hom_from_dict(doc: Document, base_dir: Path | None = None) -> Hom:
    _check_schema(doc, "hom")
    source = _algebra_ref(_field(doc, "source", "hom"), base_dir, "hom source")
    target = _algebra_ref(_field(doc, "target", "hom"), base_dir, "hom target")
    return Hom(source, target, _ints(_field(doc, "map", "hom"), "map"))


def point_to_dict(p: Point) -> Document:
    return {"A": algebra_to_dict(p.A), "B": algebra_to_dict(p.B),
            "f": list(p.f.map), "s": list(p.s.map)}


def point_from_dict(doc: Document, base_dir: Path | None = None) -> Point:
    _check_schema(doc, "point")
    A = _algebra_ref(_field(doc, "A", "point"), base_dir, "point A")
    B = _algebra_ref(_field(doc, "B", "point"), base_dir, "point B")
    f = Hom(A, B, _ints(_field(doc, "f", "point"), "f"))
    s = Hom(B, A, _ints(_field(doc, "s", "point"), "s"))
    return Point(A, B, f, s)


def action_to_dict(a: MonoidAction | SemiringAction) -> Document:
    doc: Document = {"B": algebra_to_dict(a.B), "X": algebra_to_dict(a.X)}
    if isinstance(a, MonoidAction):
        doc["act"] = [list(r) for r in a.act]
    else:
        doc["left"] = [list(r) for r in a.left]
        doc["right"] = [list(r) for r in a.right]
    return doc


def action_from_dict(doc: Document, base_dir: Path | None = None
                     ) -> MonoidAction | SemiringAction:
    _check_schema(doc, "action")
    B = _algebra_ref(_field(doc, "B", "action"), base_dir, "action B")
    X = _algebra_ref(_field(doc, "X", "action"), base_dir, "action X")
    if "act" in doc:
        return MonoidAction(B, X, _rows(doc["act"], "act"))
    if "left" in doc and "right" in doc:
        return SemiringAction(B, X, _rows(doc["left"], "left"), _rows(doc["right"], "right"))
    raise StructuralError("action: expected either 'act' or both 'left' and 'right'")


def point_morphism_to_dict(m: PointMorphism) -> Document:
    return {"source": point_to_dict(m.source), "target": point_to_dict(m.target),
            "g": list(m.g.map), "h": list(m.h.map)}


def point_morphism_from_dict(doc: Document, base_dir: Path | None = None) -> PointMorphism:
    _check_schema(doc, "point morphism")
    source = point_from_dict(_field(doc, "source", "point morphism"), base_dir)
    target = point_from_dict(_field(doc, "target", "point morphism"), base_dir)
    g = Hom(source.A, target.A, _ints(_field(doc, "g", "point morphism"), "g"))
    h = Hom(source.B, target.B, _ints(_field(doc, "h", "point morphism"), "h"))
    return PointMorphism(source, target, g, h)


Serializable = TabularAlgebra | Hom | Point | MonoidAction | SemiringAction | PointMorphism

# tag -> (types, to_dict, from_dict, the fields an untagged document of the type
# holds), in the order from_dict tries the field sets of an untagged document.
_FORMATS = {
    "point": (Point, point_to_dict, point_from_dict, {"A", "B", "f", "s"}),
    "point_morphism": (PointMorphism, point_morphism_to_dict, point_morphism_from_dict,
                       {"source", "target", "g", "h"}),
    "hom": (Hom, hom_to_dict, hom_from_dict, {"source", "target", "map"}),
    "action": ((MonoidAction, SemiringAction), action_to_dict, action_from_dict, {"B", "X"}),
    "algebra": (TabularAlgebra, algebra_to_dict, algebra_from_dict, {"kind", "size", "add"}),
}
_PASSTHROUGH = ("witness", "report", "search_result")


def _tag(obj: Serializable) -> str:
    for tag, (types, _, _, _) in _FORMATS.items():
        if isinstance(obj, types):
            return tag
    raise StructuralError(f"cannot serialize {type(obj).__name__}")


def to_dict(obj: Serializable) -> Document:
    """obj's fields, untagged: the form embedded in witnesses and reports."""
    return _FORMATS[_tag(obj)][1](obj)


def tagged(obj: Serializable | Document) -> Document:
    """The document `save` writes: an object's fields under a top-level
    "type" tag, or a copy of a document; either way with "schema" set."""
    doc = dict(obj) if isinstance(obj, dict) else {"type": _tag(obj), **to_dict(obj)}
    doc.setdefault("schema", SCHEMA_VERSION)
    return doc


def from_dict(doc: Document, base_dir: Path | None = None) -> Serializable | Document:
    """Dispatch on the "type" tag, or on the fields of an untagged (older)
    document; witness and report documents pass through."""
    if not isinstance(doc, dict):
        raise StructuralError("expected a JSON object at the top level")
    tag = doc.get("type")
    if tag in _PASSTHROUGH:
        _check_schema(doc, tag)
        return doc
    if tag is None:
        keys = set(doc)
        tag = next((t for t, (*_, fields) in _FORMATS.items() if fields <= keys), None)
        if tag is None:
            raise StructuralError(f"unrecognized document shape with fields {sorted(keys)}")
    elif not isinstance(tag, str) or tag not in _FORMATS:
        raise StructuralError(f"unknown document type {tag!r}")
    return _FORMATS[tag][2](doc, base_dir)


@contextmanager
def writing(path):
    """Every file write goes through here: an OSError in the block becomes a
    StructuralError naming path, except a closed pipe (BrokenPipeError),
    which the command line ends with exit 1 like a closed stdout."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise StructuralError(f"cannot write {path}: {exc}") from None


def save(obj: Serializable | Document, path: str | Path) -> Path:
    path = Path(path)
    with writing(path):
        path.write_text(dumps_canonical(tagged(obj)), encoding="utf-8")
    return path


def _read_json(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a null byte, or bytes that are not UTF-8
        raise StructuralError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise StructuralError(f"{path} is not valid JSON: {exc}")


def load(path: str | Path) -> Serializable | Document:
    path = Path(path)
    return from_dict(_read_json(path), base_dir=path.parent)


def _load_typed(path: str | Path, want, what: str):
    obj = load(path)
    if not isinstance(obj, want):
        got = type(obj).__name__ if not isinstance(obj, dict) else "document"
        raise StructuralError(f"{path}: expected {what}, got {got}")
    return obj


def load_algebra(path: str | Path) -> TabularAlgebra:
    return _load_typed(path, TabularAlgebra, "an algebra file")


def load_hom(path: str | Path) -> Hom:
    return _load_typed(path, Hom, "a hom file")


def load_point(path: str | Path) -> Point:
    return _load_typed(path, Point, "a point file")


def load_action(path: str | Path) -> MonoidAction | SemiringAction:
    return _load_typed(path, MonoidAction | SemiringAction, "an action file")
