"""File formats and the command line: canonical JSON round-trips, structural
rejection of malformed documents, exit codes, report determinism, and witness
replay through the report command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schreierkit import (Hom, Kind, MonoidAction, Point, PointMorphism,
                         SemiringAction, StructuralError, TabularAlgebra,
                         build_catalog,
                         dumps_canonical, from_dict, identity_hom, load,
                         load_action, load_algebra, load_hom, load_point,
                         make_algebra, reports_equal_modulo_timestamp, save,
                         suite_ssfl, to_dict)
from schreierkit.cli import main
from schreierkit.serialize import SCHEMA_VERSION

CAT = build_catalog()
B2 = CAT.monoids["b2"]
Z2 = CAT.monoids["z2"]
ZERO = CAT.monoids["zero"]


# ---------------------------------------------------------------------------
# round-trips


def _samples():
    prod = CAT.points["prod_b2_b2"]
    jt = make_algebra(Kind.JT_GENERIC, ((0, 1), (1, 0)),
                      {"mul": ((0, 0), (0, 1))}, {"mul": ("absorb",)})
    return [
        B2,
        CAT.semirings["z2_ring"],
        jt,
        Hom(B2, CAT.monoids["n3"], (0, 2)),
        CAT.points["diag_b2"],
        PointMorphism(CAT.points["id_b2"], prod, prod.s, identity_hom(B2)),
        CAT.monoid_actions["zeroendo_b2_z2"],
        CAT.semiring_actions["mul_z2r_z2r"],
    ]


TAGS = {TabularAlgebra: "algebra", Hom: "hom", Point: "point", MonoidAction: "action",
        SemiringAction: "action", PointMorphism: "point_morphism"}


@pytest.mark.parametrize("obj", _samples(), ids=lambda o: type(o).__name__)
def test_save_load_identity(tmp_path, obj):
    path = save(obj, tmp_path / "obj.json")
    assert load(path) == obj
    # and the file itself is canonical: stable under a rewrite
    text = path.read_text()
    assert text == dumps_canonical(json.loads(text))
    assert json.loads(text)["schema"] == SCHEMA_VERSION
    assert json.loads(text)["type"] == TAGS[type(obj)]


@pytest.mark.parametrize("obj", _samples(), ids=lambda o: type(o).__name__)
def test_untagged_files_still_load(tmp_path, obj):
    # files written before the "type" tag carry only the object's fields
    path = tmp_path / "legacy.json"
    path.write_text(dumps_canonical({"schema": 1, **to_dict(obj)}))
    assert load(path) == obj


@pytest.mark.parametrize("obj", _samples(), ids=lambda o: type(o).__name__)
def test_cli_contradicting_tag_exits_two(tmp_path, capsys, obj):
    for tag in ("algebra", "hom", "point", "action", "point_morphism", "graph", 7):
        if tag == TAGS[type(obj)]:
            continue
        path = tmp_path / "tagged.json"
        path.write_text(dumps_canonical({**to_dict(obj), "type": tag}))
        assert main(["validate", str(path)]) == 2, tag
        assert capsys.readouterr().err.startswith("StructuralError:")


def test_dict_round_trip_without_files():
    obj = CAT.points["sd_mul_z2r"]
    assert from_dict(json.loads(dumps_canonical(to_dict(obj)))) == obj


def test_canonical_dumps_sorts_keys_and_ends_with_newline():
    text = dumps_canonical({"b": 1, "a": [2, 3]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_passthrough_document_types(tmp_path):
    doc = {"type": "witness", "schema": SCHEMA_VERSION, "goal": "NonSchreier",
           "checker": "schreier", "payload": {}, "verdict": "x"}
    path = save(doc, tmp_path / "w.json")
    assert load(path) == doc


# ---------------------------------------------------------------------------
# structural rejections


def _load_doc(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical(doc))
    return load(path)


def test_load_missing_file():
    with pytest.raises(StructuralError):
        load("/nonexistent/nowhere.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StructuralError):
        load(path)


def test_schema_version_mismatch(tmp_path):
    doc = to_dict(B2)
    doc["schema"] = SCHEMA_VERSION + 1
    with pytest.raises(StructuralError):
        _load_doc(tmp_path, doc)


def test_size_disagrees_with_table(tmp_path):
    doc = {"schema": 1, "kind": "monoid", "size": 2,
           "add": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    with pytest.raises(StructuralError):
        _load_doc(tmp_path, doc)


def test_ragged_and_out_of_range_tables(tmp_path):
    base = {"schema": 1, "kind": "monoid", "size": 2}
    with pytest.raises(StructuralError):
        _load_doc(tmp_path, {**base, "add": [[0, 1], [1]]})
    with pytest.raises(StructuralError):
        _load_doc(tmp_path, {**base, "add": [[0, 1], [1, 7]]})
    with pytest.raises(StructuralError):
        _load_doc(tmp_path, {**base, "add": [[0, 1], [1, True]]})


def test_unknown_kind_and_unknown_shape(tmp_path):
    with pytest.raises(StructuralError):
        _load_doc(tmp_path, {"schema": 1, "kind": "group", "size": 1,
                             "add": [[0]]})
    with pytest.raises(StructuralError):
        _load_doc(tmp_path, {"schema": 1, "carrier": [1, 2, 3]})


def test_typed_loaders_reject_other_types(tmp_path):
    apath = save(B2, tmp_path / "alg.json")
    ppath = save(CAT.points["id_b2"], tmp_path / "pt.json")
    with pytest.raises(StructuralError):
        load_point(apath)
    with pytest.raises(StructuralError):
        load_algebra(ppath)
    with pytest.raises(StructuralError):
        load_hom(apath)
    with pytest.raises(StructuralError):
        load_action(ppath)


def test_hom_file_may_reference_algebras_by_path(tmp_path):
    save(B2, tmp_path / "alg.json")
    doc = {"schema": 1, "source": "alg.json", "target": to_dict(B2),
           "map": [0, 1]}
    path = tmp_path / "h.json"
    path.write_text(dumps_canonical(doc))
    assert load_hom(path) == identity_hom(B2)


def test_broken_point_file_fails_at_construction(tmp_path):
    doc = to_dict(CAT.points["prod_b2_z2"])
    doc["s"] = [0, 1]  # not a section of f
    with pytest.raises(StructuralError):
        _load_doc(tmp_path, doc)


# ---------------------------------------------------------------------------
# report documents


def test_reports_are_deterministic_modulo_timestamp():
    d1 = suite_ssfl(CAT).to_dict()
    d2 = suite_ssfl(CAT).to_dict()
    # back-to-back runs may or may not share a timestamp; force a difference
    d2["timestamp"] = {"written": "elsewhen", "elapsed_s": 999.0}
    assert d1 != d2
    assert reports_equal_modulo_timestamp(d1, d2)
    assert set(d1) - set(d2) == set()
    assert d1["type"] == "report" and d1["schema"] == SCHEMA_VERSION


def test_report_text_rendering():
    rep = suite_ssfl(CAT)
    text = rep.render_text()
    assert text.endswith("\n")
    assert "[  ok]" in text and "FAIL" not in text
    assert text.startswith("command: verify ssfl")


# ---------------------------------------------------------------------------
# command line: catalog plumbing


def _total_entries():
    return (len(CAT.monoids) + len(CAT.semirings) + len(CAT.points)
            + len(CAT.monoid_actions) + len(CAT.semiring_actions))


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == _total_entries()
    assert any(line.split() == ["monoid", "b2"] for line in lines)
    assert any(line.split() == ["point", "diag_b2"] for line in lines)


def test_cli_catalog_show(capsys):
    assert main(["catalog", "show", "z2_ring"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "semiring" and doc["schema"] == SCHEMA_VERSION
    assert doc["type"] == "algebra"
    assert main(["catalog", "show", "no_such_thing"]) == 2
    assert "StructuralError" in capsys.readouterr().err


def test_cli_catalog_export_then_use_files(tmp_path, capsys):
    out = tmp_path / "cat"
    assert main(["catalog", "export", "--out", str(out)]) == 0
    paths = capsys.readouterr().out.splitlines()
    assert len(paths) == _total_entries()

    # an exported non-Schreier point is detected and exits nonzero
    assert main(["schreier", str(out / "diag_b2.point.json")]) == 1
    assert "UniquenessFails(a=3, alphas=(0, 1))" in capsys.readouterr().out
    assert main(["schreier", str(out / "prod_b2_z2.point.json")]) == 0
    capsys.readouterr()

    # the exported directory is itself a loadable catalog
    assert main(["catalog", "list", "--catalog", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == _total_entries()
    assert main(["verify", "ssfl", "--catalog", str(out)]) == 0
    capsys.readouterr()

    # a second file for one entry name is refused, not silently preferred
    (out / "z2.json").write_text((out / "b2.algebra.json").read_text())
    assert main(["catalog", "list", "--catalog", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("StructuralError:")
    assert "z2.algebra.json" in err and "z2.json" in err


def test_cli_validate(tmp_path, capsys):
    apath = save(B2, tmp_path / "alg.json")
    assert main(["validate", str(apath)]) == 0

    broken = {"schema": 1, "kind": "monoid", "size": 2, "add": [[0, 0], [0, 1]]}
    bpath = tmp_path / "broken.json"
    bpath.write_text(dumps_canonical(broken))
    assert main(["validate", str(bpath)]) == 1
    assert "add.unit" in capsys.readouterr().out

    wdoc = {"type": "witness", "schema": 1, "goal": "g", "checker": "c",
            "payload": {}, "verdict": "v"}
    wpath = tmp_path / "w.json"
    wpath.write_text(dumps_canonical(wdoc))
    assert main(["validate", str(wpath)]) == 2
    assert "report command" in capsys.readouterr().err

    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("StructuralError:")

    # wrongly typed entries are structural errors, not tracebacks
    laws = {"kind": "jt", "size": 1, "add": [[0]], "laws": {"add": 5}}
    act = to_dict(CAT.monoid_actions["zeroendo_b2_z2"])
    act["act"] = [["a"] * len(row) for row in act["act"]]
    for name, doc in (("laws.json", laws), ("act.json", act)):
        path = tmp_path / name
        path.write_text(dumps_canonical(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("StructuralError:")

    # a path with a null byte, bytes that are not UTF-8, nesting too deep to parse
    (tmp_path / "nul.json").write_text(dumps_canonical(
        {"A": "a\u0000b", "B": "a\u0000b", "f": [0], "s": [0]}))
    (tmp_path / "latin1.json").write_bytes(b'{"kind": "caf\xe9"}')
    (tmp_path / "deep.json").write_text("[" * 100_000)
    for name in ("nul.json", "latin1.json", "deep.json"):
        for command in ("validate", "report"):
            assert main([command, str(tmp_path / name)]) == 2
            assert capsys.readouterr().err.startswith("StructuralError:")

    # malformed witness payloads and search results, replayed by report
    def witness(checker, payload):
        return {"type": "witness", "schema": 1, "checker": checker,
                "payload": payload, "verdict": "x"}

    def search_result(witnesses):
        return {"type": "search_result", "schema": 1, "witnesses": witnesses}

    for i, doc in enumerate((witness("schreier", {}),
                             witness("schreier", {"point": [1]}),
                             witness("kernel_coherence", {"f": {"source": 1}}),
                             search_result(5), search_result([5]))):
        path = tmp_path / f"replay{i}.json"
        path.write_text(dumps_canonical(doc))
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err.startswith("StructuralError:")


def test_cli_self_referential_algebra_path_exits_two(tmp_path, capsys):
    path = tmp_path / "self.json"
    path.write_text(dumps_canonical({"A": "self.json", "B": "self.json",
                                     "f": [0], "s": [0]}))
    for command in ("schreier", "report"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("StructuralError:")


def test_cli_usage_errors_exit_two():
    for argv in ([], ["frobnicate"], ["search"], ["search", "--goal", "Bogus"],
                 ["verify"], ["catalog"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # NaN would never reach the deadline; a negative timeout is no bound
    for timeout in ("nan", "-1", "0"):
        assert main(["search", "--goal", "NonSchreier", "--variety", "mon",
                     "--max-size", "2", "--timeout", timeout]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["verify", "ssfl", "--guard-homs", "3"], "--guard-homs"),
    (["verify", "protomodularity", "--guard-homs", "1"], "--guard-homs"),
    (["verify", "adjunction", "--variety", "mon", "--guard-functions", "3"],
     "--guard-functions"),
])
def test_cli_guard_refusal_names_its_flag(capsys, argv, flag):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("GuardExceeded:")
    assert f"raise {flag} " in err


# ---------------------------------------------------------------------------
# command line: verification flows


def test_cli_verify_json_is_replayable_and_stable(tmp_path, capsys):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "protomodularity", "--json", str(r1)]) == 0
    assert main(["verify", "protomodularity", "--json", str(r2)]) == 0
    capsys.readouterr()
    d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
    assert reports_equal_modulo_timestamp(d1, d2)
    assert d1["command"] == ["verify", "protomodularity"]

    assert main(["report", str(r1)]) == 0
    assert "verdicts reproduced" in capsys.readouterr().out


def test_cli_report_detects_tampering(tmp_path, capsys):
    rpath = tmp_path / "r.json"
    assert main(["verify", "ring-base", "--json", str(rpath)]) == 0
    doc = json.loads(rpath.read_text())
    doc["checks"][0]["ok"] = not doc["checks"][0]["ok"]
    rpath.write_text(dumps_canonical(doc))
    capsys.readouterr()
    assert main(["report", str(rpath)]) == 1
    assert "DIFFERS" in capsys.readouterr().out


def test_cli_report_of_report_is_rejected(tmp_path, capsys):
    rpath, rrpath = tmp_path / "r.json", tmp_path / "rr.json"
    assert main(["verify", "ring-base", "--json", str(rpath)]) == 0
    assert main(["report", str(rpath), "--json", str(rrpath)]) == 0
    assert main(["report", str(rrpath)]) == 2
    assert "refusing to replay a replay report" in capsys.readouterr().err


def _report_with_command(tmp_path, command) -> str:
    rpath = tmp_path / "crafted.json"
    assert main(["verify", "ring-base", "--json", str(rpath)]) == 0
    doc = json.loads(rpath.read_text())
    doc["command"] = command
    rpath.write_text(dumps_canonical(doc))
    return str(rpath)


@pytest.mark.parametrize("command", [["--help"], ["verify", "bogus"]])
def test_cli_report_replay_refuses_commands_that_do_not_parse(tmp_path, capsys, command):
    rpath = _report_with_command(tmp_path, command)
    capsys.readouterr()
    assert main(["report", rpath]) == 2
    assert "no replayable command" in capsys.readouterr().err


def test_cli_report_replay_refuses_catalog_commands(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rpath = _report_with_command(tmp_path, ["catalog", "export", "--out", "exported"])
    capsys.readouterr()
    assert main(["report", rpath]) == 2
    assert "refusing to replay a catalog command" in capsys.readouterr().err
    assert not (tmp_path / "exported").exists()


@pytest.mark.parametrize("flag", ["--json", "--js"])
def test_cli_report_replay_writes_no_json(tmp_path, monkeypatch, capsys, flag):
    # "--js" reaches --json through argparse's prefix matching
    monkeypatch.chdir(tmp_path)
    victim = tmp_path / "victim.txt"
    victim.write_text("keep me")
    rpath = _report_with_command(tmp_path, ["verify", "ring-base", flag, "victim.txt"])
    capsys.readouterr()
    assert main(["report", rpath]) in (0, 1)
    assert victim.read_text() == "keep me"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["crafted.json", "victim.txt"]


def test_cli_report_replay_leaves_out_file_alone(tmp_path, capsys):
    action = tmp_path / "a.json"
    save(CAT.monoid_actions["zeroendo_b2_z2"], action)
    out, rpath = tmp_path / "sd.json", tmp_path / "r.json"
    assert main(["semidirect", str(action), "--out", str(out),
                 "--json", str(rpath)]) == 0
    out.write_text("sentinel")
    capsys.readouterr()
    assert main(["report", str(rpath)]) == 0
    assert "verdicts reproduced" in capsys.readouterr().out
    assert out.read_text() == "sentinel"


def test_cli_search_witnesses_replay_via_report(tmp_path, capsys):
    spath = tmp_path / "s.json"
    # completing with witnesses still exits 0: the sweep itself succeeded
    assert main(["search", "--goal", "NonSchreier", "--json", str(spath)]) == 0
    out = capsys.readouterr().out
    assert "result: completed, 6 witness(es)" in out

    assert main(["report", str(spath)]) == 0
    assert "witness-replay[5]" in capsys.readouterr().out

    doc = json.loads(spath.read_text())
    doc["witnesses"][0]["verdict"] = "Schreier"
    spath.write_text(dumps_canonical(doc))
    assert main(["report", str(spath)]) == 1


def test_cli_search_incomplete_sweeps_exit_nonzero(capsys):
    assert main(["search", "--goal", "NonSchreier", "--variety", "jt",
                 "--max-size", "3", "--timeout", "0.05"]) == 1
    assert "timed out" in capsys.readouterr().out
    assert main(["search", "--goal", "SSFLFailureOffClass",
                 "--max-witnesses", "1", "--timeout", "60"]) == 1
    assert "witness cap reached" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["catalog", "list"],  # fits the stdout buffer: the pipe breaks on the flush
    ["search", "--goal", "SSFLFailureOffClass", "--variety", "mon"],  # breaks in print
    # breaks in the --json write, which turns every other OSError into exit 2
    ["search", "--goal", "NonSchreier", "--variety", "jt", "--max-size", "2",
     "--json", "/dev/stdout"],
], ids=["flush", "print", "json-write"])
def test_cli_closed_stdout_exits_one_without_traceback(argv):
    # `schreierkit ... | head -1`, with the reader gone before the first write
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "schreierkit.cli", *argv],
                              stdout=w, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_cli_unwritable_output_paths_exit_two(tmp_path, capsys):
    algebra = save(B2, tmp_path / "b2.json")
    action = save(CAT.monoid_actions["zeroendo_b2_z2"], tmp_path / "act.json")
    afile = tmp_path / "afile"
    afile.write_text("keep me")
    missing = str(tmp_path / "nodir" / "x.json")
    for argv, path in (
            (["validate", str(algebra), "--json", missing], missing),
            (["search", "--goal", "NonSchreier", "--json", missing], missing),
            (["semidirect", str(action), "--out", missing], missing),
            (["catalog", "export", "--out", str(afile)], str(afile))):
        assert main(argv) == 2, argv
        assert f"StructuralError: cannot write {path}: " in capsys.readouterr().err
    assert afile.read_text() == "keep me"
    assert not (tmp_path / "nodir").exists()


def test_cli_semidirect_then_action_round_trips(tmp_path, capsys):
    act = CAT.monoid_actions["zeroendo_b2_z2"]
    apath = save(act, tmp_path / "act.json")
    ppath = tmp_path / "sd.json"
    assert main(["semidirect", str(apath), "--out", str(ppath)]) == 0
    point = load_point(ppath)
    assert point == CAT.points["sd_zeroendo_b2_z2"]

    back = tmp_path / "back.json"
    assert main(["action", str(ppath), "--out", str(back)]) == 0
    assert load_action(back) == act
    capsys.readouterr()

    # the non-Schreier gate: no action can be extracted from diag_b2
    dpath = save(CAT.points["diag_b2"], tmp_path / "diag.json")
    assert main(["action", str(dpath)]) == 1
    assert "UniquenessFails" in capsys.readouterr().out


def test_cli_radjoint_mon_sections(tmp_path, capsys):
    hpath = save(Hom(B2, ZERO, (0, 0)), tmp_path / "h.json")
    apath = save(MonoidAction(B2, Z2, ((0, 1), (0, 0))), tmp_path / "act.json")
    base = ["radjoint", "mon", "--hom", str(hpath), "--action", str(apath)]
    assert main(base) == 0
    assert main(base + ["--section", "0"]) == 0
    assert main(base + ["--section", "1"]) == 1
    assert "comparison map is not injective" in capsys.readouterr().out
    assert main(base + ["--section", "0,0"]) == 2  # wrong length
    assert main(base + ["--section", "zero"]) == 2  # not integers
    # |M| ** |B| = 2 ** 1: the bound runs, one below it exits 2 naming the flag
    assert main(base + ["--guard-functions", "2"]) == 0
    capsys.readouterr()
    assert main(base + ["--guard-functions", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("GuardExceeded: cofree_mon: needs 2 ")
    assert "raise --guard-functions " in err


def test_cli_radjoint_srng(tmp_path, capsys):
    z2r = CAT.semirings["z2_ring"]
    hpath = save(identity_hom(z2r), tmp_path / "h.json")
    apath = save(CAT.semiring_actions["mul_z2r_z2r"], tmp_path / "act.json")
    out = tmp_path / "inv.json"
    assert main(["radjoint", "srng", "--hom", str(hpath),
                 "--action", str(apath), "--out", str(out)]) == 0
    assert "|R_h(X)|=2" in capsys.readouterr().out
    restricted = load_action(out)
    assert restricted.X.size == 2

    # monoid action handed to the semiring form is a structural error
    mpath = save(CAT.monoid_actions["triv_b2_z2"], tmp_path / "mact.json")
    bpath = save(identity_hom(B2), tmp_path / "bh.json")
    assert main(["radjoint", "srng", "--hom", str(bpath),
                 "--action", str(mpath)]) == 2
