"""The names the benchmark's tracer and child process reach into.

perfbench/tracer.py wraps the functions its TARGETS name, and its counters
read their arguments by position and parameter name; perfbench/child.py
checks that the hom caches start cold.  A refactor that renames any of these
breaks every benchmark pass, so this test pins them.  It reads tracer.py
without writing anything under perfbench/.  One untraced pass each of
the sweep-replay, jt-coherence and jt4-deadline workloads also runs end to
end, checked against the oracle the benchmark uses.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from schreierkit import algebra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ next to tracer.py
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _target(name: str):
    mod_name, fn_name = name.split(".")
    return getattr(importlib.import_module(f"schreierkit.{mod_name}"), fn_name)


def _argument_reads(tracer) -> dict[str, list[tuple[int, str]]]:
    """For each _count_<fn> method, the (position, name) pairs it passes to _arg."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_count_"):
            reads[node.name[len("_count_"):]] = [
                (call.args[2].value, call.args[3].value)
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"]
    return reads


def test_every_target_resolves(tracer):
    for name in tracer.SPAN_NAMES:
        obj = _target(name)
        if inspect.isclass(obj):
            assert "__init__" in obj.__dict__, name
        else:
            assert callable(obj), name


def test_counters_read_parameters_the_targets_take(tracer):
    reads = _argument_reads(tracer)
    assert reads  # the parse found the counters
    checked = 0
    for name in tracer.SPAN_NAMES:
        fn_name = name.split(".")[1]
        if fn_name not in reads:
            continue
        params = list(inspect.signature(_target(name)).parameters)
        for position, param in reads[fn_name]:
            assert params[position] == param, (name, position, param)
            checked += 1
    assert checked == 8  # a, b, a1, a2, h, F, p, doc


def test_hom_caches_and_candidate_count_exist():
    assert callable(algebra.hom_candidate_count)
    for cached in (algebra._homs_core, algebra.generating_set):
        assert cached.cache_info().maxsize is None


def _one_pass(tmp_path, workload: str) -> dict:
    # The pass writes its JSON files into cwd; with no bytecode written,
    # nothing lands under perfbench/ or src/.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--workload", workload,
         "--seed", "0", "--expected", str(PERFBENCH / "expected.json"),
         "--t0", repr(time.monotonic())],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300)
    assert proc.returncode == 0, (
        f"child.py exited {proc.returncode}; stderr tail:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == {}
    return result


def test_one_sweep_replay_pass_matches_the_oracle(tmp_path):
    result = _one_pass(tmp_path, "sweep-replay")
    assert result["failed"] == 0 and result["attempted"] == 25


def test_one_jt_coherence_pass_matches_the_oracle(tmp_path):
    result = _one_pass(tmp_path, "jt-coherence")
    assert result["failed"] == 0 and result["attempted"] == 1


def test_one_jt4_deadline_pass_matches_the_oracle(tmp_path):
    # the oracle checks the exit code, the "timed out" status and that every
    # witness replays
    result = _one_pass(tmp_path, "jt4-deadline")
    assert result["failed"] == 0 and result["attempted"] == 1
