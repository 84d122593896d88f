"""Gate test for the benchmark itself (about four minutes).

    python3 perfbench/selfcheck.py

1. A deliberately wrong verdict line and a wrong witness digest in the oracle
   are each counted as a failed operation, and the pass still runs every
   operation.
2. Two traced runs report identical call and work counts on adjunction,
   jt-coherence and sweep-replay (jt4-deadline stops on a clock, so its
   counts vary).  They use one seed: the seed is written into every search
   result, so the serialized byte count depends on its number of digits.
3. In a directory that holds only BENCHMARK.json and the benchmark's files,
   the benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import EXPECTED, HERE, OUT, ROOT, run_child, trace


def wrong_oracle_is_counted() -> list[str]:
    oracle = json.loads(EXPECTED.read_text())
    sweep = oracle["sweep-replay"]
    sweep["verify ssfl"]["lines"][1] = "[  ok] ssfl[mon]  fibre morphisms=25"
    sweep["search NonSchreier mon 4"]["witness_sha256"] = "0" * 64
    OUT.mkdir(exist_ok=True)
    wrong = OUT / "wrong-expected.json"
    wrong.write_text(json.dumps(oracle))
    res = run_child("sweep-replay", 1, expected=wrong)
    problems = []
    if sorted(res["failures"]) != ["search NonSchreier mon 4", "verify ssfl"]:
        problems.append(f"wrong oracle: failures were {sorted(res['failures'])}")
    if res["attempted"] != 25:
        problems.append(f"wrong oracle: only {res['attempted']} of 25 operations ran")
    return problems


def counts_repeat() -> list[str]:
    problems = []
    for workload in ("adjunction", "jt-coherence", "sweep-replay"):
        first, second = (
            {k: v for k, (v, _) in trace(workload, 1)["metrics"].items()
             if not k.endswith("_s")}
            for _ in range(2))
        diff = sorted(k for k in first if first[k] != second[k])
        if diff:
            problems.append(f"{workload}: traced counts differ in {diff}")
        print(f"{workload}: {len(first)} counts compared", file=sys.stderr)
    return problems


def bare_checkout_fails() -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep-replay",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    problems = wrong_oracle_is_counted() + bare_checkout_fails() + counts_repeat()
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
