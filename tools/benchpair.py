"""Compare two checkouts on the benchmark, in alternating pairs of runs.

    python3 tools/benchpair.py PARENT CHANGE [--pairs 10] [--seed 1]
        [--workload NAME ...] [--logs DIR]

PARENT and CHANGE are roots of two schreierkit checkouts.  For each
workload, pair i runs ``perfbench/run.py --seed SEED+i --trace 0`` of each
checkout once, from that checkout's root and unchanged, for the
``run_seconds`` of the change's BENCHMARK.json; the side that runs
first alternates from pair to pair, so a drift in host speed falls on both
sides alike.  Each run's standard error is kept in ``--logs``.

Printed per workload: every run's end-to-end metrics, the median of each
metric per side, how many pairs each side won (the metric's ``better``
direction comes from the change's BENCHMARK.json), and the exit code and
the tail of standard error of every run that printed no result line.
Standard library only; not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
TAIL_LINES = 15


def _run(tree: Path, workload: str, seed: int, seconds: float, log: Path) -> dict:
    """One run of the checkout's own perfbench/run.py; its result line or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    log.write_text(proc.stderr, encoding="utf-8")
    result = None
    lines = proc.stdout.splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or "metrics" not in result:
        result = None
    return {"seed": seed, "code": proc.returncode, "result": result,
            "log": log, "tail": proc.stderr.splitlines()[-TAIL_LINES:]}


def _values(run: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in run["result"]["metrics"].items()}


def _compare(workload: str, runs: dict[str, list[dict]], better: dict[str, str]) -> None:
    print(f"== {workload}")
    for i, (p, c) in enumerate(zip(*(runs[s] for s in SIDES))):
        for side, run in zip(SIDES, (p, c)):
            if run["result"] is None:
                shown = f"no result line (exit {run['code']})"
            else:
                shown = (f"failed={run['result']['failed']} "
                         + " ".join(f"{k}={v:.4g}" for k, v in _values(run).items()))
            print(f"  pair {i} seed {run['seed']} {side:6}: {shown}")
    names = sorted({k for side in SIDES for r in runs[side] if r["result"]
                    for k in _values(r)})
    for name in names:
        medians = {}
        for side in SIDES:
            vals = [_values(r)[name] for r in runs[side] if r["result"]]
            medians[side] = statistics.median(vals) if vals else float("nan")
        wins = dict.fromkeys(SIDES, 0)
        for p, c in zip(*(runs[s] for s in SIDES)):
            if p["result"] is None or c["result"] is None:
                continue
            vp, vc = _values(p)[name], _values(c)[name]
            if vp != vc:
                lower = vc < vp
                wins["change" if lower == (better.get(name, "lower") == "lower")
                     else "parent"] += 1
        change = (medians["change"] / medians["parent"] - 1) * 100 if medians["parent"] else 0.0
        print(f"  {name:12} median parent {medians['parent']:.4g}  change "
              f"{medians['change']:.4g}  ({change:+.1f}%)  pairs won: parent "
              f"{wins['parent']}, change {wins['change']}")
    for side in SIDES:
        for run in runs[side]:
            if run["result"] is None:
                print(f"  {side} seed {run['seed']}: exit {run['code']}, no result line; "
                      f"stderr tail ({run['log']}):")
                for line in run["tail"]:
                    print(f"    {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="a workload to compare (repeatable); default: every one")
    ap.add_argument("--logs", type=Path, help="directory for the runs' stderr")
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"benchpair: {tree} has no perfbench/run.py", file=sys.stderr)
            return 2
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    logs = args.logs or Path(tempfile.mkdtemp(prefix="benchpair-"))
    logs.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                log = logs / f"{workload}-{seed}-{side}.err"
                runs[side].append(_run(trees[side], workload, seed, spec["run_seconds"],
                                       log))
        _compare(workload, runs, better)
        sys.stdout.flush()
    print(f"stderr of every run: {logs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
