"""The schreierkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
Each pass of the workload runs in a fresh interpreter (``child.py``), so the
package's process-global caches start cold, as they do for a CLI user.
Whole passes are run one after another (a closed loop with one client)
until ``--seconds`` have elapsed, so a pass longer than that runs once.
Every operation's outputs are checked against ``expected.json``; a mismatch
is counted in ``failed`` and the run goes on.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: ``wall_s`` and ``cpu_s`` (minimum over passes, first operation to
last verdict), ``setup_s`` (median over set-up probes and passes: interpreter
start, ``import schreierkit``, ``build_catalog()``) and ``peak_rss_mb``
(highest over passes).

The three times are given at a reference host speed.  On a shared machine
each vCPU runs slower or faster by up to 2x, in bursts of seconds and in
drifts over minutes.  So every child process times a fixed slice of
bytecode every 10 ms while it runs (the speed probe, ``child._probe``), and
its measured seconds are scaled by ``REF_PROBE_S`` over the mean probe time:
a pass that ran while the host was 1.5x slow reports two thirds of its
measured time.  The time a search spends running until its ``--timeout``
lasts as long on any host and is not scaled.  The probe does not use the
package, so a change to the package moves these times and not the scale.
Each pass's measured times and host speed are written to standard error.

With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass, plus ``trace.overhead_s``, the traced
``wall_s`` minus the untraced one; traced timings are not end-to-end
numbers.  The spans of the traced pass are written to
``perfbench/out/spans-<workload>.bin`` (format: ``Tracer.write_spans``).

Why these workloads and which layer metric should move which end-to-end
metric is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import layer_metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
SETUP_PROBES = 10  # at least this many set-up-only probes per run
PROBES_PER_PASS = 3  # of which this many run before each pass
# Every run must end within 180 s; a pass that takes longer is killed.
PASS_TIMEOUT_S = 170
# The speed-probe time that counts as reference speed: about the mean time of
# child._probe inside a pass on a shared 2-vCPU 2.1 GHz Xeon VM (Python 3.11)
# at its usual speed.  Any fixed value would do; commits are compared by ratios.
REF_PROBE_S = 5.5e-5


def at_ref_speed(seconds: float, probe_s: float, clocked_s: float = 0.0) -> float:
    """Measured seconds rescaled to a host on which the probe takes REF_PROBE_S.

    ``clocked_s`` of them were spent running a search until its --timeout, which
    lasts as long on any host, so that part is not rescaled.
    """
    return (seconds - clocked_s) * REF_PROBE_S / probe_s + clocked_s


def _scaled(p: dict, key: str) -> float:
    return at_ref_speed(p[key], p["probe_s"], p["clocked_s"])


def run_child(workload: str, seed: int, *, setup_only=False, trace=False,
              expected: Path = EXPECTED) -> dict:
    """Run one pass (or one set-up probe) in a fresh interpreter.

    The pass runs in a scratch directory under perfbench/out, so the files
    its operations write have the same relative names on every run; the
    directory is removed afterwards.
    """
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--expected", str(expected),
           "--trace", str(int(trace)),
           "--spans", str(OUT / f"spans-{workload}.bin")]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=work,
                              stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass of {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _report_passes(passes: list[dict]) -> None:
    for i, p in enumerate(passes):
        print(f"pass {i}: measured wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s; "
              f"host at {REF_PROBE_S / p['probe_s']:.3f}x the reference speed",
              file=sys.stderr)


def _report_failures(passes: list[dict]) -> None:
    for p in passes:
        for key, problems in p["failures"].items():
            print(f"FAILED {key}:", *problems, sep="\n  ", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float) -> dict:
    pass_seeds = random.Random(seed)
    run_child(workload, seed, setup_only=True)  # warm-up: compiles bytecode
    setups, passes = [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        setups += [run_child(workload, seed, setup_only=True)
                   for _ in range(PROBES_PER_PASS)]
        passes.append(run_child(workload, pass_seeds.randrange(2 ** 31)))
    setups += [run_child(workload, seed, setup_only=True)
               for _ in range(SETUP_PROBES - len(setups))]
    _report_passes(passes)
    _report_failures(passes)
    return {
        "passes": passes,
        "metrics": {
            "wall_s": (min(_scaled(p, "wall_s") for p in passes), "s"),
            "cpu_s": (min(_scaled(p, "cpu_s") for p in passes), "s"),
            "setup_s": (statistics.median(at_ref_speed(p["setup_s"], p["setup_probe_s"])
                                          for p in setups + passes), "s"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        },
    }


def trace(workload: str, seed: int) -> dict:
    pass_seed = random.Random(seed).randrange(2 ** 31)
    run_child(workload, seed, setup_only=True)  # warm-up: compiles bytecode
    plain = run_child(workload, pass_seed)
    traced = run_child(workload, pass_seed, trace=True)
    _report_passes([plain, traced])
    _report_failures([plain, traced])
    units = layer_metric_units()
    metrics = {name: (traced["layers"][name], unit) for name, unit in units.items()}
    metrics["trace.overhead_s"] = (_scaled(traced, "wall_s") - _scaled(plain, "wall_s"), "s")
    return {"passes": [plain, traced], "metrics": metrics}


def main() -> int:
    if not (ROOT / "src" / "schreierkit" / "__init__.py").is_file():
        print(f"benchmark: no package source under {ROOT / 'src'}; "
              "run from the root of a schreierkit checkout", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description="schreierkit benchmark")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        if args.trace:
            res = trace(args.workload, args.seed)
        else:
            res = measure(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    failed = sum(p["failed"] for p in res["passes"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in res["passes"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
