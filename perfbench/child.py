"""One pass of a workload, in the fresh interpreter it needs.

Started by run.py, never imported.  With ``--setup-only`` it measures set-up
and exits.  Otherwise it runs every operation of the workload in order
(traced with ``--trace 1``), then checks each operation's outputs against
the oracle, and prints one JSON line with the pass's figures.

Set-up is interpreter start (``--t0``, a ``time.monotonic`` reading taken by
the parent just before it started this process; the clock is system-wide),
``import schreierkit`` and ``build_catalog()``.  ``wall_s`` and ``cpu_s``
run from the first operation to the last verdict; the checks come after.

While set-up and the operations run, a timer signal runs a fixed slice of
bytecode (the speed probe, `_probe`) every ``PROBE_INTERVAL_S`` and times
it.  The mean probe time says how fast the host ran this process over that
same stretch; ``setup_probe_s`` and ``probe_s`` report it for the two phases.
``clocked_s`` is the time the deadline searches ran against their clock.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, json_output, with_seed

ROOT = Path(__file__).resolve().parent.parent
# How long a search ran against its --timeout clock, as the CLI prints it.
CLOCK_LINE = re.compile(r"^examined: \d+ instances in ([0-9.]+)s$", re.M)
PROBE_INTERVAL_S = 0.01  # under 1% of the pass goes to the probe
_probe_times: list[float] = []
# The probe reads one cached row 1,500 times.  It allocates nothing the
# garbage collector tracks, so what the package has allocated does not change
# its work.  A probe that built a dict of tuples on each call tracked the
# speed of a pass less well.
_PROBE_ROWS = [(1,)]
_PROBE_STEPS = [0] * 1_500


def _probe() -> int:
    """A fixed slice of bytecode (about 0.06 ms) that does not use the package."""
    rows, total = _PROBE_ROWS, 0
    for i in _PROBE_STEPS:
        total += rows[i][0]
    return total


def _on_timer(signum, frame) -> None:
    t0 = time.perf_counter()
    _probe()
    _probe_times.append(time.perf_counter() - t0)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)  # one-shot: never nests


def _start_probes() -> None:
    _probe_times.clear()
    signal.signal(signal.SIGALRM, _on_timer)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)


def _stop_probes() -> float:
    """Stop the timer; the mean probe time since `_start_probes`."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    if not _probe_times:  # a phase shorter than one interval: time one probe now
        t0 = time.perf_counter()
        _probe()
        _probe_times.append(time.perf_counter() - t0)
    return sum(_probe_times) / len(_probe_times)


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _cold_import():
    """Import the package from this checkout and prove its caches are cold."""
    if "schreierkit" in sys.modules:
        raise SystemExit("benchmark: schreierkit was imported before the pass began")
    sys.path.insert(0, str(ROOT / "src"))
    import schreierkit
    import schreierkit.cli
    from schreierkit import algebra
    if Path(schreierkit.__file__).resolve().parent != ROOT / "src" / "schreierkit":
        raise SystemExit(f"benchmark: imported schreierkit from {schreierkit.__file__}")
    for cached in (algebra._homs_core, algebra.generating_set):
        if cached.cache_info().currsize:
            raise SystemExit(f"benchmark: {cached.__name__} cache is not empty "
                             "at the start of the pass")
    return schreierkit


def _witness_digest(witnesses) -> str:
    docs = sorted(json.dumps(w, sort_keys=True, separators=(",", ":"))
                  for w in witnesses)
    return hashlib.sha256("\n".join(docs).encode()).hexdigest()


def observe(argv, code, stdout: str, check: str) -> dict:
    """What the oracle compares for one operation, as recorded at this commit.

    Search lines drop the elapsed time; a deadline search keeps only its
    exit code and ``result:`` status, since how far it gets depends on speed.
    """
    obs: dict = {"exit": code}
    lines = stdout.splitlines()
    if check == "deadline":
        obs["result"] = lines[-1].split(",")[0] if lines else ""
        obs["replay"] = True
        return obs
    if argv and argv[0] == "search":
        lines = [re.sub(r" in [0-9.]+s$", "", line) for line in lines]
    obs["lines"] = lines
    return obs


def check_op(expected: dict, argv, code, stdout: str, check: str,
             replay_witness) -> list[str]:
    """Differences between an operation's outputs and its oracle entry."""
    got = observe(argv, code, stdout, check)
    problems = []
    for key in ("exit", "result", "lines"):
        if key in expected and expected[key] != got.get(key):
            problems.append(f"{key}: expected {expected[key]!r}, got {got.get(key)!r}")
    out = json_output(argv)
    if out and argv[0] == "search":
        witnesses = json.loads(Path(out).read_text(encoding="utf-8"))["witnesses"]
        if "witness_sha256" in expected:
            digest = _witness_digest(witnesses)
            if digest != expected["witness_sha256"]:
                problems.append(f"witness_sha256: expected {expected['witness_sha256']}, "
                                f"got {digest}")
        if expected.get("replay"):
            for i, w in enumerate(witnesses):
                if replay_witness(w) != w["verdict"]:
                    problems.append(f"witness {i} does not replay to {w['verdict']!r}")
    return problems


def run_pass(args) -> dict:
    _start_probes()
    pkg = _cold_import()
    pkg.build_catalog()
    setup_s = time.monotonic() - args.t0
    setup_probe_s = _stop_probes()
    if args.setup_only:
        return {"setup_s": setup_s, "setup_probe_s": setup_probe_s}

    from schreierkit import cli, replay_witness, suites
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    ops = WORKLOADS[args.workload]
    runs = []
    _start_probes()
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    for i, (key, argv, check) in enumerate(ops):
        argv = with_seed(argv, args.seed)
        if tracer:
            tracer.op = i
        buf = io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(buf):
                if argv is None:
                    rep = suites.suite_roundtrip()  # looked up now, so tracing sees it
                    print(rep.render_text(), end="")
                    code = 0 if rep.ok else 1
                else:
                    code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            error = f"exit {exc.code}"
        except Exception:  # count the failure and go on with the next operation
            error = traceback.format_exc()
        runs.append((key, argv, check, code, buf.getvalue(), error))
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0
    probe_s = _stop_probes()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.write_spans(args.spans)

    oracle = json.loads(Path(args.expected).read_text(encoding="utf-8"))
    oracle = oracle.get(args.workload, {})
    failures = {}
    for key, argv, check, code, stdout, error in runs:
        if error is not None:
            failures[key] = [error]
        elif key not in oracle:
            failures[key] = ["no expected outputs in the oracle"]
        else:
            try:
                problems = check_op(oracle[key], argv, code, stdout, check,
                                    replay_witness)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                failures[key] = problems
    clocked_s = 0.0
    for _, _, check, _, stdout, _ in runs:
        clock = CLOCK_LINE.search(stdout) if check == "deadline" else None
        if clock:
            clocked_s += float(clock.group(1))
    result = {"setup_s": setup_s, "setup_probe_s": setup_probe_s,
              "wall_s": wall_s, "cpu_s": cpu_s, "probe_s": probe_s,
              "clocked_s": clocked_s,
              "peak_rss_mb": peak_rss_mb, "attempted": len(runs),
              "failed": len(failures), "failures": failures}
    if tracer:
        result["layers"] = tracer.metrics()
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--expected", help="oracle file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    result = run_pass(ap.parse_args())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
