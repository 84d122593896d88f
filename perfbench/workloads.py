"""The benchmark's workloads.

A workload is a list of operations.  One pass runs every operation of a
workload, in order, in one fresh interpreter, so that the process-global
caches of the package start empty, as they do for a user of the CLI.

An operation is ``(key, argv, check)``:

* ``key`` names the operation in ``expected.json``;
* ``argv`` is a ``schreierkit`` command line, or ``None`` for the library
  call ``suites.suite_roundtrip()``, which has no CLI subject;
* ``check`` is ``"full"`` (exit code, every verdict line and, for a search,
  the SHA-256 of its witness documents must match) or ``"deadline"`` (exit
  code, the ``result:`` status, and a replay of every witness; the examined
  count of a timed-out search depends on the machine's speed).

Every ``search`` also gets ``--seed`` with a per-pass seed drawn from the
benchmark's ``--seed``; the verdicts must not depend on it.
"""

from __future__ import annotations

# Far above the run time of any of these searches, so they always complete.
NO_TIMEOUT = "100000"
# Above the 296 witnesses of SSFLFailureOffClass on jt at max size 3, and far
# above what the 1 s deadline search finds, so only its clock can end it.
NO_WITNESS_CAP = "100000"


def _search(goal: str, variety: str, max_size: int) -> tuple[str, list[str], str]:
    out = f"{goal}-{variety}.json"
    argv = ["search", "--goal", goal, "--variety", variety,
            "--max-size", str(max_size), "--timeout", NO_TIMEOUT,
            "--max-witnesses", NO_WITNESS_CAP, "--json", out]
    return f"search {goal} {variety} {max_size}", argv, "full"


def _verify(subject: str) -> tuple[str, list[str], str]:
    return (f"verify {subject}",
            ["verify", subject, "--json", f"{subject}.report.json"], "full")


def _report(path: str) -> tuple[str, list[str], str]:
    return f"report {path}", ["report", path], "full"


def _sweep_replay():
    writers = [_verify(s) for s in ("protomodularity", "ssfl", "coherence",
                                    "ring-base")]
    readers = [("suite_roundtrip", None, "full")]
    for goal, variety, size in (
            ("NonSchreier", "mon", 4), ("NonSchreier", "srng", 4),
            ("NonSchreier", "jt", 3),
            ("KernelCoherenceFailure", "mon", 4),
            ("KernelCoherenceFailure", "srng", 4),
            ("SSFLFailureOffClass", "mon", 4),
            ("SSFLFailureOffClass", "srng", 4),
            ("SSFLFailureOffClass", "jt", 3)):
        writers.append(_search(goal, variety, size))
    written = [argv[argv.index("--json") + 1] for _, argv, _ in writers]
    return writers + readers + [_report(path) for path in written]


WORKLOADS = {
    "adjunction": [("verify adjunction", ["verify", "adjunction"], "full")],
    "jt-coherence": [_search("KernelCoherenceFailure", "jt", 3)],
    "sweep-replay": _sweep_replay(),
    "jt4-deadline": [(
        "search NonSchreier jt 4 timeout 1",
        ["search", "--goal", "NonSchreier", "--variety", "jt",
         "--max-size", "4", "--timeout", "1",
         "--max-witnesses", NO_WITNESS_CAP, "--json", "NonSchreier-jt4.json"],
        "deadline")],
}


def json_output(argv: list[str] | None) -> str | None:
    """The file an operation writes with --json, if any."""
    if argv and "--json" in argv:
        return argv[argv.index("--json") + 1]
    return None


def with_seed(argv: list[str] | None, seed: int) -> list[str] | None:
    if argv and argv[0] == "search":
        return argv + ["--seed", str(seed)]
    return argv
