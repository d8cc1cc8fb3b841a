"""Throughput gate: the change's engine speed against its parent's.

Usage, from the change's checkout, with the parent commit checked out
in another directory (CI uses a worktree of ``HEAD^``)::

    python3 tests/perf_smoke/throughput_gate.py PARENT_TREE

Runs the repository benchmark's ``engine_paper`` workload
(``perfbench/run.py --workload engine_paper --seed 1 --seconds 10
--trace 0``) in the parent's tree and in this one, as three pairs that
alternate which side goes first, so a host that speeds up or slows
down mid-gate does not favour one side.  Each side measures its own
``src/``: perfbench imports the program from the tree it sits in and
refuses any other copy.  Both sides run on the same host, minutes
apart, so no committed numbers are needed and none go stale.

Exits non-zero when the change's median ``live_qps`` or ``replay_qps``
is worse than the parent's by more than that metric's bound in
``BENCHMARK.json``, or when any run exits non-zero or reports
``correct: false``.  :func:`decide` makes that call from the runs'
result lines alone; the rest of the script runs the pairs.

The other end-to-end metrics (``read_s``, ``setup_s``,
``peak_rss_mb``) move too much between two runs of the same code on a
shared host for three pairs to judge; the full benchmark covers them.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: The gated metrics; their direction and bound come from BENCHMARK.json.
GATED = ("live_qps", "replay_qps")
PAIRS = 3
COMMAND = (
    "perfbench/run.py", "--workload", "engine_paper", "--seed", "1",
    "--seconds", "10", "--trace", "0",
)


def decide(parent: list[dict], change: list[dict], metrics: dict) -> list[str]:
    """Why the change fails the gate (an empty list means it passes).

    ``parent`` and ``change`` hold one perfbench result per run: the
    JSON object its last output line prints (``correct`` and
    ``metrics``), plus the run's ``exit`` status.  ``metrics`` maps
    each gated name to its ``BENCHMARK.json`` entry (``better`` is
    ``"higher"`` or ``"lower"``, ``bound`` the largest allowed relative
    worsening of the change's median against the parent's).
    """
    problems = []
    for side, runs in (("parent", parent), ("change", change)):
        if not runs:
            problems.append(f"{side}: no runs")
        for number, run in enumerate(runs, 1):
            if run.get("exit", 0) != 0 or run.get("correct") is not True:
                problems.append(
                    f"{side} run {number} failed "
                    f"(exit {run.get('exit', 0)}, correct {run.get('correct')})"
                )
    if problems:
        return problems
    for name, spec in metrics.items():
        try:
            before = _median(parent, name)
            after = _median(change, name)
        except KeyError:
            problems.append(f"{name}: missing from a run's metrics")
            continue
        worse = (after - before) / before
        if spec["better"] == "higher":
            worse = -worse
        if worse > spec["bound"]:
            problems.append(
                f"{name}: change median {after:.6g} is {worse:.1%} worse "
                f"than parent median {before:.6g} (bound {spec['bound']:.0%})"
            )
    return problems


def _median(runs: list[dict], name: str) -> float:
    return statistics.median(run["metrics"][name]["value"] for run in runs)


def gated_metrics() -> dict:
    """The ``end_to_end`` entries of ``BENCHMARK.json`` for :data:`GATED`."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = {entry["name"]: entry for entry in declared["end_to_end"]}
    return {name: entries[name] for name in GATED}


def run_once(tree: Path) -> dict:
    """One benchmark run in ``tree``: its result line and exit status."""
    done = subprocess.run(
        [sys.executable, *COMMAND], cwd=tree, capture_output=True, text=True
    )
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    result["exit"] = done.returncode
    if done.returncode or result.get("correct") is not True:
        # The failed checks are in the run's report, before its last line.
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / COMMAND[0]).is_file():
        print("usage: throughput_gate.py PARENT_TREE (a checkout of the "
              "parent commit)", file=sys.stderr)
        return 2
    sides = {"parent": Path(argv[0]).resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(1, PAIRS + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_once(sides[side])
            runs[side].append(result)
            values = "  ".join(
                f"{name} {result.get('metrics', {}).get(name, {}).get('value')}"
                for name in GATED
            )
            print(f"pair {pair} {side:<6} exit {result['exit']}  {values}",
                  flush=True)
    problems = decide(runs["parent"], runs["change"], gated_metrics())
    for problem in problems:
        print(f"THROUGHPUT GATE: {problem}")
    if problems:
        return 1
    for name in GATED:
        before = _median(runs["parent"], name)
        after = _median(runs["change"], name)
        print(f"{name}: parent median {before:.6g}, change median "
              f"{after:.6g} ({after / before - 1:+.1%})")
    print(f"throughput gate passed: {' and '.join(GATED)} within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
