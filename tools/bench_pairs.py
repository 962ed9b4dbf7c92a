"""Paired benchmark runs of two revisions, written to one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --work DIR --out BENCH_N.json

Each revision (any tree-ish: a commit, or ``git write-tree`` of the staged
work) is unpacked by ``git archive`` into its own directory under ``DIR``.
For every workload that the change's ``BENCHMARK.json`` declares, pair ``i``
of ten runs ``bench/run.py --seed i --seconds <run_seconds> --trace 0`` once
on each side, one run at a time, the parent first on odd seeds and the change
first on even ones, so drift of the host falls on both sides alike.  The
output names both revisions and the git object ids of ``src``, ``bench`` and
``BENCHMARK.json`` on each side, so a later commit can be matched to the
measured code.  It keeps every run's result (the last line of standard
output) and ``info:`` line (standard error), and a summary per workload and
end-to-end metric: median, IQR (25th to 75th percentile, linear
interpolation), minimum and maximum per side, the number of pairs in which
the change reads better, in the direction ``BENCHMARK.json`` declares, and a
verdict from that direction and the metric's ``bound``, a share of the
parent's median (see ``verdict``); a change whose runs fail more
operations than the parent's gains nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
PROGRAM = ("src", "bench", "BENCHMARK.json")


def rev_parse(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def checkout(rev: str, dest: Path) -> dict:
    """Unpack ``rev`` into ``dest`` with ``git archive``; return its full id and those of its program paths."""
    ids = {"revision": rev_parse(rev), **{path: rev_parse(f"{rev}:{path}") for path in PROGRAM}}
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait():
        raise SystemExit(f"error: git archive {rev} failed")
    return ids


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run: its return code, result and ``info:`` line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd + ["--seconds", f"{seconds:g}", "--trace", "0"], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    info = [line[len("info: ") :] for line in proc.stderr.splitlines() if line.startswith("info: ")]
    return {
        "seed": seed,
        "returncode": proc.returncode,
        "result": json.loads(lines[-1]) if proc.returncode == 0 and lines else None,
        "info": json.loads(info[-1]) if info else None,
        "stderr_tail": None if proc.returncode == 0 else proc.stderr[-2000:],
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values * 3)
    return {"median": statistics.median(values), "iqr": q3 - q1, "min": min(values), "max": max(values), "runs": len(values)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's paired runs, judged in order:

    - ``gain``: the change wins at least 9 in 10 pairs, ties counting for
      neither, and its median is better by more than the parent's IQR;
    - ``regression``: its median is worse by more than ``bound`` times the
      parent's;
    - ``unresolved``: the parent's IQR is wider than that, and not every
      change run is better than every parent run;
    - ``unchanged``: otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = [sign * v for v in parent], [sign * v for v in change]  # lower is better on both
    lead = statistics.median(p) - statistics.median(c)
    iqr, slack = spread(p)["iqr"], bound * abs(statistics.median(p))
    if sum(b < a for a, b in zip(p, c)) >= 0.9 * len(p) and lead > iqr:
        return "gain"
    if -lead > slack:
        return "regression"
    if iqr > slack and max(c) >= min(p):
        return "unresolved"
    return "unchanged"


def summarize(runs: dict, better: dict, bounds: dict) -> dict:
    """Per metric: each side's spread, the pairs the change wins and its
    verdict, no ``gain`` where the change fails more operations."""
    results = {side: [r["result"] for r in runs[side]] for side in SIDES}
    summary = {"all_correct": all(r is not None and r["correct"] for side in SIDES for r in results[side])}
    summary["failed"] = {side: sum(r["failed"] for r in results[side] if r) for side in SIDES}
    more_failed = summary["failed"]["change"] > summary["failed"]["parent"]
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] if r else None for r in results[side]] for side in SIDES}
        pairs = [(p, c) for p, c in zip(values["parent"], values["change"]) if p is not None and c is not None]
        if not pairs:
            continue
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
        summary[name] = {side: spread([v for v in values[side] if v is not None]) for side in SIDES}
        summary[name].update(change_better_pairs=wins, pairs=len(pairs))
        judged = verdict(*zip(*pairs), direction, bounds[name])
        summary[name]["verdict"] = "unchanged" if judged == "gain" and more_failed else judged
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--work", required=True, type=Path, help="an empty or missing directory for the checkouts")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    if args.work.exists() and any(args.work.iterdir()):
        raise SystemExit(f"error: {args.work} is not empty")
    trees = {side: args.work / side for side in SIDES}
    revs = {side: checkout(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]

    report = {
        "what": (
            f"bench/run.py --seconds {seconds:g} --trace 0, {PAIRS} alternating pairs per workload (seeds 1 to"
            f" {PAIRS}, the parent first on odd seeds), each side from its own git archive checkout, one run at a"
            " time; written by tools/bench_pairs.py."
        ),
        "revisions": revs,
        "host": {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": version("numpy")},
        "summary": {},
        "runs": {side: {} for side in SIDES},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        runs = {side: [] for side in SIDES}
        for seed in range(1, PAIRS + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed, seconds))
                print(f"{workload} seed {seed} {side}: {json.dumps(runs[side][-1]['result'])}", file=sys.stderr)
        report["summary"][workload] = summarize(runs, better, bounds)
        for side in SIDES:
            report["runs"][side][workload] = runs[side]
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
