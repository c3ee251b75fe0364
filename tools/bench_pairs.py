"""Write ``BENCH_<n>.json``: paired end-to-end runs of a parent commit and
the working tree.

    python3 tools/bench_pairs.py --number 25 --seed 2501 --pairs 10 --tier1 3 \
        --change "what the change does"

Run from anywhere inside the repository; it needs only the standard library
and ``git``.  The parent commit's files (``--parent``, default ``HEAD``) are
unpacked with ``git archive`` into a fresh directory (under ``--scratch`` if
given), so the repository itself is left as it is.  For each workload of
``BENCHMARK.json``, pair k runs ``python3 perfbench/run.py --workload W
--seed <seed + k> --seconds S --trace 0``, S being its ``run_seconds``, once
in each tree, the parent first in even pairs and the change first in odd
ones, and reads the JSON object on the last line of its output.  With
``--tier1 K`` the Tier-1 suite then runs K times per side, alternating, and
its wall times are recorded.  ``--extra`` names a JSON file of measurements
taken by hand; it goes in whole under ``hand_measured``, so it cannot
replace anything the tool measured.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(commit: str, into: Path) -> Path:
    """The committed files of ``commit`` in a new directory under ``into``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                          check=True, capture_output=True).stdout
    tree = Path(tempfile.mkdtemp(prefix="bench-parent-", dir=into))
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def perf_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": median, "q1": q1, "q3": q3}


def better(change: float, parent: float, sense: str) -> bool:
    return change < parent if sense == "lower" else change > parent


def compare(metric: dict, parent_runs: list, change_runs: list) -> dict:
    """One end-to-end metric over the pairs, in the layout of BENCH_24.json."""
    parent, change = quartiles(parent_runs), quartiles(change_runs)
    sense, bound = metric["better"], metric["bound"]
    limit = parent["median"] * (1 + bound if sense == "lower" else 1 - bound)
    return {
        "unit": metric["unit"], "better": sense, "bound": bound,
        "parent": parent, "change": change,
        "change_over_parent": change["median"] / parent["median"],
        "pairs_change_better": sum(better(c, p, sense)
                                   for p, c in zip(parent_runs, change_runs)),
        "within_bound": (change["median"] <= limit if sense == "lower"
                         else change["median"] >= limit),
        # A gain counts only if the medians differ by more than the parent's spread.
        "beyond_parent_iqr": abs(change["median"] - parent["median"])
                             > parent["q3"] - parent["q1"],
        "parent_runs": parent_runs, "change_runs": change_runs,
    }


def tier1(tree: Path) -> tuple[float, int]:
    """Wall seconds and passed-test count of one Tier-1 run in ``tree``."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    passed = re.search(r"(\d+) passed", done.stdout)
    if done.returncode != 0 or passed is None:
        raise RuntimeError(f"Tier-1 failed in {tree}:\n{done.stdout[-3000:]}")
    return round(wall, 1), int(passed.group(1))


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (tree / "src").rglob("*.py"))


def environment() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    names = re.findall(r"^model name\s*:\s*(.*)$",
                       cpuinfo.read_text() if cpuinfo.is_file() else "", re.M)
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpu": names[0] if names else platform.processor() or "unknown", "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy or "unknown",
            "probe_threads": min(2, nproc or 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--tier1", type=int, default=0, help="Tier-1 runs per side")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--extra", default=None,
                        help="JSON file of hand measurements, kept under hand_measured")
    parser.add_argument("--scratch", default=None, help="where the parent's files go")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent_commit = git("rev-parse", args.parent)
    holder = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch))
    trees = {"parent": unpack(parent_commit, holder), "change": ROOT}
    out = {"bench": args.number, "change": args.change, "parent_commit": parent_commit,
           "change_commit": "the commit that adds this file (its parent_commit plus this change)",
           "method": {
               "end_to_end": (f"python3 perfbench/run.py --workload W --seed S --seconds "
                              f"{seconds:g} --trace 0, on the parent's files unpacked by "
                              "git archive and on the change's working tree; pairs alternate "
                              "which side runs first and both sides of a pair use the same "
                              "seed (tools/bench_pairs.py)"),
               "quartiles": "statistics.quantiles(method='inclusive') over the runs of one side",
           },
           "environment": environment(), "pairs": {},
           "operations": {"attempted": 0, "failed": 0}, "end_to_end": {}}
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            seeds = [args.seed + k for k in range(args.pairs)]
            firsts = [SIDES[k % 2] for k in range(args.pairs)]
            runs = {side: [] for side in SIDES}
            for seed, first in zip(seeds, firsts):
                for side in (first, SIDES[first == "parent"]):
                    result = perf_run(trees[side], workload, seed, seconds)
                    out["operations"]["attempted"] += result["attempted"]
                    out["operations"]["failed"] += result["failed"]
                    runs[side].append(result["metrics"])
                    print(f"{workload} seed {seed} {side}: "
                          f"{result['metrics']['wall_s']['value']:.4f} s", flush=True)
            out["pairs"][workload] = {"seeds": seeds, "pairs": args.pairs, "first_side": firsts}
            out["end_to_end"][workload] = {
                m["name"]: compare(m, *([r[m["name"]]["value"] for r in runs[side]]
                                        for side in SIDES))
                for m in spec["end_to_end"]}
        if args.tier1:
            walls = {side: [] for side in SIDES}
            tests = {}
            for _ in range(args.tier1):
                for side in SIDES[::-1]:
                    wall, tests[side] = tier1(trees[side])
                    walls[side].append(wall)
            out["tier1_wall_s"] = {**walls, "tests": tests,
                                   "order": ", ".join(SIDES[::-1] * args.tier1)}
        out["src_lines"] = {"src": {side: src_lines(trees[side]) for side in SIDES}}
    finally:
        shutil.rmtree(holder, ignore_errors=True)
    if args.extra:
        out["hand_measured"] = json.loads(Path(args.extra).read_text())
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
