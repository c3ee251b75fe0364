"""Benchmark of the ``lab`` pipelines: one workload per process, closed loop.

    python3 perfbench/run.py --workload flatten_pp --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each operation writes a seeded INI config and
calls ``diffeolab.cli.main`` on it, one experiment at a time; the next starts
only after the previous one returns.  ``--trace 0`` repeats the workload's
operations for ``--seconds`` seconds and reports the end-to-end metrics;
``--trace 1`` runs them once untraced and once traced and reports the
per-layer metrics.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
including CSV digests and the environment, goes to ``perfbench/results/``.
The end-to-end times are scaled by the host speed measured around each
operation (see ``hostspeed.py``).  See ``perfbench/README.md`` for the metric
definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, aggregate, self_times
from workloads import WORKLOADS, build_setup, check_output, flatten_levels, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
PINNED = HERE / "pinned_csv_sha256.json"
#: The seed whose CSV digests are pinned in ``pinned_csv_sha256.json``.
DEFAULT_SEED = 0
SETUP_REPEATS = 20


@dataclass
class OpRun:
    name: str
    status: int | None
    seconds: float
    out: Path
    errors: list = field(default_factory=list)
    csv_sha256: dict = field(default_factory=dict)
    words: int = 0
    #: ``seconds`` scaled to the reference host speed (timed runs only).
    scaled: float | None = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def record(self) -> dict:
        return {"op": self.name, "status": self.status, "seconds": self.seconds,
                "scaled_seconds": self.scaled, "errors": self.errors, "words": self.words,
                "csv_sha256": self.csv_sha256}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def set_up(workload: str):
    """Import diffeolab afresh and build the workload's generators
    ``SETUP_REPEATS`` times.  Returns (package, median scaled seconds, record).

    numpy is imported once beforehand and stays loaded; every other module
    that the first import pulls in is dropped again before each repeat.
    Each repeat is scaled by the host speed measured just before and after it.
    """
    start = time.perf_counter()
    import numpy  # noqa: F401  (a C extension cannot be imported twice)
    numpy_s = time.perf_counter() - start
    import hostspeed
    src = ROOT / "src"
    if not (src / "diffeolab" / "__init__.py").is_file():
        raise ImportError(f"no diffeolab package under {src}")
    sys.path.insert(0, str(src))
    baseline = set(sys.modules)
    times, scaled = [], []
    before = hostspeed.reference()
    for _ in range(SETUP_REPEATS):
        for name in set(sys.modules) - baseline:
            del sys.modules[name]
        start = time.perf_counter()
        dl = importlib.import_module("diffeolab")
        importlib.import_module("diffeolab.cli")
        build_setup(workload, dl)
        times.append(time.perf_counter() - start)
        after = hostspeed.reference()
        scaled.append(hostspeed.scale(times[-1], before, after))
        before = after
    if not Path(dl.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"diffeolab was imported from {dl.__file__}, not {src}")
    return dl, statistics.median(scaled), {"numpy_import_s": numpy_s,
                                           "import_and_build_s": times,
                                           "scaled_s": scaled}


def execute(dl, op, work: Path, tag: str, extra=()):
    """Run one operation through ``lab``; returns (status, seconds, error, out)."""
    cfg = work / f"{op.name}.ini"
    cfg.write_text(op.ini)
    out = work / tag / op.name
    shutil.rmtree(out, ignore_errors=True)
    argv = [op.command, "--config", str(cfg), "--out", str(out), *extra]
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = dl.cli.main(argv)
    except Exception:
        status, error = None, traceback.format_exc(limit=4)
    return status, time.perf_counter() - start, error, out


def verify(dl, op, status, seconds, error, out: Path) -> OpRun:
    """Check an operation's CSVs and digest them; never inside a timed region."""
    run = OpRun(op.name, status, seconds, out)
    if status != 0:
        run.errors.append(f"exit status {status}" + (f": {error}" if error else ""))
    else:
        try:
            run.errors += check_output(op, out, dl)
        except Exception:
            run.errors.append("check raised: " + traceback.format_exc(limit=4))
    run.csv_sha256 = {p.name: _sha256(p) for p in sorted(out.glob("*.csv"))}
    run.words = op.words
    return run


def run_pass(dl, ops, work: Path, tag: str) -> list[OpRun]:
    return [verify(dl, op, *execute(dl, op, work, tag)) for op in ops]


def scaled_pass(dl, ops, work: Path, tag: str, threads: int) -> list[OpRun]:
    """One pass with each operation's time also scaled by the host speed,
    measured on the operations' ``threads`` right before and right after it."""
    import hostspeed

    runs = []
    for op in ops:
        before = hostspeed.reference(threads)
        result = execute(dl, op, work, tag)
        after = hostspeed.reference(threads)
        run = verify(dl, op, *result)
        run.scaled = hostspeed.scale(run.seconds, before, after)
        runs.append(run)
    return runs


def timed_metrics(passes: list[list[OpRun]], setup_s: float) -> dict:
    seconds = {}
    for runs in passes:
        for r in runs:
            seconds.setdefault(r.name, []).append(r.scaled)
    median = {name: statistics.median(ts) for name, ts in seconds.items()}
    words = {r.name: r.words for r in passes[0] if r.words}
    return {
        "setup_s": setup_s,
        "wall_s": sum(median.values()),
        "words_per_s": (sum(words.values()) / sum(median[n] for n in words)
                        if words else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def kernel_sweep(dl, seed: int) -> dict:
    """ns per point of value, deriv and inverse for each family on 10^5 points."""
    import numpy as np

    f = dl.build_pp().generators[0]
    maps = {"mobius": dl.mobius("m", 2.0), "polybump": dl.polybump("p", 1.5),
            "spline": f, "blend": dl.blend("b", f, 0.5)}
    xs = np.random.default_rng(seed).random(100_000)
    out = {}
    for family, g in maps.items():
        for op in ("value", "deriv", "inverse"):
            fn = getattr(g, op)
            fn(xs)
            times = []
            for _ in range(5):
                start = time.perf_counter()
                fn(xs)
                times.append(time.perf_counter() - start)
            out[f"generators.{family}.{op}.ns_per_point"] = (
                statistics.median(times) * 1e9 / xs.size)
    out["generators.spline.inverse_over_value"] = (
        out["generators.spline.inverse.ns_per_point"]
        / out["generators.spline.value.ns_per_point"])
    return out


def layer_metrics(agg, traced: list[OpRun]) -> dict:
    v = {}
    for op in ("value", "deriv", "inverse"):
        a = agg[f"generators.{op}"]
        v[f"generators.{op}.calls"] = a["calls"]
        v[f"generators.{op}.points"] = a["count"]
        v[f"generators.{op}.self_s"] = a["self_s"]
    v["generators.scalar_calls"] = sum(agg[f"generators.{op}"]["scalar_calls"]
                                       for op in ("value", "deriv", "inverse"))
    for name, counts in (("words.sphere_levels", ("calls", "words")),
                         ("words.level_word", ("calls",)),
                         ("action.word_values", ("calls", "letter_points")),
                         ("action.apply_word", ("calls", "letters")),
                         ("zassenhaus.wreath_normal_form", ("calls",)),
                         ("certify.check_endpoint_slopes", ("calls",))):
        a = agg[name]
        for key in counts:
            v[f"{name}.{key}"] = a["calls"] if key == "calls" else a["count"]
        v[f"{name}.self_s"] = a["self_s"]
    for name in ("action.c0_dist_to_id", "action.c1_dist_to_id", "action.probe_ball",
                 "certify.check_pingpong", "certify.scan_endpoint_delta",
                 "zassenhaus.flatten", "zassenhaus.find_escape_word",
                 "zassenhaus.choose_case", "zassenhaus.transport",
                 "zassenhaus.collision", "zassenhaus.build_wreath_pair",
                 "cli.run_experiment", "cli.load_config", "reports.emit"):
        v[f"{name}.self_s"] = agg[name]["self_s"]
    v["zassenhaus.flatten.escape_letters"] = agg["zassenhaus.find_escape_word"]["count"]
    levels = candidates = accepted = paired = 0
    for r in traced:
        if r.name.startswith("flatten") and r.ok:
            n, c, a, p = flatten_levels(r.out)
            levels, candidates, accepted, paired = (
                levels + n, candidates + c, accepted + a, paired + p)
    v["zassenhaus.flatten.levels"] = levels
    v["zassenhaus.flatten.candidates"] = candidates
    v["zassenhaus.flatten.accept_ratio"] = accepted / paired if paired else 0.0
    v["reports.bytes"] = sum(p.stat().st_size for r in traced
                             for p in r.out.glob("*.csv"))
    return v


def span_accounting(name: str, seconds: float, threads, main_tid: int) -> dict:
    """How the operation's main-thread time splits over its root spans."""
    roots = {"cli.run_experiment": 0.0, "cli.load_config": 0.0}
    self_sum = 0.0
    for tid, spans in threads:
        if tid != main_tid:
            continue
        self_sum += sum(self_times(spans))
        for span in spans:
            if span[3] == -1:
                roots[span[0]] = roots.get(span[0], 0.0) + span[2] - span[1]
    return {"op": name, "wall_s": seconds, "self_sum_s": self_sum,
            "root_s": roots, "outside_spans_s": seconds - sum(roots.values())}


def digests(runs: list[OpRun]) -> dict:
    return {f"{r.name}/{csv}": d for r in runs for csv, d in r.csv_sha256.items()}


def csv_changes(workload: str, runs: list[OpRun]) -> int:
    """CSV files whose digest differs from the pinned default-seed digest."""
    produced = digests(runs)
    pinned = json.loads(PINNED.read_text()).get(workload, {}) if PINNED.is_file() else {}
    return sum(produced.get(k) != pinned.get(k) for k in set(produced) | set(pinned))


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(seed: int, threads: int) -> dict:
    import numpy

    return {"nproc": nproc(), "threads": threads, "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit()}


def timed_run(dl, args, ops, work: Path, record: dict, setup_s: float):
    """Repeat the workload's operations while another pass is expected to end
    within ``--seconds``; always run at least one."""
    passes, pass_times = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(scaled_pass(dl, ops, work, "timed", ops_threads(args)))
        pass_times.append(time.perf_counter() - t)
        if (time.perf_counter() - start + statistics.median(pass_times)
                > args.seconds):
            break
    record["passes"] = len(passes)
    record["unscaled_wall_s"] = sum(
        statistics.median(r.seconds for runs in passes for r in runs if r.name == op.name)
        for op in ops)
    return [r for runs in passes for r in runs], timed_metrics(passes, setup_s), []


def traced_run(dl, args, ops, work: Path, record: dict):
    """A traced pass between two untraced ones, the default-seed digests, the
    kernel sweep and, on probe_pp, the single-thread probe baseline."""
    main_tid = threading.get_ident()
    untraced = run_pass(dl, ops, work, "untraced")
    tracer = Tracer()
    executed, spans = [], []
    with tracer:
        for op in ops:
            tracer.take()
            executed.append((op, execute(dl, op, work, "traced")))
            spans.append((op.name, tracer.take()))
    traced = [verify(dl, op, *res) for op, res in executed]
    # Untraced passes before and after, so neither side is the cold first run.
    untraced_after = run_pass(dl, ops, work, "untraced")
    runs = untraced + traced + untraced_after
    agg = aggregate([t for _, threads in spans for t in threads])
    values = layer_metrics(agg, traced)
    values["trace.overhead_s"] = (
        sum(r.seconds for r in traced)
        - sum(r.seconds for r in untraced + untraced_after) / 2)
    record["self_time_kind"] = ("busy_thread_seconds" if args.workload == "probe_pp"
                                else "wall_seconds")
    record["span_accounting"] = [
        span_accounting(name, r.seconds, threads, main_tid)
        for (name, threads), r in zip(spans, traced)]
    record["layers"] = {name: dict(a) for name, a in sorted(agg.items())}

    default = untraced
    if args.seed != DEFAULT_SEED:
        default = run_pass(dl, make_ops(args.workload, DEFAULT_SEED, dl, ops_threads(args)),
                           work, "default")
        runs += default
    values["reports.csv_changed_files"] = csv_changes(args.workload, default)
    record["default_seed_csv_sha256"] = digests(default)

    values.update(kernel_sweep(dl, args.seed))
    values["action.probe_ball.speedup_2t"] = 0.0
    if args.workload == "probe_pp":
        multi = verify(dl, ops[0], *execute(dl, ops[0], work, "speedup"))
        single = verify(dl, ops[0], *execute(dl, ops[0], work, "speedup",
                                             ("--threads", "1")))
        runs += [multi, single]
        values["action.probe_ball.speedup_2t"] = single.seconds / multi.seconds
    flat = [(name, tid, s) for name, threads in spans for tid, s in threads]
    return runs, values, flat


def ops_threads(args) -> int:
    return min(2, nproc()) if args.workload == "probe_pp" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        dl, setup_s, setup_record = set_up(args.workload)
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2

    ops = make_ops(args.workload, args.seed, dl, ops_threads(args))
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "setup": setup_record,
              "env": environment(args.seed, ops_threads(args)),
              "configs": {op.name: op.ini for op in ops}}
    try:
        if args.trace:
            runs, values, spans = traced_run(dl, args, ops, work, record)
            section = "per_layer"
        else:
            runs, values, spans = timed_run(dl, args, ops, work, record, setup_s)
            section = "end_to_end"
        attempted, failed = len(runs), sum(not r.ok for r in runs)
        if section == "per_layer":
            values["error_rate"] = failed / attempted
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec[section]}
        record["ops"] = [r.record() for r in runs]
        record["metrics"] = metrics
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-s{args.seed}-t{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if spans:
            with gzip.open(results / f"{stem}.spans.csv.gz", "wt") as fh:
                fh.write("op,thread,index,name,start,end,parent,count,scalar\n")
                for op_name, tid, spans_t in spans:
                    for i, s in enumerate(spans_t):
                        fh.write(f"{op_name},{tid},{i},{s[0]},{s[1]!r},{s[2]!r},"
                                 f"{s[3]},{s[4]},{s[5]}\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0



if __name__ == "__main__":
    raise SystemExit(main())
