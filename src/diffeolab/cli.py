"""Batch front end: ``lab <command> --config <file> [--out <dir>] [--threads k]``.

Exit status: 0 success, 2 cap or budget exhausted / nothing found,
3 precondition violation, 4 configuration or I/O error.  Identical
configuration and caps produce byte-identical CSV files at any thread count.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from . import reports
from .action import PROBE_KINDS, probe_ball
from .certify import Interval, check_endpoint_slopes, check_pingpong, \
    positive_pair_separation, scan_endpoint_delta
from .config import (COMMANDS, ExperimentConfig, build_generator_set, fval,
                     ival, load_config, pair_val, wreath_args)
from .errors import (ConfigError, ConstructionError, DomainError, NumericError,
                     PreconditionError)
from .words import growth_stats
from .zassenhaus import (CollisionParams, FlattenParams, TransportParams,
                         derivative_collision_search, flatten,
                         interval_transport_search)

STATUS_OK = 0
STATUS_EXHAUSTED = 2
STATUS_PRECONDITION = 3
STATUS_CONFIG = 4


@dataclass
class RunResult:
    status: int
    csv_paths: list[str] = field(default_factory=list)
    wall_time: float = 0.0
    summary: str = ""


def _given(p: dict, kind, **keys) -> dict:
    """``{name: kind(p, key)}`` for each ``name=key`` that section ``p``
    sets, so the callee's own default stands for every key left out."""
    return {name: kind(p, key) for name, key in keys.items() if key in p}


def _flatten_cmd(cfg: ExperimentConfig, out_dir: str) -> tuple[int, list, str]:
    S, _ = build_generator_set(cfg)
    if len(S.generators) != 2:
        raise PreconditionError("flatten needs exactly two generators")
    f, g = S.generators
    p = cfg.params
    i_lo, i_hi = pair_val(p, "i", "0.25,0.35")
    j_lo, j_hi = pair_val(p, "j", "0.65,0.75")
    cert = check_pingpong(f, g, Interval(i_lo, i_hi), Interval(j_lo, j_hi))
    params = FlattenParams(
        epsilon=fval(p, "epsilon"), time_budget_s=cfg.time_budget_s,
        **_given(p, ival, n_max="n_max", candidate_cap="candidate_cap",
                 escape_cap="escape_cap", grid_n="grid_n"))
    report = flatten(f, g, cert, params.epsilon, params, threads=cfg.threads)
    paths = reports.emit_flatten(report, out_dir)
    # With no escape word the notes hold the stop reason and the best point.
    found = ("; ".join(report.notes) if report.w is None
             else f"best={report.best_certified:.6g}")
    return (STATUS_OK if report.status == "success" else STATUS_EXHAUSTED,
            paths, f"flatten {report.status} {found}")


def _transport_cmd(cfg: ExperimentConfig, out_dir: str):
    S, pair = build_generator_set(cfg)
    p = cfg.params
    params = TransportParams(
        x0=fval(p, "x0"),
        delta_len=fval(p, "delta_len"),
        epsilon=fval(p, "epsilon"),
        lam=fval(p, "lambda"),
        time_budget_s=cfg.time_budget_s,
        **_given(p, ival, n_max="n_max", word_cap="word_cap"))
    nf = pair.normal_form if pair is not None else None
    report = interval_transport_search(S, params, nf=nf, threads=cfg.threads)
    paths = reports.emit_transport(report, out_dir)
    return (STATUS_OK if report.status == "found" else STATUS_EXHAUSTED,
            paths, f"transport {report.status}")


def _collision_cmd(cfg: ExperimentConfig, out_dir: str):
    S, pair = build_generator_set(cfg)
    p = cfg.params
    params = CollisionParams(
        x0=fval(p, "x0"),
        c=fval(p, "c"),
        lam=fval(p, "lambda"),
        epsilon=fval(p, "epsilon"),
        time_budget_s=cfg.time_budget_s,
        **_given(p, fval, c1="c1", lam1="lambda1", lam2="lambda2", eta="eta"),
        **_given(p, ival, n_max="n_max", word_cap="word_cap"))
    nf = pair.normal_form if pair is not None else None
    report = derivative_collision_search(S, params, nf=nf, threads=cfg.threads)
    paths = reports.emit_collision(report, out_dir)
    return (STATUS_OK if report.status == "found" else STATUS_EXHAUSTED,
            paths, f"collision {report.status}")


def _wreath_cmd(cfg: ExperimentConfig, out_dir: str):
    from .zassenhaus.wreath import build_wreath_pair

    w = cfg.wreath
    pair = build_wreath_pair(**wreath_args(w))
    probe = None
    if "probe_x0" in w:
        probe = probe_ball(pair.generator_set, ival(w, "probe_n", 6),
                           fval(w, "probe_x0"), threads=cfg.threads,
                           time_budget_s=cfg.time_budget_s)
    paths = reports.emit_wreath(pair, probe, out_dir)
    return STATUS_OK, paths, f"wreath built (step {pair.step:.6g})"


def _probe_cmd(cfg: ExperimentConfig, out_dir: str):
    S, _ = build_generator_set(cfg)
    p = cfg.params
    kind = p.get("kind", "both")
    if kind != "both" and kind not in PROBE_KINDS:
        raise ConfigError(f"probe kind must be one of both, "
                          f"{', '.join(PROBE_KINDS)}; not {kind!r}")
    report = probe_ball(S, ival(p, "n", 6), fval(p, "x0"),
                        kinds=tuple(PROBE_KINDS) if kind == "both" else (kind,),
                        threads=cfg.threads, time_budget_s=cfg.time_budget_s,
                        **_given(p, ival, cap="cap"))
    paths = reports.emit_probe(report, out_dir)
    return (STATUS_OK if report.complete else STATUS_EXHAUSTED, paths,
            f"probe n={report.n} complete={report.complete}")


def _growth_cmd(cfg: ExperimentConfig, out_dir: str):
    S, _ = build_generator_set(cfg)
    stats = growth_stats(S, ival(cfg.params, "n", 10))
    paths = reports.emit_growth(stats, out_dir)
    return STATUS_OK, paths, f"growth omega~{stats.omega_estimate:.4g}"


def _certify_cmd(cfg: ExperimentConfig, out_dir: str):
    import numpy as np

    from .words import enumerate_positive

    S, _ = build_generator_set(cfg)
    if len(S.generators) != 2:
        raise PreconditionError("certify needs exactly two generators")
    f, g = S.generators
    p = cfg.params
    I = Interval(*pair_val(p, "i", "0.25,0.35"))
    J = Interval(*pair_val(p, "j", "0.65,0.75"))
    cert = check_pingpong(f, g, I, J)
    slope = None
    if "theta" in p:
        theta = fval(p, "theta")
        side = ival(p, "side", 1)
        try:
            delta = scan_endpoint_delta(S, side, theta)
            slope = check_endpoint_slopes(S, side, delta, theta)
        except PreconditionError:
            slope = check_endpoint_slopes(S, side, 0.25, theta)
    separation = None
    if cert.valid and ival(p, "separation_pairs", 0) > 0:
        rng = np.random.default_rng(ival(p, "seed", 0))
        pool = list(enumerate_positive((f.id, g.id), ival(p, "separation_len", 8)))
        picks = (rng.choice(len(pool), size=2, replace=False)
                 for _ in range(ival(p, "separation_pairs", 0)))
        separation = min(positive_pair_separation(S, pool[int(a)], pool[int(b)],
                                                  I, J) for a, b in picks)
    paths = reports.emit_certify(cert, slope, separation, out_dir)
    ok = cert.valid and (slope is None or slope.passed)
    return (STATUS_OK if ok else STATUS_EXHAUSTED, paths,
            f"certify valid={cert.valid} margin={cert.margin:.6g}")


_DISPATCH = {
    "flatten": _flatten_cmd,
    "transport": _transport_cmd,
    "collision": _collision_cmd,
    "wreath": _wreath_cmd,
    "probe": _probe_cmd,
    "growth": _growth_cmd,
    "certify": _certify_cmd,
}


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    start = time.monotonic()
    try:
        status, paths, summary = _DISPATCH[cfg.command](cfg, cfg.out_dir)
    except (ConfigError, OSError) as exc:
        return RunResult(STATUS_CONFIG, [], time.monotonic() - start,
                         f"config error: {exc}")
    except (PreconditionError, DomainError, ConstructionError,
            NumericError) as exc:
        return RunResult(STATUS_PRECONDITION, [], time.monotonic() - start,
                         f"precondition: {exc}")
    return RunResult(status, paths, time.monotonic() - start, summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Interval-diffeomorphism group experiments")
    parser.add_argument("command")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    if args.command not in COMMANDS:
        print(f"config error: unknown command {args.command!r}", file=sys.stderr)
        return STATUS_CONFIG
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return STATUS_CONFIG
    if cfg.command != args.command:
        print(f"config error: config file is for {cfg.command!r}, "
              f"not {args.command!r}", file=sys.stderr)
        return STATUS_CONFIG
    if args.out is not None:
        cfg.out_dir = args.out
    if args.threads is not None:
        if args.threads < 1:
            print("config error: threads must be positive", file=sys.stderr)
            return STATUS_CONFIG
        cfg.threads = args.threads
    result = run_experiment(cfg)
    print(f"{result.summary} [{result.wall_time:.2f}s] "
          f"-> {', '.join(result.csv_paths) or 'no files'}")
    return result.status


if __name__ == "__main__":
    raise SystemExit(main())
