"""CSV report emission with fixed schemas and reproducible bytes.

Floats print with 17 significant digits, words in their canonical text form,
rows in canonical order; two runs of the same experiment produce identical
files regardless of thread count.
"""

from __future__ import annotations

import csv
import math
import os


def fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    if hasattr(x, "text"):
        return x.text
    return str(x)


def write_csv(path: str, header, rows) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    return path


def emit_flatten(report, out_dir: str) -> list[str]:
    summary = write_csv(
        os.path.join(out_dir, "flatten_summary.csv"),
        ["n", "candidates", "buckets", "best_certified", "status"],
        [(r.n, r.candidates, r.buckets, r.best_certified, r.status)
         for r in report.rows])
    c0, nontrivial = report.c0, ""
    if c0 is not None:      # the accepted level's own grid: where v moves most
        nontrivial = (f"{c0.argmax_x:.17g}:{c0.grid_max:.17g}" if c0.grid_max > 0
                      else "numerically_indistinguishable")
    detail = write_csv(
        os.path.join(out_dir, "flatten_detail.csv"),
        ["n", "candidates", "best_cert", "status", "v",
         "g1", "g2", "w", "m", "case", "swapped", "alpha", "beta", "z0", "z",
         "delta", "theta_n", "grid_n", "grid_max", "lemma1_violations",
         "suffix_violations", "theta_audit_checked", "theta_audit_violations",
         "theoretical_n", "empirical_n", "nontrivial_at", "notes"],
        [(report.n_used, report.candidates_total, report.best_certified,
          report.status, report.v, report.g1, report.g2, report.w, report.m,
          report.case, report.swapped, report.alpha, report.beta, report.z0,
          report.z, report.delta, report.theta_n, report.grid_n,
          report.c0.grid_max if report.c0 else None,
          report.lemma1_violations, report.suffix_violations,
          report.theta_audit_checked, report.theta_audit_violations,
          report.theoretical_n, report.n_used, nontrivial,
          "; ".join(report.notes))])
    return [summary, detail]


def emit_transport(report, out_dir: str) -> list[str]:
    summary = write_csv(
        os.path.join(out_dir, "transport_summary.csv"),
        ["n", "sphere_words", "sum_lengths", "lower_bound",
         "bound_applicable", "bound_ok", "transition_violations"],
        [(r.n, r.sphere_words, r.sum_lengths, r.lower_bound,
          r.bound_applicable, r.bound_ok, r.transition_violations)
         for r in report.rows])
    detail = write_csv(
        os.path.join(out_dir, "transport_detail.csv"),
        ["status", "n_found", "g1", "g2", "g2_x0", "delta_g1_lo",
         "delta_g1_hi", "pullback", "pullback_in_delta", "distinctness",
         "separation", "x0", "delta_len", "epsilon", "lambda"],
        [(report.status, report.n_found, report.g1, report.g2, report.g2_x0,
          report.delta_g1.lo if report.delta_g1 else None,
          report.delta_g1.hi if report.delta_g1 else None,
          report.pullback, report.pullback_in_delta, report.distinctness,
          report.separation, report.x0, report.delta.length, report.epsilon,
          report.lam)])
    return [summary, detail]


def emit_collision(report, out_dir: str) -> list[str]:
    summary = write_csv(
        os.path.join(out_dir, "collision_summary.csv"),
        ["n", "sphere_words", "value_buckets", "max_bucket", "pair_found"],
        [(r.n, r.sphere_words, r.value_buckets, r.max_bucket, r.pair_found)
         for r in report.rows])
    p = report.params
    detail = write_csv(
        os.path.join(out_dir, "collision_detail.csv"),
        ["status", "n", "j", "g1", "g2", "g1_x0", "g2_x0", "star1_gap",
         "star1_bound", "deriv_ratio", "c1_lo", "c1_hi", "v", "v_deriv",
         "c_lo", "c_hi", "audit_steps", "audit_violations", "chain_rel_err",
         "distinctness", "n1", "x0", "lambda", "lambda1", "lambda2", "eta",
         "epsilon", "big_l"],
        [(report.status, report.n_found, report.j, report.g1, report.g2,
          report.g1_x0, report.g2_x0, report.star1_gap, report.star1_bound,
          report.deriv_ratio, 1.0 - p.c1, 1.0 + p.c1, report.v,
          report.v_deriv, 1.0 - p.c, 1.0 + p.c, report.audit_steps,
          report.audit_violations, report.chain_rel_err, report.distinctness,
          report.n1, p.x0, p.lam, p.lam1, p.lam2, p.eta, p.epsilon, p.big_l)])
    return [summary, detail]


def emit_probe(report, out_dir: str, name: str = "probe.csv") -> list[str]:
    rows = []
    last = len(report.rows)      # rows are levels 1 .. last; argmins go there
    for n, values in report.rows:
        for kind, value in values.items():
            best = report.minima[kind]
            rows.append((kind, n, report.x0, value,
                         best.argmin if n == last else None,
                         best.min_positive, best.zero_words, report.complete))
    path = write_csv(
        os.path.join(out_dir, name),
        ["kind", "n", "x0", "min_value", "argmin", "min_positive",
         "zero_words", "complete"], rows)
    return [path]


def emit_growth(stats, out_dir: str) -> list[str]:
    rows = []
    ball = 0
    for n, size in enumerate(stats.sphere_sizes):
        ball += size
        omega = ball ** (1.0 / n) if n else math.nan
        rows.append((n, size, ball, omega))
    return [write_csv(os.path.join(out_dir, "growth.csv"),
                      ["n", "sphere_size", "ball_size", "omega_estimate"],
                      rows)]


def emit_certify(cert, slope, separation, out_dir: str) -> list[str]:
    rows = [
        ("pingpong", "margin_f", cert.margin_f, cert.valid),
        ("pingpong", "margin_g", cert.margin_g, cert.valid),
        ("pingpong", "margin", cert.margin, cert.valid),
    ]
    if slope is not None:
        rows.append(("endpoint_slopes",
                     f"side={slope.side} delta={slope.delta:.17g} "
                     f"theta={slope.theta:.17g}",
                     slope.range_hi, slope.passed))
    if separation is not None:
        rows.append(("positive_pair_separation", "min_over_sample",
                     separation, separation >= 1e-9))
    return [write_csv(os.path.join(out_dir, "certify.csv"),
                      ["check", "item", "value", "passed"], rows)]


def emit_wreath(pair, probe, out_dir: str) -> list[str]:
    rows = [
        ("epsilon_core_k", f"{pair.core.lo:.17g},{pair.core.hi:.17g} k={pair.k}", True),
        ("d1_u_grid", pair.d1_u.grid_max, True),
        ("d1_u_certified", pair.d1_u.certified_bound, True),
        ("d1_v_grid", pair.d1_v.grid_max, True),
        ("d1_v_certified", pair.d1_v.certified_bound, True),
        ("shift_step", pair.step, True),
    ]
    for k, t in zip(range(-pair.k, pair.k + 1), pair.translates):
        rows.append((f"translate_{k}", f"{t.lo:.17g},{t.hi:.17g}", True))
    paths = [write_csv(os.path.join(out_dir, "wreath.csv"),
                       ["key", "value", "ok"], rows)]
    if probe is not None:
        paths += emit_probe(probe, out_dir, name="wreath_probe.csv")
    return paths
