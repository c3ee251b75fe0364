"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
criterion lines inline).  Tolerances are pinned here and nowhere else.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest

import diffeolab as dl
from diffeolab.action import GridSpec, apply_word, c0_dist_to_id, probe_ball, \
    word_values
from diffeolab.certify import Interval, check_pingpong, positive_pair_separation
from diffeolab.cli import main
from diffeolab.generators import build_pp, mobius, polybump
from diffeolab.words import enumerate_positive, enumerate_sphere, \
    positive_count, reduce_letters, sphere_size, word_from_text
from diffeolab.zassenhaus import CollisionParams, TransportParams, \
    build_wreath_pair, derivative_collision_search, flatten, \
    interval_transport_search, pigeonhole_bound

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

PP = build_pp()
PP_CERT = check_pingpong(*PP.generators, Interval(*dl.PP_I), Interval(*dl.PP_J))


@pytest.fixture(scope="module")
def wreath_pair():
    return build_wreath_pair(0.1, (0.40, 0.42), 3)


@pytest.fixture(scope="module")
def flatten_runs():
    runs = {}
    for eps in (0.5, 0.2, 0.1):
        t0 = time.monotonic()
        rep = flatten(*PP.generators, PP_CERT, eps)
        runs[eps] = (rep, time.monotonic() - t0)
    return runs


def announce(capsys, k, name, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {k:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_flatten(flatten_runs, capsys):
    """Flattening on the reference pair for eps in {0.5, 0.2, 0.1}."""
    ok = True
    xs = np.linspace(0.0, 1.0, 100_001)
    for eps, (rep, wall) in flatten_runs.items():
        ok &= rep.status == "success"
        ok &= rep.v is not None and len(rep.v) > 0
        ok &= rep.c0.certified_bound < 2.0 * eps
        ok &= wall < 60.0
        ok &= rep.n_used <= 22
        best = [row.best_certified for row in rep.rows]
        ok &= best == sorted(best, reverse=True)
        dense = float(np.max(np.abs(word_values(rep.v, xs, PP) - xs)))
        ok &= dense <= rep.c0.certified_bound and dense < 2.0 * eps
    announce(capsys, 1, "flattening produces certified near-identity words", ok)


def test_criterion_02_lemma1_and_suffix(flatten_runs, capsys):
    """No candidate ever dips below z0, nor any suffix below W(x1)."""
    ok = True
    for rep, _ in flatten_runs.values():
        ok &= rep.lemma1_violations == 0
        ok &= rep.suffix_violations == 0
        ok &= rep.lemma1_min_slack >= -1e-12
        ok &= rep.theta_audit_violations == 0
    announce(capsys, 2, "monotone-candidate and suffix audits are clean", ok)


def test_criterion_03_chain_rule(capsys):
    """10^4 random words <= 12 letters: chain product vs finite differences
    (rel err <= 1e-6) and vs the letter-derivative product (<= 1e-12)."""
    S = dl.GeneratorSet([mobius("f", 1.6), polybump("g", 1.2)])
    rng = np.random.default_rng(20240809)
    worst_fd = worst_prod = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 13))
        letters = []
        for _ in range(n):
            cands = [a for a in S.alphabet
                     if not letters or a != letters[-1].inverse()]
            letters.append(cands[int(rng.integers(len(cands)))])
        w = reduce_letters(letters)
        x = float(rng.uniform(0.02, 0.98))
        tr = apply_word(w, x, S)
        h = 1e-6
        fd = (apply_word(w, x + h, S).value
              - apply_word(w, x - h, S).value) / (2 * h)
        worst_fd = max(worst_fd, abs(tr.chain_product - fd) / abs(fd))
        prod = math.prod(tr.letter_derivs)
        worst_prod = max(worst_prod, abs(tr.chain_product - prod) / abs(prod))
    ok = worst_fd <= 1e-6 and worst_prod <= 1e-12
    announce(capsys, 3, f"chain rule (fd {worst_fd:.2e}, prod {worst_prod:.2e})", ok)


def test_criterion_04_c0_certificate_sound(capsys):
    """100 random words: dense sup <= certified bound, bound gap == 1/N."""
    rng = np.random.default_rng(11)
    xs = np.linspace(0.0, 1.0, 100_001)
    grid = GridSpec(500)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 11))
        letters = []
        for _ in range(n):
            cands = [a for a in PP.alphabet
                     if not letters or a != letters[-1].inverse()]
            letters.append(cands[int(rng.integers(len(cands)))])
        w = reduce_letters(letters)
        est = c0_dist_to_id(w, grid, PP)
        dense = float(np.max(np.abs(word_values(w, xs, PP) - xs)))
        ok &= dense <= est.certified_bound
        ok &= abs((est.certified_bound - est.grid_max) - grid.tau) <= 1e-15
    announce(capsys, 4, "certified sup-displacement bounds are sound", ok)


def test_criterion_05_counting(capsys):
    """Exact positive-word and sphere counts."""
    ok = all(positive_count(k) == 2 ** (k + 1) - 2 for k in range(1, 21))
    ok &= sum(1 for _ in enumerate_positive(("a", "b"), 20)) == positive_count(20)
    for n in range(1, 11):
        ok &= sphere_size(2, n) == 4 * 3 ** (n - 1)
        ok &= sum(1 for _ in enumerate_sphere(PP, n)) == 4 * 3 ** (n - 1)
    announce(capsys, 5, "positive-word and sphere counts are exact", ok)


def test_criterion_06_pingpong(capsys):
    """Certificate margins, the failing perturbation, and separation."""
    from diffeolab.generators import spline
    ok = PP_CERT.valid and PP_CERT.margin >= 1e-3
    f2 = spline("f", [(0.0, 0.0), (0.1, 0.251), (0.9, 0.360), (1.0, 1.0)])
    ok &= not check_pingpong(f2, PP["g"], Interval(*dl.PP_I),
                             Interval(*dl.PP_J)).valid
    rng = np.random.default_rng(5150)
    pool = list(enumerate_positive(("f", "g"), 8))
    min_sep = math.inf
    for _ in range(1000):
        a, b = rng.choice(len(pool), size=2, replace=False)
        min_sep = min(min_sep, positive_pair_separation(
            PP, pool[int(a)], pool[int(b)], Interval(*dl.PP_I),
            Interval(*dl.PP_J)))
    ok &= min_sep >= 1e-9
    announce(capsys, 6, f"ping-pong certificates (min sep {min_sep:.2e})", ok)


def test_criterion_07_collision(wreath_pair, capsys):
    """Derivative collision on the wreath pair at lambda=1.1, C=0.5."""
    eps = max(wreath_pair.d1_u.certified_bound,
              wreath_pair.d1_v.certified_bound)
    rep = derivative_collision_search(
        wreath_pair.generator_set,
        CollisionParams(x0=0.5, c=0.5, lam=1.1, epsilon=eps, n_max=14),
        nf=wreath_pair.normal_form)
    ok = rep.status == "found" and rep.n_found <= 14
    ok &= rep.star1_gap <= rep.star1_bound
    ok &= 1.0 - rep.params.c1 < rep.deriv_ratio < 1.0 + rep.params.c1
    ok &= 0.5 < rep.v_deriv < 1.5
    ok &= rep.audit_violations == 0 and rep.audit_steps == rep.n_found
    announce(capsys, 7, "derivative collision pair found and audited", ok)


def test_criterion_08_transport(wreath_pair, capsys):
    """Transport bounds up to n=12 plus a normal-form-distinct overlap."""
    rep = interval_transport_search(
        wreath_pair.generator_set,
        TransportParams(x0=0.41, delta_len=0.05, epsilon=0.1, lam=1.1,
                        n_max=12),
        nf=wreath_pair.normal_form)
    ok = rep.status == "found"
    ok &= len(rep.rows) == 12
    ok &= all(r.transition_violations == 0 for r in rep.rows)
    ok &= all(r.bound_ok for r in rep.rows)
    ok &= rep.pullback_in_delta
    ok &= rep.distinctness == "distinct_by_normal_form"
    announce(capsys, 8, "interval transport with certified overlap pair", ok)


def test_criterion_09_wreath_counterexample(wreath_pair, capsys):
    """Near-identity pair with disjoint translates; probes give positive
    floors (labeled numerical evidence of discreteness, not proof)."""
    pair = wreath_pair
    ok = pair.d1_u.certified_bound < 0.1 and pair.d1_v.certified_bound < 0.1
    ok &= len(pair.translates) == 7
    ok &= all(a.hi < b.lo for a, b in zip(pair.translates, pair.translates[1:]))
    S = pair.generator_set
    xs = np.linspace(0.0, 1.0, 1001)
    comm = word_from_text("u v u v^-1 u^-1 v u^-1 v^-1", S)
    ok &= float(np.max(np.abs(word_values(comm, xs, S) - xs))) <= 1e-12
    rep = probe_ball(S, 6, 0.405)
    # evidence, not proof: the literal minimum is zero because words
    # supported off x0 act trivially there; those words are counted and the
    # floor over genuinely acting words stays strictly positive
    gap = rep.minima["deriv_gap"]
    ok &= gap.degenerate and gap.zero_words > 0
    ok &= gap.min_positive is not None
    ok &= gap.min_positive > 0.0
    ok &= rep.minima["displacement"].min_positive > 0.0
    announce(capsys, 9, "wreath counterexample built and probed", ok)


def test_criterion_10_pigeonhole(flatten_runs, capsys):
    """The a-priori level estimate, and the documented theory/practice gap."""
    ok = pigeonhole_bound(2.0, 3, 1.01, 5, 0.1) == 156
    for rep, _ in flatten_runs.values():
        ok &= rep.theoretical_n is not None
        ok &= rep.n_used is not None and rep.theoretical_n > rep.n_used
    announce(capsys, 10, "pigeonhole level 156 and theory/practice gap", ok)


def _hash_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_criterion_11_determinism(tmp_path, capsys):
    """Criteria 1, 7, 8 scenarios emit byte-identical CSVs at 1 and 8 threads."""
    ok = True
    for name, cmd in (("flatten_pp_eps05.ini", "flatten"),
                      ("collision_wreath.ini", "collision"),
                      ("transport_wreath.ini", "transport")):
        digests = []
        for threads in ("1", "8"):
            out = tmp_path / f"{cmd}_{threads}"
            rc = main([cmd, "--config", os.path.join(CONFIG_DIR, name),
                       "--out", str(out), "--threads", threads])
            ok &= rc == 0
            digests.append(_hash_dir(out))
        ok &= digests[0] == digests[1]
    announce(capsys, 11, "byte-identical CSVs across thread counts", ok)
