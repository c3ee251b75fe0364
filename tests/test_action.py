"""Word application: orbit traces, chain rule, certified distances, probes."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import diffeolab as dl
from diffeolab.action import _PARALLEL_MIN, CLAMP_TOL, PROBE_KINDS, GridSpec, _fill_level, \
    _MinTracker, ProbeMin, apply_word, c0_dist_to_id, c1_dist_to_id, map_row_blocks, orbit, \
    probe_ball, sphere_orbits, word_deriv_bounds, word_values
from diffeolab.generators import Letter, blend, build_pp, mobius, polybump, spline
from diffeolab.words import EMPTY, Word, enumerate_sphere, level_word, reduce_letters, \
    sphere_levels, sphere_size
from mp_words import word_value_deriv

PP = build_pp()
SMOOTH = dl.GeneratorSet([mobius("f", 1.6), polybump("g", 1.2)])
RNG = np.random.default_rng(4242)


def random_word(S, max_len, rng):
    letters = []
    n = int(rng.integers(1, max_len + 1))
    for _ in range(n):
        cands = [a for a in S.alphabet
                 if not letters or a != letters[-1].inverse()]
        letters.append(cands[int(rng.integers(len(cands)))])
    return reduce_letters(letters)


def orbit_derivs(w, xs, S):
    """(w(xs), w'(xs)) of an array: ``orbit``'s last values with derivatives,
    and the sequential product of its letter derivatives."""
    ys = np.array(xs, dtype=float)
    ds = np.ones_like(ys)
    for *_, ys, dy in orbit(w, ys, S, derivs=True):
        ds *= dy
    return ys, ds


def test_empty_word_identity():
    tr = apply_word(EMPTY, 0.3, PP)
    assert tr.points == (0.3,)
    assert tr.chain_product == 1.0


def test_single_mobius_trace():
    S = dl.GeneratorSet([mobius("f", 2.0)])
    tr = apply_word(Word((Letter("f", 1),)), 0.5, S)
    assert tr.value == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert tr.chain_product == pytest.approx(8.0 / 9.0, rel=1e-15)


def test_domain_error():
    with pytest.raises(dl.DomainError):
        apply_word(EMPTY, 1.2, PP)


def test_chain_rule_against_finite_differences():
    worst_fd = worst_prod = 0.0
    for _ in range(1000):
        w = random_word(SMOOTH, 12, RNG)
        x = float(RNG.uniform(0.02, 0.98))
        tr = apply_word(w, x, SMOOTH)
        h = 1e-6
        fd = (apply_word(w, x + h, SMOOTH).value
              - apply_word(w, x - h, SMOOTH).value) / (2 * h)
        worst_fd = max(worst_fd, abs(tr.chain_product - fd) / abs(fd))
        prod = math.prod(tr.letter_derivs)
        worst_prod = max(worst_prod,
                         abs(tr.chain_product - prod) / abs(prod))
    assert worst_fd <= 1e-6
    assert worst_prod <= 1e-12


def test_long_chain_product_is_sequential():
    letters = (Letter("f", 1),) * 40
    tr = apply_word(Word(letters), 0.37, SMOOTH)
    assert tr.chain_product == math.prod(tr.letter_derivs)


def test_monotone_transport():
    for _ in range(200):
        w = random_word(PP, 10, RNG)
        x, y = sorted(RNG.uniform(0.0, 1.0, 2))
        if x == y:
            continue
        assert apply_word(w, x, PP).value < apply_word(w, y, PP).value


@pytest.mark.parametrize("S", [PP, SMOOTH], ids=["pp", "smooth"])
def test_scalar_and_array_orbits_agree_bitwise(S):
    rng = np.random.default_rng(1117)
    for _ in range(200):
        w = random_word(S, 32, rng)
        x = float(rng.uniform(0.0, 1.0))
        tr = apply_word(w, x, S)
        ys = [x] + [float(y[0]) for *_, y, _ in orbit(w, np.array([x]), S)]
        assert list(tr.points) == ys
        assert tr.value == word_values(w, [x], S)[0]
        assert tr.chain_product == orbit_derivs(w, [x], S)[1][0]


FAMILIES = dl.GeneratorSet([mobius("m", 1.6), polybump("p", 1.2), PP["f"],
                            blend("b", PP["g"], 0.05)])
_KNOTS = np.concatenate([np.r_[g._spline.xs, g._spline.ys]
                         for g in FAMILIES.generators if g._spline is not None])
#: Every knot abscissa and value of FAMILIES' splines and the floats 1 ulp
#: either side, then an even grid, 4,001 points in all.
NEAR_KNOTS = np.unique(np.clip(np.r_[_KNOTS, np.nextafter(_KNOTS, 0.0),
                                     np.nextafter(_KNOTS, 1.0)], 0.0, 1.0))
FAMILY_POINTS = np.r_[NEAR_KNOTS, np.linspace(0.0, 1.0, 4001 - NEAR_KNOTS.size)]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def reference_steps(w, x, S):
    """Per letter of w from x, (y, dy) by the letter rule spelled out: y is
    g(x) or g^-1(x) clipped to [0, 1], and dy is g'(x), or 1 / g'(y)."""
    steps = []
    for letter in reversed(w.letters):
        g = S[letter.gen]
        if letter.sign > 0:
            y, dy = np.clip(g.value(x), 0.0, 1.0), g.deriv(x)
        else:
            y = np.clip(g.inverse(x), 0.0, 1.0)
            dy = 1.0 / g.deriv(y)
        steps.append((y, dy))
        x = y
    return steps


def test_orbit_derivatives_are_the_letter_rule_bitwise():
    # Every family, both signs, Python floats and arrays of 1, 16, 17 and
    # 4,001 points, each knot value and its neighbours in every block size.
    rng = np.random.default_rng(2601)
    words = [Word((a,)) for a in FAMILIES.alphabet]
    words += [random_word(FAMILIES, 8, rng) for _ in range(8)]
    blocks = [FAMILY_POINTS[a:a + size] for size in (1, 16, 17)
              for a in range(0, NEAR_KNOTS.size, size)] + [FAMILY_POINTS]
    grid = GridSpec(4000)
    for w in words:
        for xs in blocks:
            steps = reference_steps(w, xs, FAMILIES)
            got = [(y, dy) for *_, y, dy in orbit(w, xs.copy(), FAMILIES, derivs=True)]
            assert [_bits(a) for a in got] == [_bits(a) for a in steps]
            assert all(dy is None for *_, dy in orbit(w, xs.copy(), FAMILIES))
        for x in NEAR_KNOTS[::3].tolist():
            tr, steps = apply_word(w, x, FAMILIES), reference_steps(w, x, FAMILIES)
            assert _bits(tr.points) == _bits([x] + [y for y, _ in steps])
            assert _bits(tr.letter_derivs) == _bits([dy for _, dy in steps])
            assert _bits(tr.chain_product) == _bits(math.prod([dy for _, dy in steps]))
        xs = grid.points()
        ys, ds = xs, np.ones_like(xs)
        for ys, dy in reference_steps(w, xs, FAMILIES):
            ds = ds * dy
        disp, gap = np.abs(ys - xs), np.abs(ds - 1.0)
        grid_max = float(np.max(disp) + np.max(gap))
        assert c1_dist_to_id(w, grid, FAMILIES) == dl.SupEstimate(
            grid_max=grid_max,
            certified_bound=grid_max + grid.tau * (1.0 + word_deriv_bounds(w, FAMILIES)[2]),
            grid=grid, argmax_x=float(xs[int(np.argmax(disp + gap))]))


@pytest.mark.parametrize("S", [PP, dl.build_wreath_pair(0.1, (0.40, 0.42), 3).generator_set],
                         ids=["pp", "wreath"])
def test_apply_word_matches_a_50_digit_oracle(S):
    # The float orbit against mp_words' evaluation of the same float splines.
    rng = np.random.default_rng(2602)
    for _ in range(15):
        w, x = random_word(S, 20, rng), float(rng.uniform(0.0, 1.0))
        tr = apply_word(w, x, S)
        value, deriv = word_value_deriv(w, x, S, dps=50)
        assert abs(tr.value - value) <= 1e-13
        assert abs(tr.chain_product - deriv) <= 1e-12 * abs(deriv)


class _Overshoot(dl.GeneratorMap):
    """The identity scaled by 1 + over, so its value at 1 leaves [0, 1]."""

    def _value(self, a):
        return a * (1.0 + self.params["over"])


@pytest.mark.parametrize("over", [10 * CLAMP_TOL, 0.1 * CLAMP_TOL])
def test_clamp_tol_raises_on_floats_and_clips_arrays(over):
    o = _Overshoot("o", "mobius", {"lam": 1.0, "over": over}, 1.0, 1.0, 0.0)
    S = dl.GeneratorSet([o])
    w = Word((Letter("o", 1), Letter("o", 1)))
    if over > CLAMP_TOL:
        with pytest.raises(dl.DomainError):
            apply_word(w, 1.0, S)
    else:
        assert apply_word(w, 1.0, S).points == (1.0, 1.0, 1.0)
    assert word_values(w, [0.5, 1.0], S)[1] == 1.0
    ys, ds = orbit_derivs(w, [1.0], S)
    assert (ys[0], ds[0]) == (1.0, 1.0)


def test_c0_empty_word():
    est = c0_dist_to_id(EMPTY, GridSpec(1000), PP)
    assert est.grid_max == 0.0
    assert est.certified_bound <= 0.001


def test_c0_mobius_oracle():
    # dense-scan oracle: sup of x(1-x)/(1+x) is 3 - 2 sqrt(2)
    S = dl.GeneratorSet([mobius("f", 2.0)])
    w = Word((Letter("f", 1),))
    est = c0_dist_to_id(w, GridSpec(4000), S)
    xs = np.linspace(0.0, 1.0, 10**6 + 1)
    dense = float(np.max(np.abs(word_values(w, xs, S) - xs)))
    assert dense == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)
    assert est.grid_max <= dense <= est.certified_bound
    assert est.certified_bound - est.grid_max == pytest.approx(1 / 4000, abs=1e-15)


def test_c0_certified_sound_random_words():
    xs = np.linspace(0.0, 1.0, 100_001)
    for _ in range(25):
        w = random_word(PP, 9, RNG)
        est = c0_dist_to_id(w, GridSpec(500), PP)
        dense = float(np.max(np.abs(word_values(w, xs, PP) - xs)))
        assert dense <= est.certified_bound


def test_c1_empty_and_mobius():
    est = c1_dist_to_id(EMPTY, GridSpec(1000), PP)
    assert est.grid_max == 0.0 and est.certified_bound <= 1e-3
    S = dl.GeneratorSet([mobius("f", 2.0)])
    est = c1_dist_to_id(Word((Letter("f", 1),)), GridSpec(4000), S)
    # sup|f - id| + sup|f' - 1| with the derivative gap attained at 0
    assert est.grid_max == pytest.approx(1.0 + 3.0 - 2.0 * math.sqrt(2.0), abs=1e-6)
    assert est.certified_bound >= est.grid_max


def test_c1_blend_near_identity():
    f = PP["f"]
    b = dl.blend("fb", f, 0.01)
    S = dl.GeneratorSet([b])
    est = c1_dist_to_id(Word((Letter("fb", 1),)), GridSpec(2000), S)
    assert est.certified_bound < 0.1


def test_c1_requires_finite_lip():
    import dataclasses
    f = dataclasses.replace(mobius("f", 1.2), der_lip=math.nan)
    S = dl.GeneratorSet([f])
    with pytest.raises(dl.PreconditionError):
        c1_dist_to_id(Word((Letter("f", 1),)), GridSpec(100), S)


def test_word_deriv_bounds_sound():
    for _ in range(100):
        w = random_word(PP, 6, RNG)
        inf, sup, lip = word_deriv_bounds(w, PP)
        xs = np.linspace(0.0, 1.0, 2001)
        _, ds = orbit_derivs(w, xs, PP)
        assert np.min(ds) >= inf - 1e-9
        assert np.max(ds) <= sup + 1e-9
        quot = np.abs(np.diff(ds)) / np.diff(xs)
        assert np.max(quot) <= lip * (1 + 1e-9) + 1e-9


def test_min_displacement_mobius():
    S = dl.GeneratorSet([mobius("f", 2.0)])
    rep = probe_ball(S, 1, 0.5, kinds=("displacement",))
    assert rep.minima["displacement"].value == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert rep.minima["displacement"].argmin.text == "f"
    with pytest.raises(dl.PreconditionError):
        probe_ball(S, 1, 0.0, kinds=("displacement",))


def test_min_deriv_gap_mobius_fixed_point():
    # multiplier at the fixed endpoint is lambda^k, so the gap is 0.5 at k=-1
    S = dl.GeneratorSet([mobius("f", 2.0)])
    rep = probe_ball(S, 3, 0.0, kinds=("deriv_gap",))
    assert rep.minima["deriv_gap"].value == pytest.approx(0.5, abs=1e-14)
    assert rep.minima["deriv_gap"].argmin.text == "f^-1"


def test_probe_empty_ball_rejected():
    with pytest.raises(dl.PreconditionError):
        probe_ball(PP, 0, 0.5)


def test_probe_kinds_must_come_from_the_table():
    for kinds in [(), ("c0",), ("displacement", "c0")]:
        with pytest.raises(dl.PreconditionError, match=", ".join(PROBE_KINDS)):
            probe_ball(PP, 3, 0.5, kinds=kinds)


def test_probe_monotone_in_radius():
    rep = probe_ball(PP, 5, 0.37)
    disp = [r[1]["displacement"] for r in rep.rows]
    gap = [r[1]["deriv_gap"] for r in rep.rows]
    assert disp == sorted(disp, reverse=True)
    assert gap == sorted(gap, reverse=True)


def test_probe_degenerate_flagged():
    # endpoint-flat pair: every derivative gap at 0 is exactly zero
    S = dl.GeneratorSet([polybump("a", 1.0), polybump("b", -0.5)])
    rep = probe_ball(S, 2, 0.0, kinds=("deriv_gap",))
    assert rep.minima["deriv_gap"].value == 0.0
    assert rep.minima["deriv_gap"].degenerate
    assert rep.minima["deriv_gap"].zero_words == 16


def test_probe_cap_partial():
    rep = probe_ball(PP, 8, 0.5, cap=50)
    assert not rep.complete
    assert rep.n == 8 and len(rep.rows) < 8


def test_probe_thread_count_invariant():
    a = probe_ball(PP, 5, 0.41, threads=1)
    b = probe_ball(PP, 5, 0.41, threads=8)
    assert a.minima == b.minima
    assert a.rows == b.rows


WREATH = dl.build_wreath_pair(epsilon=0.1, core=(0.40, 0.42), k=3).generator_set


@pytest.mark.parametrize("S, x0", [(PP, 0.41), (WREATH, 0.405)], ids=["pp", "wreath"])
def test_probe_reports_thread_invariant_at_radius_12(S, x0):
    # Some letter slice reaches _PARALLEL_MIN, so the pool really runs.
    assert max(src.stop - src.start
               for _, src in sphere_levels(S, 12)[12].suffix_slices()) >= _PARALLEL_MIN
    one = probe_ball(S, 12, x0, threads=1)
    three = probe_ball(S, 12, x0, threads=3)
    assert one == three
    assert len(one.rows) == 12 and one.complete
    # The argmin words reproduce the minima, so block offsets are right.
    disp, gap = one.minima["displacement"], one.minima["deriv_gap"]
    assert abs(word_values(disp.argmin, [x0], S)[0] - x0) == disp.value
    ds = orbit_derivs(gap.argmin, [x0], S)[1]
    assert abs(ds[0] - 1.0) == pytest.approx(gap.value, rel=1e-9, abs=1e-13)
    if S is WREATH:  # words acting trivially at x0 give exact zeros
        assert disp.zero_words > 0 and gap.zero_words > 0


def full_scan_update(t, vals, n, offset=0):
    """_MinTracker.update as it was: every block scanned for ZERO_TOL."""
    zero = vals <= dl.action.ZERO_TOL
    t.zero_count += int(np.count_nonzero(zero))
    t.min_positive = min(t.min_positive, float(np.min(vals, where=~zero, initial=math.inf)))
    k = int(np.argmin(vals))
    if vals[k] < t.value:
        t.value, t.where = float(vals[k]), (n, offset + k)


def test_min_tracker_update_equals_a_full_scan():
    # pp has no word at or below ZERO_TOL at x0 = 0.41; the wreath pair has
    # some at 0.5; a NaN takes the scan as well.
    blocks = []
    for S, x0 in ((PP, 0.41), (WREATH, 0.5)):
        level = list(sphere_orbits(S, sphere_levels(S, 7), [x0], derivs=True))[-1]
        blocks += [PROBE_KINDS[k][1](level, x0) for k in PROBE_KINDS]
    assert np.min(blocks[0]) > dl.action.ZERO_TOL and np.min(blocks[1]) > dl.action.ZERO_TOL
    assert np.min(blocks[2]) == 0.0 and np.min(blocks[3]) <= dl.action.ZERO_TOL
    nan = blocks[0].copy()
    nan[[5, 700]] = math.nan
    blocks.append(nan)
    for vals in blocks:
        for first in (None, 1e-3, 0.0):  # fresh, and after an earlier block
            ours, ref = _MinTracker(), _MinTracker()
            if first is not None:
                ours.update(np.array([first]), 1)
                full_scan_update(ref, np.array([first]), 1)
            ours.update(vals, 7, 11)
            full_scan_update(ref, vals, 7, 11)
            assert repr(vars(ours)) == repr(vars(ref))


def test_min_tracker_blocks_equal_whole_array():
    block = 4
    cases = [
        [3.0, 2.0, 4.0, 5.0, 6.0, 0.5, 7.0, 0.5, 9.0],   # minimum past block 0
        [3.0, 1.0, 4.0, 5.0, 1.0, 2.0, 6.0],             # tie across a boundary
        [0.0, 2.0, 5e-14, 3.0, 0.0, 1.0, 0.0, 0.5],      # exact and noise zeros
        [2.0, 0.25, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 4.0],  # a block of only zeros
        [0.0, 0.0, 0.0, 0.0, 0.0],                       # nothing positive
    ]
    for vals in map(np.array, cases):
        whole, blocks, merged = _MinTracker(), _MinTracker(), _MinTracker()
        for m in (1, 2):  # a second level never moves an equal minimum
            whole.update(vals, m)
            for a in range(0, vals.size, block):
                blocks.update(vals[a:a + block], m, a)
                part = _MinTracker()  # one block's own tracker, merged in order
                part.update(vals[a:a + block], m, a)
                merged.merge(part)
        assert vars(blocks) == vars(whole) == vars(merged)
        k = int(np.argmin(vals))
        assert whole.where == (1, k) and whole.value == vals[k]
        assert whole.zero_count == 2 * np.count_nonzero(vals <= dl.action.ZERO_TOL)
    assert whole.min_positive == math.inf


@pytest.mark.parametrize("threads", [1, 3])
def test_probe_never_stores_the_outermost_level(threads):
    tracemalloc.start()
    try:
        report = probe_ball(PP, 13, 0.41, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Below the values and derivative products of level 13 alone.
    assert peak < 2 * 8 * sphere_size(2, 13)
    assert report.complete and len(report.rows) == 13


def brute_probe(S, n, x0):
    """Minima over every word of length 1..n from ``apply_word``, in level
    order: the ``ProbeMin`` of the displacement and of the derivative gap,
    and the running minima as ``ProbeReport.rows``."""
    disp, gap, running = [], [], []
    for m in range(1, n + 1):
        for w in enumerate_sphere(S, m):
            trace = apply_word(w, x0, S)
            disp.append((abs(trace.value - x0), w))
            gap.append((abs(trace.chain_product - 1.0), w))
        running.append((m, {"displacement": min(v for v, _ in disp),
                            "deriv_gap": min(v for v, _ in gap)}))

    def summary(items):
        vals = [v for v, _ in items]
        k = vals.index(min(vals))
        pos = [v for v in vals if v > dl.action.ZERO_TOL]
        return ProbeMin(vals[k], items[k][1], min(pos) if pos else None,
                        len(vals) - len(pos))

    return summary(disp), summary(gap), tuple(running)


@pytest.mark.parametrize("S, x0", [(PP, 0.41), (PP, 0.5), (WREATH, 0.405)],
                         ids=["pp", "pp-mid", "wreath"])
@pytest.mark.parametrize("n, cap", [(6, 4_000_000), (6, 200), (1, 4_000_000)],
                         ids=["full", "capped", "radius1"])
def test_probe_matches_brute_force_over_words(S, x0, n, cap, monkeypatch):
    levels = len(sphere_levels(S, n, cap=cap)) - 1
    assert levels == (4 if cap == 200 else n)  # the cap cuts levels 5 and 6
    disp, gap, running = brute_probe(S, levels, x0)
    # Tiny blocks: the outermost level streams through many blocks on the pool.
    monkeypatch.setattr(dl.action, "_PARALLEL_MIN", 8)
    for threads in (1, 3):
        both = probe_ball(S, n, x0, cap=cap, threads=threads)
        assert both.complete == (levels == n)
        assert both.minima == {"displacement": disp, "deriv_gap": gap}
        assert both.rows == running
    for kind in PROBE_KINDS:
        only = probe_ball(S, n, x0, kinds=(kind,), cap=cap, threads=3)
        assert only == dataclasses.replace(
            both, minima={kind: both.minima[kind]},
            rows=tuple((m, {kind: mins[kind]}) for m, mins in running))


def test_probe_ties_in_the_outermost_level_keep_the_first_row(monkeypatch):
    # At the fixed point 0 a word's derivative is 2^a 8^b for exponent sums
    # a of f and b of g: exactly 1 first at length 4, on the 8 words with
    # a = -3b != 0 and the 8 with a = b = 0.  Two of them, f f f g^-1 and
    # f f g^-1 f, lie in one suffix slice of level 4 but in different 4-row
    # blocks, so the first row wins only if blocks are folded in order.
    S = dl.GeneratorSet([mobius("f", 2.0), mobius("g", 8.0)])
    gap = brute_probe(S, 4, 0.0)[1]
    assert (gap.value, gap.argmin) == (
        0.0, Word((Letter("f", 1),) * 3 + (Letter("g", -1),)))
    monkeypatch.setattr(dl.action, "_PARALLEL_MIN", 1)
    rep = probe_ball(S, 4, 0.0, kinds=("deriv_gap",), threads=1)
    assert rep.minima["deriv_gap"] == gap
    assert gap.zero_words == 16


def unpruned_probe(S, n, x0, kinds):
    """``probe_ball`` as a fold of whole ``sphere_orbits`` levels, every row
    of every level measured, through ``_MinTracker``."""
    levels = sphere_levels(S, n)
    trackers = {k: _MinTracker() for k in kinds}
    rows = []
    for m, level in enumerate(sphere_orbits(S, levels, [x0], derivs=True), 1):
        for k, t in trackers.items():
            t.update(PROBE_KINDS[k][1](level, x0), m)
        rows.append((m, {k: t.value for k, t in trackers.items()}))
    minima = {k: ProbeMin(t.value, level_word(levels, *t.where, S),
                          None if math.isinf(t.min_positive) else t.min_positive,
                          t.zero_count)
              for k, t in trackers.items()}
    return dl.ProbeReport(x0=x0, n=n, complete=True, minima=minima, rows=tuple(rows))


@pytest.mark.parametrize("S, n, x0", [(PP, 13, 0.41), (PP, 13, 0.35), (PP, 13, 0.62),
                                      (WREATH, 12, 0.405)],
                         ids=["pp-0.41", "pp-0.35", "pp-0.62", "wreath"])
def test_pruned_outermost_level_gives_the_unpruned_report(S, n, x0):
    both = unpruned_probe(S, n, x0, tuple(PROBE_KINDS))
    for kinds in (tuple(PROBE_KINDS), *((k,) for k in PROBE_KINDS)):
        ref = dataclasses.replace(
            both, minima={k: both.minima[k] for k in kinds},
            rows=tuple((m, {k: mins[k] for k in kinds}) for m, mins in both.rows))
        for threads in (1, 3):
            assert probe_ball(S, n, x0, kinds=kinds, threads=threads) == ref


def test_pruned_outermost_level_applies_few_letters(monkeypatch):
    # The floor from radius 12 rules out most of level 13 before any letter.
    levels = sphere_levels(PP, 13)
    points, step = [], dl.action.letter_step
    monkeypatch.setattr(dl.action, "letter_step",
                        lambda g, sign, x: points.append(x.size) or step(g, sign, x))
    probe_ball(PP, 13, 0.41)
    outermost = sum(points) - sum(lev.size for lev in levels[1:13])
    assert 0 < outermost < 0.1 * levels[13].size


def test_pruned_rows_are_sound_where_letter_slopes_are_small(monkeypatch):
    # End slopes of 1e-3 make der_inf 1e-3, so the inverse's error bound E,
    # not rounding, sets the margins; tiny blocks leave many of the
    # outermost level's blocks with no row kept.
    S = dl.GeneratorSet([
        spline("a", [(0, 0), (0.2, 0.45), (0.8, 0.7), (1, 1)], end_slopes=(1e-3, 1e-3)),
        spline("b", [(0, 0), (0.3, 0.1), (0.6, 0.35), (1, 1)], end_slopes=(1e-3, 1e-3))])
    assert max(g.der_inf for g in S.generators) <= 1e-3
    monkeypatch.setattr(dl.action, "_PARALLEL_MIN", 8)
    kept, fill = [], dl.action._fill_level

    def counted(*args):
        rows = fill(*args)
        if args[-1] is not None:
            kept.append(len(rows))
        return rows

    monkeypatch.setattr(dl.action, "_fill_level", counted)
    empty = dict.fromkeys(["displacement", "deriv_gap", "both"], 0)
    for x0 in (0.05, 0.41, 0.9):
        disp, gap, running = brute_probe(S, 6, x0)
        brute = {"displacement": disp, "deriv_gap": gap}
        for kinds in (tuple(PROBE_KINDS), *((k,) for k in PROBE_KINDS)):
            for threads in (1, 3):
                kept.clear()
                rep = probe_ball(S, 6, x0, kinds=kinds, threads=threads)
                assert rep.minima == {k: brute[k] for k in kinds}
                assert rep.rows == tuple((m, {k: mins[k] for k in kinds})
                                         for m, mins in running)
                assert len(kept) == -(-sphere_size(2, 6) // 8)
                empty[kinds[0] if len(kinds) == 1 else "both"] += kept.count(0)
    # Of 3 x 2 runs of 122 blocks each: the displacement's windows prune
    # nearly every row, the derivative bounds (1e-3 to 3) far fewer.
    assert empty["displacement"] > 0.9 * 6 * 122
    assert empty["both"] == empty["deriv_gap"] > 0


def test_fill_level_keeps_the_selected_rows_bitwise():
    starts = [0.41]
    levels = sphere_levels(PP, 7)
    whole = list(sphere_orbits(PP, levels, starts, derivs=True))
    lev, prev, level = levels[7], whole[5], whole[6]
    rng = np.random.default_rng(7)
    for window in (1, 7, 64, lev.size):
        outs = [np.full(window, np.nan) for _ in prev]
        for a in range(0, lev.size, window):
            ids = _fill_level(PP, lev, prev, outs, a, True,
                              keep=lambda g, sign, src: rng.random(len(src[0])) < 0.3)
            stop = min(a + window, lev.size)
            assert np.all(np.diff(ids) > 0) and np.all((a <= ids) & (ids < stop))
            for o, w in zip(outs, level):
                assert np.array_equal(o[:len(ids)], w[ids])
        none = _fill_level(PP, lev, prev, outs, 0, True,
                           keep=lambda g, sign, src: np.zeros(len(src[0]), bool))
        assert len(none) == 0
    assert _fill_level(PP, lev, prev, outs, 0, True) == range(0, lev.size)


@pytest.mark.parametrize("S", [PP, WREATH], ids=["pp", "wreath"])
def test_sphere_orbits_match_word_application(S):
    starts = [0.37, 0.5, 0.405]
    levels = sphere_levels(S, 6)
    for m, level in enumerate(sphere_orbits(S, levels, starts, derivs=True), 1):
        for i in range(levels[m].size):
            w = level_word(levels, m, i, S)
            for j, x0 in enumerate(starts):
                tr = apply_word(w, x0, S)
                assert level[j][i] == tr.value
                assert level[len(starts) + j][i] == tr.chain_product


def test_sphere_orbits_values_only_and_thread_invariant():
    levels = sphere_levels(PP, 12)
    one = list(sphere_orbits(PP, levels, [0.41], derivs=True, threads=1))
    three = list(sphere_orbits(PP, levels, [0.41], derivs=True, threads=3))
    plain = list(sphere_orbits(PP, levels, [0.41]))
    assert levels[12].size // 4 >= _PARALLEL_MIN
    for a, b, c in zip(one, three, plain):
        assert len(a) == 2 and len(c) == 1
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert np.array_equal(a[0], c[0])


@pytest.mark.parametrize("S", [PP, WREATH], ids=["pp", "wreath"])
def test_fill_level_windows_equal_the_whole_level(S):
    starts = [0.37, 0.5, 0.405]
    levels = sphere_levels(S, 6)
    whole = list(sphere_orbits(S, levels, starts, derivs=True))
    prev = [np.array([x]) for x in starts] + [np.ones(1) for _ in starts]
    straddled = {1: set(), 7: set(), 64: set()}
    for lev, level in zip(levels[1:], whole):
        letters = set(lev.offsets[1:-1])
        slices = {rows.start for rows, _ in lev.suffix_slices()} - letters - {0}
        for window in (1, 7, 64):
            outs = [np.full(lev.size, np.nan) for _ in prev]
            for a in range(0, lev.size, window):
                _fill_level(S, lev, prev, [o[a:a + window] for o in outs], a,
                            True)
                for kind, cuts in (("letter", letters), ("slice", slices)):
                    if any(a < c < a + window for c in cuts):
                        straddled[window].add(kind)
            assert all(np.array_equal(o, w) for o, w in zip(outs, level))
        prev = level
    assert straddled == {1: set(), 7: {"letter", "slice"}, 64: {"letter", "slice"}}


def test_sphere_orbits_clip_values_as_orbit_does(monkeypatch):
    # A letter that overshoots 1 is clipped before the next letter reads it,
    # whether its values come from letter_value or, with derivatives, from
    # letter_step, in sphere_orbits as under orbit(..., derivs=True).
    value, step = dl.action.letter_value, dl.action.letter_step

    def overshoot(y):
        return y * (1.0 + 1e-9)

    monkeypatch.setattr(dl.action, "letter_value",
                        lambda g, sign, x: overshoot(value(g, sign, x)))
    monkeypatch.setattr(dl.action, "letter_step", lambda g, sign, x: (
        lambda y, d: (overshoot(y), d))(*step(g, sign, x)))
    starts = [1.0 - 1e-12, 0.41]
    levels = sphere_levels(PP, 4)
    for derivs in (True, False):
        for m, level in enumerate(sphere_orbits(PP, levels, starts, derivs=derivs), 1):
            for i in range(levels[m].size):
                w = level_word(levels, m, i, PP)
                ys, ds = orbit_derivs(w, starts, PP)
                assert [a[i] for a in level] == [*ys, *ds][:len(level)]
                assert level[0][i] == word_values(w, starts[:1], PP)[0] == 1.0


def test_word_values_applies_letters_to_row_blocks(monkeypatch):
    # Points past _PARALLEL_MIN reach the letters in row blocks, on one
    # thread, and each block gets the bits it gets alone.
    pools, sizes = [], []
    blocks, value = dl.action.map_row_blocks, dl.action.letter_value
    monkeypatch.setattr(dl.action, "map_row_blocks", lambda fn, rows, threads, *args:
                        pools.append((rows, threads)) or blocks(fn, rows, threads, *args))
    monkeypatch.setattr(dl.action, "letter_value",
                        lambda g, sign, x: sizes.append(x.size) or value(g, sign, x))
    w = dl.word_from_text("f g^-1 f^-1 g g f", PP)
    xs = RNG.uniform(0.0, 1.0, (3, _PARALLEL_MIN // 2 + 5))
    got = word_values(w, xs, PP)
    assert pools == [(xs.size, 1)] and max(sizes) == _PARALLEL_MIN
    flat = xs.reshape(-1)
    alone = [word_values(w, flat[a:a + _PARALLEL_MIN], PP) for a in (0, _PARALLEL_MIN)]
    assert got.shape == xs.shape
    assert np.array_equal(got.reshape(-1).view(np.uint64), np.concatenate(alone).view(np.uint64))
    assert np.array_equal(word_values(EMPTY, xs, PP), xs)


@pytest.mark.parametrize("threads", [1, 3])
def test_map_row_blocks_thread_invariant(threads):
    g = PP["g"]
    xs = RNG.uniform(0.0, 1.0, _PARALLEL_MIN + 7)
    outs = [np.empty_like(xs), np.empty_like(xs)]

    def kernels(a, b):
        outs[0][a:b], outs[1][a:b] = g.inverse(xs[a:b]), g.deriv(xs[a:b])
        return a, b

    assert map_row_blocks(kernels, len(xs), threads) == \
        [(0, _PARALLEL_MIN), (_PARALLEL_MIN, _PARALLEL_MIN + 7)]
    assert np.array_equal(outs[0], g.inverse(xs))
    assert np.array_equal(outs[1], g.deriv(xs))
    # Flatten's candidate rows: 2-D, split along axis 0.
    w = random_word(PP, 6, np.random.default_rng(5))
    rows = RNG.uniform(0.0, 1.0, (_PARALLEL_MIN // 8 + 3, 9))
    out = np.empty_like(rows)

    def grow(a, b):
        out[a:b] = word_values(w, rows[a:b], PP)

    map_row_blocks(grow, len(rows), threads, rows.shape[1])
    assert np.array_equal(out, word_values(w, rows, PP))
