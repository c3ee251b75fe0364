"""Ping-pong containment certificates and endpoint slope control."""

import numpy as np
import pytest

import diffeolab as dl
from diffeolab.certify import Interval, check_endpoint_slopes, check_pingpong, \
    positive_pair_separation, scan_endpoint_delta
from diffeolab.generators import blend, build_pp, mobius, spline
from diffeolab.words import enumerate_positive

PP = build_pp()
F, G = PP.generators
I = Interval(0.25, 0.35)
J = Interval(0.65, 0.75)


def test_reference_pair_certificate():
    cert = check_pingpong(F, G, I, J)
    assert cert.valid
    assert cert.margin >= 1e-3
    assert cert.violations == ()


def test_perturbed_knot_fails():
    # lifting the (0.9, 0.349) knot to 0.360 pushes the image bracket past I.hi
    f2 = spline("f", [(0.0, 0.0), (0.1, 0.251), (0.9, 0.360), (1.0, 1.0)])
    cert = check_pingpong(f2, G, I, J)
    assert not cert.valid
    assert any(v[2] == 0.360 and v[3] == 0.35 for v in cert.violations)


def test_overlapping_intervals_rejected():
    with pytest.raises(dl.PreconditionError):
        check_pingpong(F, G, Interval(0.2, 0.5), Interval(0.4, 0.7))


def test_same_map_has_no_certificate():
    f2 = spline("g", [(0.0, 0.0), (0.1, 0.251), (0.9, 0.349), (1.0, 1.0)])
    cert = check_pingpong(F, f2, I, J)
    assert not cert.valid


def test_certificate_separates_positive_words():
    cert = check_pingpong(F, G, I, J)
    assert cert.valid
    rng = np.random.default_rng(99)
    pool = list(enumerate_positive((F.id, G.id), 8))
    for _ in range(100):
        a, b = rng.choice(len(pool), size=2, replace=False)
        sep = positive_pair_separation(PP, pool[int(a)], pool[int(b)], I, J)
        assert sep >= 1e-9


def test_endpoint_slopes_pp_pass():
    delta = scan_endpoint_delta(PP, 1, 1.05)
    chk = check_endpoint_slopes(PP, 1, delta, 1.05)
    assert chk.passed and delta > 0


def test_endpoint_slopes_mobius_fails():
    # f'(1) = 1/2 sits far outside (1/1.05, 1.05) for every zone width
    S = dl.GeneratorSet([mobius("f", 2.0)])
    chk = check_endpoint_slopes(S, 1, 0.1, 1.05)
    assert not chk.passed
    with pytest.raises(dl.PreconditionError):
        scan_endpoint_delta(S, 1, 1.05)


def test_endpoint_slopes_identity_passes_wide():
    S = dl.GeneratorSet([blend("id", F, 0.0)])
    assert check_endpoint_slopes(S, 0, 0.49, 1.01).passed
    assert check_endpoint_slopes(S, 1, 0.49, 1.01).passed


def test_endpoint_slopes_validation():
    with pytest.raises(dl.DomainError):
        check_endpoint_slopes(PP, 2, 0.1, 1.05)
    with pytest.raises(dl.PreconditionError):
        check_endpoint_slopes(PP, 1, 0.6, 1.05)
    with pytest.raises(dl.PreconditionError):
        check_endpoint_slopes(PP, 1, 0.1, 0.99)


def test_interval_validation():
    with pytest.raises(dl.DomainError):
        Interval(0.5, 0.5)


def old_sampling(g, sign, x):
    """The endpoint scan's sample as it was before it took ``letter_step``:
    the letter's values y, then g'(x), or 1 / g'(y) at the unclipped y."""
    y = g.value(x) if sign > 0 else g.inverse(x)
    return y, g.deriv(x) if sign > 0 else 1.0 / g.deriv(y)


@pytest.mark.parametrize("pair", [(0.1, (0.40, 0.42), 3), (0.05, (0.40, 0.41), 3), None],
                         ids=["wreath", "wreath_fine", "pp"])
def test_endpoint_slopes_sample_bitwise_as_before(monkeypatch, pair):
    # At flatten's theta_N for eps 0.2, 0.1 and 0.05 (N = 6, 11, 21), over
    # every delta that scan_endpoint_delta tries on either side.
    S = PP if pair is None else dl.build_wreath_pair(*pair).generator_set
    checks = 0
    for n in (6, 11, 21):
        theta = 0.5 * (1.0 + 2.0 ** (1.0 / (2 * n)))
        for side in (0, 1):
            delta = 0.25
            while True:
                new = check_endpoint_slopes(S, side, delta, theta)
                with monkeypatch.context() as m:
                    m.setattr(dl.certify, "letter_step", old_sampling)
                    old = check_endpoint_slopes(S, side, delta, theta)
                assert (new.passed, new.worst_letter) == (old.passed, old.worst_letter)
                assert np.array([new.range_lo, new.range_hi]).tobytes() == \
                    np.array([old.range_lo, old.range_hi]).tobytes()
                checks += 1
                if new.passed:
                    break
                delta *= 0.5
            assert delta == scan_endpoint_delta(S, side, theta)
    assert checks > 6
