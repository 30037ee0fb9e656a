import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from damp_planner.dq_core import (
    FrequencyGrid,
    PoleHitError,
    TransferElement,
    evaluate,
)

W0 = 314.159  # rad/s


def notch_w0():
    # (s^2 + w0^2) / (s^2 + 2*xi*w0*s + w0^2), xi = 0.707
    return TransferElement((1.0, 0.0, W0**2), (1.0, 2 * 0.707 * W0, W0**2))


def test_notch_vanishes_at_fundamental():
    assert evaluate(notch_w0(), 1j * W0) == pytest.approx(0.0, abs=1e-12)


def test_notch_is_unity_at_dc():
    assert evaluate(notch_w0(), 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_notch_at_100_hz():
    # independent oracle: direct complex arithmetic on the two quadratics
    s = 1j * 2 * math.pi * 100.0
    expected = (s**2 + W0**2) / (s**2 + 2 * 0.707 * W0 * s + W0**2)
    assert expected == pytest.approx(0.5295 + 0.4991j, abs=5e-4)
    assert evaluate(notch_w0(), s) == pytest.approx(expected, rel=1e-14)


def test_evaluate_array_matches_scalar():
    tf = notch_w0()
    s = 1j * 2 * math.pi * np.array([10.0, 60.0, 500.0])
    arr = evaluate(tf, s)
    assert arr.shape == (3,)
    for sk, vk in zip(s, arr):
        assert evaluate(tf, sk) == vk


# (2 s^2 + 0.5 s + 1) / (s^3 + 3 s^2 + 7 s + 5), poles -1 and -1 +- 2j
REAL_TF = TransferElement((2.0, 0.5, 1.0), (1.0, 3.0, 7.0, 5.0))
REAL_TF_POLES = np.array([-1.0, -1.0 + 2.0j, -1.0 - 2.0j])


def test_pole_hit_raises():
    for tf, s in ((TransferElement((1.0,), (1.0, 0.0)), 0.0),  # 1/s
                  (REAL_TF, -1.0)):
        with pytest.raises(PoleHitError):
            evaluate(tf, s)


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        TransferElement((1.0,), (0.0, 0.0))


@given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
def test_conjugate_symmetry_for_real_coefficients(re, im):
    # real-coefficient elements commute with conjugation; s keeps at
    # least 1e-3 away from the poles, where evaluate raises PoleHitError
    s = complex(re, im)
    assume(np.min(np.abs(s - REAL_TF_POLES)) >= 1e-3)
    assert evaluate(REAL_TF, np.conj(s)) == pytest.approx(np.conj(evaluate(REAL_TF, s)),
                                                          rel=1e-12)


# --- frequency grid ---

def test_grid_regular():
    g = FrequencyGrid.regular(10.0, 2500.0, 1.0)
    assert len(g) == 2491
    assert g.frequencies[0] == 10.0
    assert g.frequencies[-1] == 2500.0


@pytest.mark.parametrize("fmin, fmax, df, n, last", [
    (10.0, 15.1, 2.0, 3, 14.0),
    (2.0, 4999.5, 2.0, 2499, 4998.0),
    (2.0, 5000.0, 5.0, 1000, 4997.0),
    (0.1, 0.3, 0.1, 3, 0.3),
    (10.0, 2500.0, 1.0, 2491, 2500.0),
    (2.0, 5000.0, 2.0, 2500, 5000.0),
    (5.0, 5.0, 1.0, 1, 5.0),
])
def test_grid_regular_stops_at_or_below_fmax(fmin, fmax, df, n, last):
    g = FrequencyGrid.regular(fmin, fmax, df)
    assert len(g) == n
    assert g.frequencies[-1] == last


@given(st.integers(1, 10**6), st.integers(0, 3), st.integers(1, 10**5), st.integers(0, 3),
       st.integers(0, 5000))
def test_grid_regular_spans_a_whole_decimal_span(fmin_units, fmin_places, df_units,
                                                 df_places, k):
    # fmin, df decimal; fmax = fmin + k df exactly, then rounded to a float
    fmin, df = Decimal(fmin_units).scaleb(-fmin_places), Decimal(df_units).scaleb(-df_places)
    g = FrequencyGrid.regular(float(fmin), float(fmin + k * df), float(df))
    assert len(g) == k + 1
    assert g.frequencies[-1] <= float(fmin + k * df)
    assert all(a < b for a, b in zip(g.frequencies, g.frequencies[1:]))


@pytest.mark.parametrize("freqs", [(), (0.0, 1.0), (10.0, 10.0), (20.0, 10.0)])
def test_grid_rejects_bad_frequencies(freqs):
    message = {(): "empty frequency grid", (0.0, 1.0): "must be > 0"}.get(
        freqs, "strictly increasing")
    with pytest.raises(ValueError, match=message):
        FrequencyGrid(freqs)


def test_grid_regular_equals_listed_frequencies():
    g = FrequencyGrid.regular(2.0, 5000.0, 2.0)
    listed = FrequencyGrid(tuple(2.0 + k * 2.0 for k in range(2500)))
    assert g.frequencies == listed.frequencies
    assert all(type(f) is float for f in g.frequencies)
    assert g == listed and hash(g) == hash(listed)


def test_grid_hz_is_one_read_only_array():
    g = FrequencyGrid((10.0, 20.0, 40.0))
    hz = g.hz
    assert hz is g.hz
    assert hz.tolist() == [10.0, 20.0, 40.0]
    with pytest.raises(ValueError):
        hz[0] = 5.0
    assert g == FrequencyGrid([10.0, 20.0, 40.0])
