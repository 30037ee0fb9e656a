import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import table_from_rows
from damp_planner.cli_reporting import CASE_STUDY_AD_PARAMS
from damp_planner.component_models import (
    ADParams,
    AdmittanceTable,
    GridImpedanceParams,
    InverterParams,
    PiCableParams,
    RlBranchParams,
    ad_scalar,
    cap_block,
    current_feedforward,
    inverter_block,
    rl_block,
)
from damp_planner.dq_core import FrequencyGrid, evaluate
from damp_planner.network_assembly import Branch, NetworkGraph, Shunt, assemble

W0 = 2 * math.pi * 50.0

INV = InverterParams(v_dc=750.0, l_h=2.5e-3, c_f=15e-6, i_d=50.0, i_q=0.0,
                     k_pi=10.0, k_ii=300.0, k_p_pll=6.0, k_i_pll=100.0,
                     f_s_hz=10e3, v_d0=311.0)

AD = dataclasses.replace(ADParams(**CASE_STUDY_AD_PARAMS), k_v=1.5)


# --- parameter invariants ---

def test_rl_rejects_double_zero():
    with pytest.raises(ValueError):
        RlBranchParams(0.0, 0.0)


@pytest.mark.parametrize("record", [RlBranchParams, GridImpedanceParams,
                                    lambda r, l: PiCableParams(r, l, 12e-6)],
                         ids=["rl", "grid", "pi_cable"])
@pytest.mark.parametrize("r, l, message", [
    (-0.1, 1e-3, "R and L must be >= 0"),
    (0.1, -1e-3, "R and L must be >= 0"),
    (0.0, 0.0, "R and L cannot both be zero"),
], ids=["negative-r", "negative-l", "zero-r-and-l"])
def test_series_rl_records_share_one_rule(record, r, l, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        record(r, l)


def test_pi_cable_needs_capacitance():
    with pytest.raises(ValueError):
        PiCableParams(0.1, 1e-3, 0.0)


def test_inverter_requires_positive_sampling():
    with pytest.raises(ValueError):
        dataclasses.replace(INV, f_s_hz=0.0)


def test_ad_mode_traditional_allowed():
    p = dataclasses.replace(AD, mode="traditional")
    assert p.mode == "traditional"
    with pytest.raises(ValueError):
        dataclasses.replace(AD, mode="other")


# --- passive stamps ---

def test_rl_stamp_line1_at_203_hz():
    # hand evaluation: w*L = 2*pi*203*1.5e-3, w0*L = 2*pi*50*1.5e-3
    b = rl_block(0.04, 1.5e-3, 203.0, W0)
    assert b[0, 0] == pytest.approx(0.04 + 1.9133j, abs=2e-4)
    assert b[1, 1] == b[0, 0]
    assert b[0, 1] == pytest.approx(-0.4712, abs=1e-4)
    assert b[1, 0] == pytest.approx(+0.4712, abs=1e-4)


def test_rl_stamp_dc_limit_without_rotation():
    b = rl_block(0.25, 3e-3, 1e-9, 0.0)
    assert b[0, 0] == pytest.approx(0.25, abs=1e-9)
    assert b[0, 1] == 0 and b[1, 0] == 0


def test_pi_cable_series_matches_rl():
    # the off-diagonal node blocks carry only -inv(series impedance)
    def coupling(model):
        g = NetworkGraph((1, 2), (Branch(1, 2, model),), (), W0)
        return assemble(g, 777.0)[0:2, 2:4]
    cab = PiCableParams(0.2, 0.3e-3, 12e-6)
    assert np.array_equal(coupling(cab), coupling(RlBranchParams(0.2, 0.3e-3)))


def test_pi_cable_shunt_end_values():
    # each end carries half the cable capacitance
    cab = PiCableParams(0.2, 0.3e-3, 12e-6)
    shunt = cap_block(cab.c_f / 2.0, 1000.0, W0)
    assert shunt[0, 0] == pytest.approx(1j * 2 * math.pi * 1000.0 * 6e-6, rel=1e-12)
    assert shunt[0, 1] == pytest.approx(-W0 * 6e-6, rel=1e-12)
    # the same cross term at any frequency
    shunt2 = cap_block(cab.c_f / 2.0, 123.0, W0)
    assert shunt2[0, 1] == shunt[0, 1]


@given(st.floats(0.0, 10.0), st.floats(1e-6, 0.1), st.floats(1.0, 4000.0))
def test_passive_stamps_are_dq_antisymmetric(r, l, f):
    b = rl_block(r, l, f, W0)
    assert b[0, 1] == pytest.approx(-b[1, 0], rel=1e-15)
    c = cap_block(4.7e-6, f, W0)
    assert c[0, 1] == pytest.approx(-c[1, 0], rel=1e-15)


# --- inverter model ---

def test_inverter_passive_limit_is_parallel_lc():
    # all controller and PLL gains zeroed, rotating-frame terms off
    p = dataclasses.replace(INV, k_pi=0.0, k_ii=0.0, k_p_pll=0.0, k_i_pll=0.0)
    for f in (13.0, 230.0, 1700.0):
        w = 2 * math.pi * f
        got = inverter_block(p, f, omega0=0.0)
        dd = 1j * w * p.c_f + 1.0 / (1j * w * p.l_h)
        assert got[0, 0] == pytest.approx(dd, rel=1e-10)
        assert got[1, 1] == pytest.approx(dd, rel=1e-10)
        assert abs(got[0, 1]) <= 1e-10 * abs(dd)
        assert abs(got[1, 0]) <= 1e-10 * abs(dd)


def test_inverter_high_frequency_filter_dominance():
    # well above the current-loop bandwidth the passive filter network
    # sets the scale of the dd admittance
    f = 2000.0
    w = 2 * math.pi * f
    passive = abs(1.0 / (1j * w * INV.l_h) + 1j * w * INV.c_f)
    got = abs(inverter_block(INV, f, W0)[0, 0])
    assert got == pytest.approx(passive, rel=0.25)


def test_inverter_pll_negative_damping_at_10_hz():
    assert inverter_block(INV, 10.0, W0)[1, 1].real < 0.0


def test_inverter_rejects_frequencies_at_nyquist():
    with pytest.raises(ValueError, match="f_s/2"):
        inverter_block(INV, INV.f_s_hz / 2.0, W0)
    with pytest.raises(ValueError):
        inverter_block(INV, np.array([0.0, 100.0]), W0)


# --- tabulated admittance ---

def test_table_exact_at_tabulated_frequency():
    rows = [(100.0, 1 + 0j, 0j, 0j, 1 + 0j), (1000.0, 3 + 0j, 0j, 0j, 3 + 0j)]
    t = table_from_rows(rows)
    assert t.query(100.0)[0, 0] == 1 + 0j
    assert t.query(1000.0)[0, 0] == 3 + 0j


def test_table_log_midpoint():
    rows = [(100.0, 1 + 0j, 0j, 0j, 1 + 0j), (1000.0, 3 + 0j, 0j, 0j, 3 + 0j)]
    t = table_from_rows(rows)
    mid = math.sqrt(100.0 * 1000.0)  # 316.23 Hz, halfway in log f
    assert t.query(mid)[0, 0] == pytest.approx(2 + 0j, rel=1e-9)


def test_table_out_of_range():
    t = table_from_rows(
        [(100.0, 1 + 0j, 0j, 0j, 1 + 0j), (1000.0, 3 + 0j, 0j, 0j, 3 + 0j)])
    with pytest.raises(ValueError):
        t.query(99.0)
    with pytest.raises(ValueError):
        t.query(1001.0)


@pytest.mark.parametrize("f_hz, first", [
    # a fleet-sized table queried by a 50-120 kHz sweep at 10 Hz
    (np.arange(50000.0, 120000.0 + 1.0, 10.0), 100010.0),
    (np.array([0.5, 0.25, 2.0]), 0.5),
    (2e5, 2e5),
])
def test_table_out_of_range_names_the_first_frequency(f_hz, first):
    t = table_from_rows(
        [(1.0, 1 + 0j, 0j, 0j, 1 + 0j), (1e5, 3 + 0j, 0j, 0j, 3 + 0j)])
    with pytest.raises(ValueError) as err:
        t.query(f_hz)
    assert str(err.value) == (f"query at {first} Hz outside tabulated range "
                              "[1.0, 100000.0] Hz")


def test_table_roundtrip_of_inverter_model(rng):
    # sample the model on a dense log grid, re-query off-grid: per-entry error
    # within 1% of the block scale
    grid = np.logspace(math.log10(10.0), math.log10(2500.0), 1200)
    t = AdmittanceTable(grid, inverter_block(INV, grid, W0))
    for f in rng.uniform(11.0, 2400.0, 40):
        exact = inverter_block(INV, float(f), W0)
        got = t.query(float(f))
        scale = float(np.max(np.abs(exact)))
        assert np.max(np.abs(got - exact)) <= 0.01 * scale


def test_table_csv_roundtrip(tmp_path):
    grid = np.logspace(1, 3, 30)
    t = AdmittanceTable(grid, inverter_block(INV, grid, W0))
    path = tmp_path / "inv.csv"
    t.to_csv(path)
    t2 = AdmittanceTable.from_csv(path)
    q1 = t.query(np.array([55.5, 432.1]))
    q2 = t2.query(np.array([55.5, 432.1]))
    assert np.allclose(q1, q2, rtol=1e-8, atol=0)


def test_table_rejects_single_row():
    with pytest.raises(ValueError):
        table_from_rows([(100.0, 1 + 0j, 0j, 0j, 1 + 0j)])


@pytest.mark.parametrize("row, message", [
    ((math.nan, 1 + 0j, 0j, 0j, 1 + 0j), "table row 1: non-finite frequency nan"),
    ((150.0, complex(math.nan, 0.0), 0j, 0j, 1 + 0j),
     "table row 1: non-finite dd entry at 150.0 Hz"),
    ((150.0, 1 + 0j, 0j, complex(0.0, math.inf), 1 + 0j),
     "table row 1: non-finite qd entry at 150.0 Hz"),
], ids=["nan-frequency", "nan-entry", "inf-entry"])
def test_table_rejects_a_non_finite_row_naming_it(row, message):
    # a NaN frequency would pass the ordering check, as NaN compares false
    rows = [(100.0, 1 + 0j, 0j, 0j, 1 + 0j), row, (1000.0, 3 + 0j, 0j, 0j, 3 + 0j)]
    with pytest.raises(ValueError) as err:
        table_from_rows(rows)
    assert str(err.value) == message


def test_table_csv_names_the_line_of_a_non_finite_value(tmp_path):
    path = tmp_path / "inv.csv"
    table_from_rows([(10.0, 1 + 0j, 0j, 0j, 1 + 0j),
                               (1000.0, 1 + 0j, 0j, 0j, 1 + 0j)]).to_csv(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:2], "152.75,nan,0,0,0,0,0,1,0", lines[2]]) + "\n")
    with pytest.raises(ValueError) as err:
        AdmittanceTable.from_csv(path)
    assert str(err.value) == f"{path}:3: re_dd = nan is not finite"


# --- active damper ---

def test_feedforward_coefficients_from_design_values():
    h = current_feedforward(0.06, 21991.13, 0.8e-3)
    slope, const = h.num
    assert slope == pytest.approx(-4.212e-5, rel=1e-3)
    assert const == pytest.approx(16.667, rel=1e-4)


def test_feedforward_realizes_the_intended_lowpass(rng):
    # 1/(s*L_f + H(s)) == gain*wc/(s + wc) exactly, by construction
    lf, gain, wc = 0.8e-3, 0.06, 21991.13
    h = current_feedforward(gain, wc, lf)
    s = rng.uniform(-1e4, 1e4, 100) + 1j * rng.uniform(-1e5, 1e5, 100)
    lhs = 1.0 / (s * lf + evaluate(h, s))
    rhs = gain * wc / (s + wc)
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-12


def test_ad_off_diagonals_are_exactly_zero():
    for mode in ("proposed", "traditional"):
        p = dataclasses.replace(AD, mode=mode)
        b = assemble(NetworkGraph((1,), (), (Shunt(1, p),), W0), 432.0)
        assert b[0, 1] == 0 and b[1, 0] == 0
        assert b[0, 0] == b[1, 1] == ad_scalar(p, [432.0], W0)[0]


@pytest.mark.parametrize("mode", ["proposed", "traditional"])
def test_ad_scalar_matches_closed_form(mode):
    # the damper admittance written out in complex arithmetic: the notch,
    # lag and low-pass of the damping path act at s + j*w0, the current
    # loop (PI, delay, feedforward through the low-pass) at s
    p = dataclasses.replace(AD, mode=mode)
    w0, xi, tau, beta = W0, p.xi, p.tau_s, p.beta
    w_low, w_c, gain, lf = p.omega_low_rad_s, p.omega_c_rad_s, p.gain_s, p.l_f_h
    for f in (37.0, 150.0, 432.0, 1234.5, 4321.0):
        s = 1j * 2 * math.pi * f
        sh = s + 1j * w0
        notch = (sh**2 + w0**2) / (sh**2 + 2 * xi * w0 * sh + w0**2)
        lag = (tau * sh + 1) / (beta * tau * sh + 1)
        g_v = notch * lag * w_low / (sh + w_low)
        delay = np.exp(-s * 1.5 / p.f_s_hz)
        den = s * lf + (p.k_pi + p.k_ii / s) * delay
        if mode == "proposed":
            h_i = (1 / (gain * w_c) - lf) * s + 1 / gain
            den += h_i * w_low / (s + w_low) * delay
        expected = (1 + p.k_v * g_v * delay) / den
        got = ad_scalar(p, [f], W0)[0]
        assert abs(got - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("mode", ["proposed", "traditional"])
def test_ad_scalar_is_affine_in_k_v(mode):
    # k_v enters only the numerator: Y(k_v) = a + k_v b, the premise of
    # calibrate_ad's closed form
    p = dataclasses.replace(AD, mode=mode)
    f = np.arange(10.0, 19990.0, 7.0)
    a = ad_scalar(dataclasses.replace(p, k_v=0.0), f, W0)
    b = ad_scalar(dataclasses.replace(p, k_v=1.0), f, W0) - a
    for k_v in (0.3, 1.407, 7.0, 40.0):
        y = ad_scalar(dataclasses.replace(p, k_v=k_v), f, W0)
        assert np.max(np.abs(y - (a + k_v * b)) / np.abs(y)) <= 1e-12


def test_ad_scalar_rejects_frequencies_at_nyquist():
    with pytest.raises(ValueError, match="f_s/2"):
        ad_scalar(AD, AD.f_s_hz / 2.0, W0)
    with pytest.raises(ValueError, match="f_s/2"):
        ad_scalar(AD, np.array([100.0, 30000.0]), W0)


def test_ad_scalar_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        ad_scalar(AD, np.array([0.0, 100.0]), W0)


@pytest.mark.parametrize("name, value, message", [
    ("k_v", math.nan, "k_v must be finite and >= 0, got nan"),
    ("k_v", math.inf, "k_v must be finite and >= 0, got inf"),
    ("k_v", -1.0, "k_v must be finite and >= 0, got -1.0"),
    ("l_f_h", math.nan, "except k_v must be finite and > 0"),
    ("gain_s", math.inf, "except k_v must be finite and > 0"),
    ("xi", 0.0, "except k_v must be finite and > 0"),
], ids=["k_v-nan", "k_v-inf", "k_v-negative", "l_f_h-nan", "gain_s-inf", "xi-zero"])
def test_ad_params_reject_non_finite_and_out_of_range_values(name, value, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(AD, **{name: value})


@pytest.mark.parametrize("k_v", [1.45, 1.6, 1.8, 2.0])
def test_ad_proposed_quasi_resistive_band(k_v):
    # admissible damper-gain range for the design parameter set
    p = dataclasses.replace(AD, k_v=k_v)
    f = np.arange(100.0, 2001.0, 1.0)
    y = ad_scalar(p, f, W0)
    ratio = np.abs(y.imag / y.real)
    assert np.min(y.real) > 0.0
    assert np.max(ratio) <= 0.1


def test_ad_traditional_loses_resistive_character():
    p = dataclasses.replace(AD, mode="traditional")
    f = np.arange(100.0, 2001.0, 1.0)
    y = ad_scalar(p, f, W0)
    ratio = np.abs(y.imag / y.real)
    assert np.max(ratio) > 1.0


def test_ad_curve_single_value_matches_ad_admittance():
    # one-frequency queries are bitwise identical to the curve's sweep
    grid = FrequencyGrid.regular(100.0, 500.0, 50.0)
    for f, y in zip(grid.hz, ad_scalar(AD, grid.hz, W0)):
        assert ad_scalar(AD, [float(f)], W0)[0] == y


def test_ad_curve_larger_kv_raises_conductance():
    grid = FrequencyGrid(( 500.0,))
    re = [float(ad_scalar(dataclasses.replace(AD, k_v=v), grid.hz, W0)[0].real)
          for v in (0.5, 1.0, 2.0)]
    assert re[0] < re[1] < re[2]


def test_ad_curve_smaller_gain_lowers_conductance():
    grid = FrequencyGrid((500.0,))
    re = [float(ad_scalar(dataclasses.replace(AD, gain_s=v), grid.hz, W0)[0].real)
          for v in (0.03, 0.06)]
    assert re[0] < re[1]
