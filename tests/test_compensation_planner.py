import dataclasses
import math

import numpy as np
import pytest

from damp_planner.compensation_planner import (
    CalibrationInfeasibleError,
    CompensationCoefficient,
    PlanInfeasibleError,
    accumulate_alpha,
    calibrate_ad,
    compensation_coefficient,
    compensation_table,
    entry_sensitivity,
    plan,
    rank_locations,
    sensitivity,
    verify_with_ad,
)
from damp_planner.component_models import ADParams, CapacitorParams, GridImpedanceParams
from damp_planner.dq_core import FrequencyGrid
from damp_planner.network_assembly import NetworkGraph, Shunt, assemble
from damp_planner.stability_engine import _pick_matching_eig, analyze, eig_lr

W0 = 2 * math.pi * 50.0

AD_BASE = ADParams(v_dc=750.0, l_f_h=0.8e-3, k_pi=5.0, k_ii=100.0, xi=0.707,
                   tau_s=0.0014, beta=2.0, omega_low_rad_s=12566.36,
                   omega_c_rad_s=21991.13, gain_s=0.06, k_v=0.0, f_s_hz=40e3)


# --- sensitivity ---

def test_sensitivity_of_diagonal_matrix_entries():
    s = eig_lr(np.diag([3.0 + 0j, -1.0 + 0j]))
    ka = int(np.argmin(np.abs(s.lam - 3.0)))
    kb = 1 - ka
    assert entry_sensitivity(s, ka, 0) == pytest.approx(1.0 + 0j, abs=1e-14)
    assert entry_sensitivity(s, kb, 0) == pytest.approx(0.0 + 0j, abs=1e-14)


def test_sensitivity_matches_finite_difference(rng):
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    s0 = eig_lr(m)
    j = 3
    dalpha = 1e-6
    m2 = m.copy()
    m2[j, j] += dalpha
    s1 = eig_lr(m2)
    match = np.argmax(np.abs(s0.u @ s1.w), axis=1)
    for k in range(8):
        predicted = dalpha * entry_sensitivity(s0, k, j)
        actual = s1.lam[match[k]] - s0.lam[k]
        assert abs(predicted - actual) <= 1e-3 * abs(actual)


def test_susceptance_sensitivity_is_j_times_conductance_sensitivity(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    s = eig_lr(m)
    ent = sensitivity(s, 2, 1)
    assert ent.dlam_dsusceptance == 1j * ent.dlam_dalpha
    assert ent.dlam_dsusceptance.real == pytest.approx(-ent.s_im, abs=0)
    assert ent.dlam_dsusceptance.imag == pytest.approx(ent.s_re, abs=0)


def test_node_sensitivity_sums_both_axes(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    s = eig_lr(m)
    ent = sensitivity(s, 1, 1)
    assert ent.dlam_dalpha == pytest.approx(
        entry_sensitivity(s, 1, 2) + entry_sensitivity(s, 1, 3), abs=1e-15)


# --- compensation coefficients ---

def single_node_graph() -> NetworkGraph:
    return NetworkGraph((1,), (),
                        (Shunt(1, GridImpedanceParams(5.0, 1e-4)),
                         Shunt(1, CapacitorParams(10e-6))), W0)


def test_single_node_kc_is_exactly_one():
    g = single_node_graph()
    smp = eig_lr(assemble(g, 300.0), 300.0)
    for k in range(2):
        kc = compensation_coefficient(smp, k, 0)
        assert abs(kc.value - 1.0) <= 1e-10


def test_kc_sums_to_one_over_nodes_on_fixture(case_graph):
    grid = FrequencyGrid.regular(10.0, 2500.0, 1.0)
    _, traces, report = analyze(case_graph, grid)
    coeffs = compensation_table(case_graph, traces, report.critical_events)
    assert coeffs
    per_trace: dict[int, complex] = {}
    for c in coeffs:
        per_trace[c.trace_id] = per_trace.get(c.trace_id, 0j) + c.value
    for trace_id, total in per_trace.items():
        assert abs(total - 1.0) <= 1e-9, f"trace {trace_id}: {total}"


def test_fixture_dominant_nodes_split_low_vs_high(case_graph):
    grid = FrequencyGrid.regular(10.0, 2500.0, 1.0)
    _, traces, report = analyze(case_graph, grid)
    coeffs = compensation_table(case_graph, traces, report.critical_events)
    events = {e.trace_id: e for e in report.critical_events}
    low = [e.trace_id for e in events.values() if e.f_cr_hz < 400.0]
    high = [e.trace_id for e in events.values() if e.f_cr_hz > 1500.0]
    assert low and len(high) >= 2

    def dominant(trace_id):
        mine = [c for c in coeffs if c.trace_id == trace_id]
        return max(mine, key=lambda c: c.value.real).node_index

    for t in low:
        assert dominant(t) == case_graph.node_index(4)
    for t in high:
        assert dominant(t) == case_graph.node_index(3)


# --- ranking ---

def fake_kc(trace_id, node, value):
    return CompensationCoefficient(trace_id, node, 100.0, value)


def test_rank_single_eigenvalue_descends_by_re_kc():
    coeffs = [fake_kc(1, 0, 0.2 + 0j), fake_kc(1, 1, 0.7 + 0j), fake_kc(1, 2, 0.1 + 0j)]
    ranks = rank_locations(coeffs)
    assert [r.node_index for r in ranks] == [1, 0, 2]


def test_rank_uses_worst_case_over_eigenvalues():
    coeffs = [fake_kc(1, 0, 0.9 + 0j), fake_kc(2, 0, 0.05 + 0j),
              fake_kc(1, 1, 0.4 + 0j), fake_kc(2, 1, 0.4 + 0j)]
    ranks = rank_locations(coeffs)
    assert ranks[0].node_index == 1
    assert ranks[0].score == pytest.approx(0.4)


def test_rank_demand_weighting_prefers_the_hungry_mode():
    # node 0 is slightly better on worst-case Re[K_C], but node 1 serves
    # the eigenvalue that needs far more lift; demands flip the order
    coeffs = [fake_kc(1, 0, 0.27 + 0j), fake_kc(2, 0, 0.60 + 0j),
              fake_kc(1, 1, 0.70 + 0j), fake_kc(2, 1, 0.26 + 0j)]
    assert rank_locations(coeffs)[0].node_index == 0
    ranks = rank_locations(coeffs, demands={1: 0.03, 2: 0.01})
    assert ranks[0].node_index == 1


def test_rank_ties_break_on_node_id():
    coeffs = [fake_kc(1, 2, 0.5 + 0j), fake_kc(1, 0, 0.5 + 0j), fake_kc(1, 1, 0.5 + 0j)]
    assert [r.node_index for r in rank_locations(coeffs)] == [0, 1, 2]


# --- the accumulation loop ---

def test_accumulation_closed_form_linear_regime():
    # constant real coefficient: alpha must reach
    # ceil((eps - re0) / (dalpha * kc)) steps of the step grid
    alpha, iters, shift = accumulate_alpha(
        re_start=-0.0236, epsilon=0.005, dalpha=1e-3, kc_at=lambda a: 0.7672 + 0j)
    assert iters == 38
    assert alpha == pytest.approx(0.038, abs=1e-12)
    assert -0.0236 + shift.real >= 0.005


def test_accumulation_zero_iterations_when_already_above_margin():
    alpha, iters, shift = accumulate_alpha(0.02, 0.005, 1e-3, lambda a: 1.0 + 0j)
    assert (alpha, iters, shift) == (0.0, 0, 0j)


def test_accumulation_iteration_cap():
    with pytest.raises(PlanInfeasibleError, match="shortfall"):
        accumulate_alpha(-1.0, 0.005, 1e-3, lambda a: 1e-9 + 0j, max_iter=50)


def test_plan_on_stable_system_requires_nothing():
    g = single_node_graph()
    _, traces, report = analyze(g, FrequencyGrid.regular(10.0, 2000.0, 5.0))
    cplan = plan(g, 1, traces, report, epsilon=0.005)
    assert cplan.entries == ()
    assert cplan.required_re_yad_s == 0.0


def test_plan_monotone_in_epsilon(case_graph):
    grid = FrequencyGrid.regular(10.0, 2500.0, 1.0)
    _, traces, report = analyze(case_graph, grid)
    p1 = plan(case_graph, 4, traces, report, epsilon=0.003)
    p2 = plan(case_graph, 4, traces, report, epsilon=0.008)
    assert p2.required_re_yad_s >= p1.required_re_yad_s
    a1 = {e.trace_id: e.alpha_s for e in p1.entries}
    a2 = {e.trace_id: e.alpha_s for e in p2.entries}
    for t, a in a1.items():
        assert a2[t] >= a


def unstable_single_node_graph() -> NetworkGraph:
    # negative-conductance bump centered on the L-C resonance
    from damp_planner.component_models import AdmittanceTable
    f_tab = np.logspace(0.0, 5.0, 61)
    bump = -0.5 * np.exp(-(np.log(f_tab / 1600.0) / 0.5) ** 2)
    blocks = np.zeros((len(f_tab), 2, 2), dtype=complex)
    blocks[:, 0, 0] = bump
    blocks[:, 1, 1] = bump
    return NetworkGraph((1,), (),
                        (Shunt(1, GridImpedanceParams(0.5, 0.5e-3)),
                         Shunt(1, CapacitorParams(20e-6)),
                         Shunt(1, AdmittanceTable(f_tab, blocks))), W0)


def test_single_node_plan_first_order_is_exact():
    # K_C = 1 identically for one node, so the accumulated first-order
    # shift equals the exact spectral shift for any alpha
    g = unstable_single_node_graph()
    grid = FrequencyGrid.regular(10.0, 3000.0, 2.0)
    _, traces, report = analyze(g, grid)
    cplan = plan(g, 1, traces, report, epsilon=0.005)
    assert cplan.entries
    for e in cplan.entries:
        assert e.predicted_re == pytest.approx(e.re_lambda_start + e.alpha_s, abs=1e-9)
        assert e.f_cr_final_hz == pytest.approx(e.f_cr_start_hz, abs=0.5)
        lam = np.linalg.eigvals(assemble(g, e.f_cr_final_hz) + e.alpha_s * np.eye(2))
        k = int(np.argmin(np.abs(lam.imag)))
        assert lam[k].real == pytest.approx(e.predicted_re, abs=1e-6)


# --- calibration ---

def make_plan(required, lo=100.0, hi=2000.0):
    from damp_planner.compensation_planner import CompensationPlan, PlanEntry
    entry = PlanEntry(1, 3, lo + 50.0, lo + 50.0, -0.01, required, 1, 0.005)
    return CompensationPlan(0.005, 1e-3, 3, (entry,), lo, hi, required)


def test_calibrate_zero_requirement_returns_zero_gain():
    from damp_planner.compensation_planner import CompensationPlan
    empty = CompensationPlan(0.005, 1e-3, 0, (), 0.0, 0.0, 0.0)
    out = calibrate_ad(empty, AD_BASE)
    assert out.k_v == 0.0


def test_calibrate_meets_requirement_and_ratio(case_graph):
    from damp_planner.component_models import ad_scalar
    cplan = make_plan(0.05)
    out = calibrate_ad(cplan, AD_BASE)
    f = np.arange(100.0, 2001.0, 1.0)
    y = ad_scalar(out, f, W0)
    assert float(np.min(y.real)) >= 0.05
    assert float(np.max(np.abs(y.imag / y.real))) <= 0.1
    # smallest: stepping one resolution down must break a constraint
    down = dataclasses.replace(out, k_v=out.k_v - 2e-3)
    y2 = ad_scalar(down, f, W0)
    assert (float(np.min(y2.real)) < 0.05
            or float(np.max(np.abs(y2.imag / y2.real))) > 0.1)


def test_calibrate_infeasible_requirement_names_constraint():
    with pytest.raises(CalibrationInfeasibleError, match="unattainable|conflict"):
        calibrate_ad(make_plan(10.0), AD_BASE)


# --- end to end (small grid for speed; the full workflow runs in the
#     acceptance suite) ---

def test_fixture_plan_at_node_4_is_pinned(case_graph):
    # regression pin of the planner on the case-study fixture: per critical
    # trace the accumulation step count, the conductance and the final
    # crossover frequency, plus the calibrated damper gain
    _, traces, report = analyze(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))
    cplan = plan(case_graph, 4, traces, report, epsilon=0.005)
    got = [(e.trace_id, e.iterations, e.alpha_s, e.f_cr_final_hz)
           for e in cplan.entries]
    expected = [(8, 47, 0.047, 178.4933484235984),
                (5, 34, 0.034, 1755.7632246707185),
                (6, 46, 0.046, 1886.417827574692)]
    assert [g[:2] for g in got] == [x[:2] for x in expected]
    for (_, _, alpha, f_cr), (_, _, alpha_x, f_cr_x) in zip(got, expected):
        assert alpha == pytest.approx(alpha_x, rel=1e-12)
        assert abs(f_cr - f_cr_x) <= 1e-9
    assert calibrate_ad(cplan, AD_BASE).k_v == 1.4072265625
    # the pinned points are crossovers: an independent decomposition with
    # the conductance of the last located step, alpha_s - dalpha, installed
    # has the followed eigenvalue on the real axis
    p = 2 * case_graph.node_index(4)
    trace_by_id = {t.trace_id: t for t in traces}
    for trace_id, _, alpha, f_cr in expected:
        m = assemble(case_graph, f_cr)
        m[p, p] += alpha - cplan.dalpha_s
        m[p + 1, p + 1] += alpha - cplan.dalpha_s
        smp = eig_lr(m, f_cr)
        tr = trace_by_id[trace_id]
        u_ref = tr.u[int(np.searchsorted(tr.f_hz, f_cr))]
        lam = smp.lam[_pick_matching_eig(smp, u_ref)]
        assert abs(lam.imag) <= 1e-6 * max(1.0, abs(lam.real))


def test_verify_with_ad_stabilizes_fixture_at_top_node(case_graph):
    grid = FrequencyGrid.regular(10.0, 2500.0, 1.0)
    _, traces, report = analyze(case_graph, grid)
    cplan = plan(case_graph, 4, traces, report, epsilon=0.005)
    assert cplan.band_lo_hz == pytest.approx(100.0)
    assert cplan.band_hi_hz == pytest.approx(2000.0)
    assert cplan.required_re_yad_s == pytest.approx(0.05, rel=0.5)
    for e in cplan.entries:
        assert e.predicted_re >= 0.005
    calibrated = calibrate_ad(cplan, AD_BASE)
    report = verify_with_ad(case_graph, 4, calibrated, grid)
    assert report.stable
