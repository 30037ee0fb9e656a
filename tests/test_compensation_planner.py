import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import make_random_small_system
from damp_planner import compensation_planner
from damp_planner.cli_reporting import CASE_STUDY_AD_PARAMS, emit_fixture, load_network
from damp_planner.compensation_planner import (
    CalibrationInfeasibleError,
    CompensationCoefficient,
    CompensationPlan,
    DegenerateEigenvalueWarning,
    PlanEntry,
    PlanInfeasibleError,
    calibrate_ad,
    compensation_coefficient,
    compensation_table,
    plan,
    rank_locations,
    verify_with_ad,
)
from damp_planner.component_models import ADParams, CapacitorParams, GridImpedanceParams
from damp_planner.dq_core import FrequencyGrid
from damp_planner.network_assembly import NetworkGraph, Shunt, assemble, assemble_grid
from damp_planner.stability_engine import (
    BisectionError,
    CrossoverEvent,
    StabilityReport,
    _pick_matching_eig,
    analyze,
    eig_lr,
    eig_lr_batch,
    refine_crossovers,
)

W0 = 2 * math.pi * 50.0

AD_BASE = ADParams(**CASE_STUDY_AD_PARAMS)


# --- sensitivity ---

def test_sensitivity_of_diagonal_matrix_entries():
    # nodes 0 and 1 own rows (0, 1) and (2, 3): K_C of an eigenvalue is 1
    # at the node of its diagonal entry and 0 at the other
    s = eig_lr(np.diag([3.0 + 0j, -1.0 + 0j, 2.0 + 1j, 5.0 + 0j]))
    for entry, lam in enumerate((3.0, -1.0, 2.0 + 1j, 5.0)):
        k = int(np.argmin(np.abs(s.lam - lam)))
        for node in range(2):
            expected = 1.0 if node == entry // 2 else 0.0
            assert compensation_coefficient(s, k, node).value == pytest.approx(
                expected + 0j, abs=1e-14)


def test_sensitivity_matches_finite_difference(rng):
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    s0 = eig_lr(m)
    node = 1
    dalpha = 1e-6
    m2 = m.copy()
    m2[2 * node, 2 * node] += dalpha
    m2[2 * node + 1, 2 * node + 1] += dalpha
    s1 = eig_lr(m2)
    match = np.argmax(np.abs(s0.u @ s1.w), axis=1)
    for k in range(8):
        predicted = dalpha * compensation_coefficient(s0, k, node).value
        actual = s1.lam[match[k]] - s0.lam[k]
        assert abs(predicted - actual) <= 1e-3 * abs(actual)


def test_node_sensitivity_sums_both_axes(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    s = eig_lr(m)
    d_axis, q_axis = s.u[1, 2] * s.w[2, 1], s.u[1, 3] * s.w[3, 1]
    assert compensation_coefficient(s, 1, 1).value == pytest.approx(d_axis + q_axis, abs=1e-15)


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
    coeffs = compensation_table(case_graph, report.critical_events)
    assert coeffs
    per_trace: dict[int, complex] = {}
    for c in coeffs:
        per_trace[c.trace_id] = per_trace.get(c.trace_id, 0j) + c.value
    for trace_id, total in per_trace.items():
        assert abs(total - 1.0) <= 1e-9, f"trace {trace_id}: {total}"


def test_fixture_dominant_nodes_split_low_vs_high(case_graph):
    grid = FrequencyGrid.regular(10.0, 2500.0, 1.0)
    _, traces, report = analyze(case_graph, grid)
    coeffs = compensation_table(case_graph, report.critical_events)
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


def left_vector_near(spec, tr, f_hz):
    """The trace's left eigenvector in the swept spec at the first swept
    frequency >= f_hz (the last one when f_hz lies beyond the sweep): the
    lookup by trace id that K_C and the planner's seeds used before events
    carried their decomposition."""
    t = min(int(np.searchsorted(tr.f_hz, f_hz)), len(tr) - 1)
    return spec.u[t, tr.eig_index[t]]


def reference_compensation_table(g, spec, traces, events):
    """compensation_table as a re-decomposition: each critical crossover's
    matrix re-assembled and decomposed, the eigenvalue picked by overlap
    with its trace's left eigenvector near f_cr."""
    trace_by_id = {t.trace_id: t for t in traces}
    out = []
    for ev in events:
        if ev.verdict == "critical":
            smp = eig_lr(assemble(g, ev.f_cr_hz), ev.f_cr_hz)
            k = _pick_matching_eig(left_vector_near(spec, trace_by_id[ev.trace_id], ev.f_cr_hz),
                                   smp.w)
            out += [compensation_coefficient(smp, k, pos, trace_id=ev.trace_id)
                    for pos in range(g.n)]
    return out


def test_kc_from_events_equals_re_decomposition_on_fixture(case_graph):
    spec, traces, report = analyze(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))
    got = compensation_table(case_graph, report.events)
    assert len(got) == 3 * case_graph.n
    assert got == reference_compensation_table(case_graph, spec, traces, report.events)


def test_kc_from_events_equals_re_decomposition_on_random_systems():
    grid = FrequencyGrid.regular(2.0, 5000.0, 2.0)
    n = 0
    for seed in range(40):
        g = make_random_small_system(seed)
        spec, traces, report = analyze(g, grid)
        got = compensation_table(g, report.events)
        assert got == reference_compensation_table(g, spec, traces, report.events), f"seed {seed}"
        n += len(got)
    assert n > 40


def test_compensation_table_decomposes_nothing(case_graph, monkeypatch):
    _, _, report = analyze(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))
    calls = []
    real = np.linalg.eig

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    assert compensation_table(case_graph, report.events)
    assert calls == []


def test_compensation_table_warns_on_a_degenerate_crossing():
    smp = eig_lr(np.diag([1.0, 1.0, 2.0, 3.0]), 42.0)
    ev = CrossoverEvent(1, 42.0, -0.01, "rising", "critical", smp, 0)
    with pytest.warns(DegenerateEigenvalueWarning, match="f=42.0"):
        compensation_table(NetworkGraph((1, 2), (), ()), [ev])


# --- ranking ---

def fake_kc(trace_id, node, value, re_lambda=-0.01):
    return CompensationCoefficient(trace_id, node, 100.0, value, re_lambda)


def test_rank_single_eigenvalue_descends_by_re_kc():
    coeffs = [fake_kc(1, 0, 0.2 + 0j), fake_kc(1, 1, 0.7 + 0j), fake_kc(1, 2, 0.1 + 0j)]
    ranks = rank_locations(coeffs, 0.005)
    assert [r.node_index for r in ranks] == [1, 0, 2]


def test_rank_uses_worst_case_over_eigenvalues():
    coeffs = [fake_kc(1, 0, 0.9 + 0j), fake_kc(2, 0, 0.05 + 0j),
              fake_kc(1, 1, 0.4 + 0j), fake_kc(2, 1, 0.4 + 0j)]
    ranks = rank_locations(coeffs, 0.005)
    assert ranks[0].node_index == 1
    assert ranks[0].score == pytest.approx(0.4 / 0.015)


def test_rank_demand_weighting_prefers_the_hungry_mode():
    # node 0 is slightly better on worst-case Re[K_C], but node 1 serves
    # the eigenvalue that needs far more lift; the lifts flip the order
    def coeffs(re_1, re_2):
        return [fake_kc(1, 0, 0.27 + 0j, re_1), fake_kc(2, 0, 0.60 + 0j, re_2),
                fake_kc(1, 1, 0.70 + 0j, re_1), fake_kc(2, 1, 0.26 + 0j, re_2)]

    assert rank_locations(coeffs(-0.01, -0.01), 0.005)[0].node_index == 0
    ranks = rank_locations(coeffs(0.005 - 0.03, 0.005 - 0.01), 0.005)
    assert ranks[0].node_index == 1


def test_rank_ties_break_on_node_id():
    coeffs = [fake_kc(1, 2, 0.5 + 0j), fake_kc(1, 0, 0.5 + 0j), fake_kc(1, 1, 0.5 + 0j)]
    assert [r.node_index for r in rank_locations(coeffs, 0.005)] == [0, 1, 2]


def test_rank_weighs_each_crossing_by_its_own_lift():
    """make_random_small_system(31) has two traces with two critical
    crossings each; every crossing's Re[K_C] is divided by its own lift,
    not by the lift of its trace's last crossing."""
    g = make_random_small_system(31)
    _, _, report = analyze(g, FrequencyGrid.regular(2.0, 5000.0, 2.0))
    crossings_per_trace = [sum(e.trace_id == t for e in report.critical_events)
                           for t in report.critical_trace_ids]
    assert crossings_per_trace.count(2) == 2
    ranks = rank_locations(compensation_table(g, report.critical_events), 0.005)
    score = {g.nodes[r.node_index]: r.score for r in ranks}
    assert score[2] == pytest.approx(1.3264, abs=1e-4)
    assert score[1] == pytest.approx(0.0129, abs=1e-4)


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


@pytest.mark.parametrize("dalpha", [1e-3, 5e-3])
def test_single_node_plan_steps_are_closed_form(dalpha):
    # K_C = 1 for one node: each crossover needs the smallest k with
    # Re[lambda] + k * dalpha >= epsilon
    g = unstable_single_node_graph()
    _, traces, report = analyze(g, FrequencyGrid.regular(10.0, 3000.0, 2.0))
    cplan = plan(g, 1, traces, report, epsilon=0.005, dalpha=dalpha)
    assert len(cplan.entries) == 2
    for e in cplan.entries:
        assert e.iterations == math.ceil((0.005 - e.re_lambda_start) / dalpha)
        assert e.alpha_s == pytest.approx(e.iterations * dalpha, abs=1e-12)
        assert e.predicted_re >= 0.005


def test_plan_takes_no_step_for_a_crossing_already_above_epsilon():
    # the crossing marked critical by hand, but Re[lambda] = 0.2 S already
    # meets epsilon = 0.005 S
    g = single_node_graph()
    _, traces, stable = analyze(g, FrequencyGrid.regular(10.0, 2000.0, 5.0))
    report = StabilityReport(tuple(dataclasses.replace(e, verdict="critical")
                                   for e in stable.events))
    assert [e.verdict for e in report.events] == ["critical"]
    assert report.events[0].re_lambda >= 0.005
    [e] = plan(g, 1, traces, report, epsilon=0.005).entries
    assert (e.iterations, e.alpha_s) == (0, 0.0)
    assert e.predicted_re == report.events[0].re_lambda


def test_plan_iteration_cap_names_the_short_crossover(monkeypatch):
    g = make_random_small_system(5)
    _, traces, report = analyze(g, FrequencyGrid.regular(2.0, 5000.0, 5.0))
    monkeypatch.setattr(compensation_planner, "_MAX_STEPS", 50)
    with pytest.raises(PlanInfeasibleError,
                       match=r"cap 50 reached for trace 6 \(crossover starting at 960\.997 Hz\)"
                             r"; shortfall .* at alpha=0\.5 S"):
        plan(g, 1, traces, report, 0.005, 0.01)


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
    down = dataclasses.replace(out, k_v=out.k_v - compensation_planner._K_V_RESOLUTION)
    y2 = ad_scalar(down, f, W0)
    assert (float(np.min(y2.real)) < 0.05
            or float(np.max(np.abs(y2.imag / y2.real))) > 0.1)


@pytest.mark.parametrize("required, lo, hi, k_v", [
    (0.095, 200.0, 2000.0, 2.049),  # feasible gains [2.0485, 2.1623]
    (0.14, 500.0, 1000.0, 3.919),  # feasible gains [3.9189, 3.9361]
], ids=["200-2000Hz", "500-1000Hz"])
def test_calibrate_finds_a_narrow_feasible_interval(required, lo, hi, k_v):
    # both intervals fall between two multiples of 0.25, so a coarse scan
    # at that step finds no feasible gain
    from damp_planner.component_models import ad_scalar
    out = calibrate_ad(make_plan(required, lo, hi), AD_BASE)
    assert out.k_v == k_v
    f = np.arange(lo, hi + 0.5, 1.0)
    y = ad_scalar(out, f, W0)
    assert float(np.min(y.real)) >= required
    assert float(np.max(np.abs(y.imag / y.real))) <= 0.1


def test_calibrate_infeasible_requirement_names_constraint():
    # Re[Y] >= 10 S needs k_v far above the quasi-resistive bound's limit
    with pytest.raises(CalibrationInfeasibleError, match="conflict"):
        calibrate_ad(make_plan(10.0), AD_BASE)


def test_calibrate_unattainable_requirement_names_constraint():
    # around 2.6-7.1 kHz raising k_v lowers Re[Y] of the proposed damper,
    # which stays below 1 S there at k_v = 0: no gain reaches 1 S
    with pytest.raises(CalibrationInfeasibleError, match="1 S unattainable over"):
        calibrate_ad(make_plan(1.0, 2000.0, 3000.0), AD_BASE)


# --- end to end (small grid for speed; the full workflow runs in the
#     acceptance suite) ---

def test_fixture_plan_at_node_4_is_pinned(case_graph):
    # regression pin of the planner on the case-study fixture: per critical
    # trace the accumulation step count, the conductance and the final
    # crossover frequency, plus the calibrated damper gain
    spec, traces, report = analyze(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))
    cplan = plan(case_graph, 4, traces, report, epsilon=0.005)
    got = [(e.trace_id, e.iterations, e.alpha_s, e.f_cr_final_hz)
           for e in cplan.entries]
    expected = [(8, 47, 0.047, 178.4865853631394),
                (5, 34, 0.034, 1755.1238516446276),
                (6, 46, 0.046, 1885.5985527731548)]
    assert [g[:2] for g in got] == [x[:2] for x in expected]
    for (_, _, alpha, f_cr), (_, _, alpha_x, f_cr_x) in zip(got, expected):
        assert alpha == pytest.approx(alpha_x, rel=1e-12)
        assert abs(f_cr - f_cr_x) <= 1e-9
    assert calibrate_ad(cplan, AD_BASE).k_v == 1.407
    # the pinned points are crossovers: an independent decomposition with
    # the planned conductance alpha_s installed has the followed eigenvalue
    # on the real axis
    p = 2 * case_graph.node_index(4)
    trace_by_id = {t.trace_id: t for t in traces}
    for trace_id, _, alpha, f_cr in expected:
        m = assemble(case_graph, f_cr)
        m[p, p] += alpha
        m[p + 1, p + 1] += alpha
        smp = eig_lr(m, f_cr)
        tr = trace_by_id[trace_id]
        t = int(np.searchsorted(tr.f_hz, f_cr))
        u_ref = spec.u[t, tr.eig_index[t]]
        lam = smp.lam[_pick_matching_eig(u_ref, smp.w)]
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


def test_calibration_takes_the_planned_network_fundamental(tmp_path):
    """The fixture re-declared at 60 Hz and planned at node 4: the plan
    carries the 60 Hz fundamental, at which no damper gain meets both
    bounds over the band; the same plan at 50 Hz calibrates."""
    doc = json.loads(emit_fixture(tmp_path / "fx.json").read_text())
    doc["fundamental_hz"] = 60.0
    (tmp_path / "fx60.json").write_text(json.dumps(doc))
    g = load_network(tmp_path / "fx60.json")
    _, traces, report = analyze(g, FrequencyGrid.regular(10.0, 2500.0, 1.0))
    cplan = plan(g, 4, traces, report, epsilon=0.005)
    assert cplan.omega0 == g.omega0 == 2 * math.pi * 60.0
    with pytest.raises(CalibrationInfeasibleError,
                       match=r"^conductance requirement 0\.044 S and quasi-resistive bound "
                             r"\|Im/Re\| <= 0\.1 conflict over \[100\.0, 2000\.0\] Hz$"):
        calibrate_ad(cplan, AD_BASE)
    assert calibrate_ad(dataclasses.replace(cplan, omega0=W0), AD_BASE).k_v == 1.407


# --- lockstep planning against the per-trace loop ---

def reference_plan(g, node_id, spec, traces, report, epsilon, dalpha=1e-3, predicted=True):
    """plan as the per-trace loop: each critical crossover followed alone,
    one one-bracket locator run per try.  Try 0 is the 2-point bracket of
    half-width max(|df| / 4, 0.05 Hz) around f_cr + df, df being the move
    of the last locate (0 when it took a window wider than 50 Hz); the
    tries after it scan 9-point windows of half-width 50, 100, ... Hz.
    predicted=False leaves out try 0: the scan-only loop the predicted
    bracket replaced."""
    node_index = g.node_index(node_id)
    p = 2 * node_index
    f_lo, f_hi = float(traces[0].f_hz[0]), float(traces[0].f_hz[-1])
    trace_by_id = {t.trace_id: t for t in traces}

    def matrices_at(fs, alpha):
        m = assemble_grid(g, fs)
        m[:, p, p] += alpha
        m[:, p + 1, p + 1] += alpha
        return m

    def scans(state):
        # (attempt, scan points) of each try, the windows around the f_cr
        # of the moment
        if predicted:
            centre = state["f_cr"] + state["df"]
            half = max(abs(state["df"]) / 4.0, 0.05)
            yield 0, np.linspace(*np.clip((centre - half, centre + half), f_lo, f_hi), 2)
        window = 50.0
        for attempt in range(1, 9):
            yield attempt, np.linspace(max(f_lo, state["f_cr"] - window),
                                       min(f_hi, state["f_cr"] + window), 9)
            window *= 2.0

    def locate(state, alpha):
        for attempt, points in scans(state):
            fs = [float(f) for f in points]
            spec = eig_lr_batch(matrices_at(fs, alpha), fs)
            picked = np.argmax(np.abs(state["u_ref"] @ spec.w), axis=-1)
            ims = spec.lam[np.arange(len(fs)), picked].imag
            steps = np.flatnonzero((ims[:-1] == 0) | (ims[:-1] * ims[1:] < 0))
            if steps.size:
                i = min(steps, key=lambda i: abs(0.5 * (fs[i] + fs[i + 1]) - state["f_cr"]))
                [found] = refine_crossovers(lambda fs: matrices_at(fs, alpha),
                                            [(fs[i], fs[i + 1], ims[i], ims[i + 1],
                                              state["u_ref"])])
                if not isinstance(found, BisectionError):
                    smp, j = found
                    state["df"] = smp.f_hz - state["f_cr"] if attempt <= 1 else 0.0
                    state["f_cr"], state["u_ref"] = smp.f_hz, smp.u[j]
                    return found
        raise PlanInfeasibleError(
            f"lost the critical crossover near {state['f_cr']} Hz at alpha={alpha} S")

    entries = []
    for ev in (e for e in report.events if e.verdict == "critical"):
        # seeded by the trace-id lookup, not the event's decomposition
        state = {"f_cr": ev.f_cr_hz, "df": 0.0,
                 "u_ref": left_vector_near(spec, trace_by_id[ev.trace_id], ev.f_cr_hz)}
        alpha, iters, shift = 0.0, 0, 0j
        while ev.re_lambda + shift.real < epsilon:
            shift += dalpha * compensation_coefficient(*locate(state, alpha), node_index).value
            alpha += dalpha
            iters += 1
        final, _ = locate(state, alpha)
        entries.append(PlanEntry(ev.trace_id, node_index, ev.f_cr_hz, final.f_hz,
                                 ev.re_lambda, alpha, iters, ev.re_lambda + shift.real))
    if not entries:
        return CompensationPlan(epsilon, dalpha, node_index, (), 0.0, 0.0, 0.0)
    f_all = [e.f_cr_start_hz for e in entries] + [e.f_cr_final_hz for e in entries]
    return CompensationPlan(epsilon, dalpha, node_index, tuple(entries),
                            max(1.0, math.floor(min(f_all) / 100.0) * 100.0),
                            math.ceil(max(f_all) / 100.0) * 100.0,
                            max(e.alpha_s for e in entries))


@pytest.fixture(scope="module")
def fixture_baseline(case_graph):
    return analyze(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))


@pytest.mark.parametrize("node", [4, 3])
@pytest.mark.parametrize("dalpha", [1e-3, 5e-3])
def test_lockstep_plan_equals_per_trace_loop_on_fixture(case_graph, fixture_baseline,
                                                        node, dalpha):
    spec, traces, report = fixture_baseline
    got = plan(case_graph, node, traces, report, 0.005, dalpha)
    assert len(got.entries) == 3
    assert got == reference_plan(case_graph, node, spec, traces, report, 0.005, dalpha)


# (seed, node id) of make_random_small_system networks with at least two
# nodes and two critical crossovers whose plan at that node is feasible
RANDOM_PLANS = [(3, 1), (5, 2), (7, 2), (12, 1), (13, 2), (22, 1), (24, 1), (32, 3),
                (40, 2), (45, 3)]


@pytest.mark.parametrize("seed, node", RANDOM_PLANS)
def test_lockstep_plan_equals_per_trace_loop_on_random_systems(seed, node):
    g = make_random_small_system(seed)
    spec, traces, report = analyze(g, FrequencyGrid.regular(2.0, 5000.0, 5.0))
    assert g.n >= 2 and len(report.critical_events) >= 2
    got = plan(g, node, traces, report, 0.005, 5e-3)
    assert got.entries
    assert got == reference_plan(g, node, spec, traces, report, 0.005, 5e-3)


@pytest.mark.parametrize("node", [4, 3])
@pytest.mark.parametrize("dalpha", [1e-3, 5e-3])
def test_predicted_brackets_keep_the_scan_only_plan_on_fixture(case_graph, fixture_baseline,
                                                               node, dalpha):
    """Against the scan-only loop the predicted bracket replaced: the same
    followed crossovers, step counts and band, and crossovers that moved
    only within the locator's tolerance."""
    spec, traces, report = fixture_baseline
    got = plan(case_graph, node, traces, report, 0.005, dalpha)
    old = reference_plan(case_graph, node, spec, traces, report, 0.005, dalpha, predicted=False)
    assert ([(e.trace_id, e.iterations, e.alpha_s) for e in got.entries]
            == [(e.trace_id, e.iterations, e.alpha_s) for e in old.entries])
    assert ((got.band_lo_hz, got.band_hi_hz, got.required_re_yad_s)
            == (old.band_lo_hz, old.band_hi_hz, old.required_re_yad_s))
    for e, o in zip(got.entries, old.entries):
        assert abs(e.f_cr_final_hz - o.f_cr_final_hz) <= 5e-3
        assert abs(e.predicted_re - o.predicted_re) <= 1e-8


def test_plan_decomposes_two_points_per_follower_per_step(case_graph, fixture_baseline,
                                                          monkeypatch):
    # the scan-only loop took 128 batches of 1 332 points in all
    _, traces, report = fixture_baseline
    sizes = []
    real = compensation_planner.assemble_grid

    def counted(g, fs):
        sizes.append(len(fs))
        return real(g, fs)

    monkeypatch.setattr(compensation_planner, "assemble_grid", counted)
    plan(case_graph, 4, traces, report, 0.005)
    assert len(sizes) <= 100
    assert sum(sizes) <= 400


def test_predicted_bracket_stays_on_a_close_crossing_pair(monkeypatch):
    """make_random_small_system(24) at node 1: at alpha = 0.72 S trace 3's
    crossover near 1000.23 Hz has a second crossing 2.3 Hz below it.  The
    scan-only loop's 50 Hz window (12.5 Hz spacing) steps over the pair
    and jumps to a crossover near 827.5 Hz, where trace 3 reaches epsilon
    two steps earlier; the predicted bracket stays on the pair."""
    g = make_random_small_system(24)
    spec, traces, report = analyze(g, FrequencyGrid.regular(2.0, 5000.0, 5.0))
    real_locate_all = compensation_planner._locate_all
    followers, at_072 = [], {}

    def recorded(located, alpha, *args):
        out = real_locate_all(located, alpha, *args)
        if not followers:  # the locate at alpha 0 has them all, in entry order
            followers.extend(located)
        if alpha == pytest.approx(0.72, abs=1e-9):
            at_072.update({id(f): res for f, res in zip(located, out)})
        return out

    monkeypatch.setattr(compensation_planner, "_locate_all", recorded)
    got = plan(g, 1, traces, report, 0.005, 5e-3)
    old = reference_plan(g, 1, spec, traces, report, 0.005, 5e-3, predicted=False)

    [i] = [k for k, e in enumerate(got.entries) if e.trace_id == 3]
    assert (got.entries[i].iterations, old.entries[i].iterations) == (194, 192)
    assert got.entries[i].alpha_s == pytest.approx(0.97, abs=1e-9)
    assert old.entries[i].alpha_s == pytest.approx(0.96, abs=1e-9)
    smp, j = at_072[id(followers[i])]
    assert smp.f_hz == pytest.approx(1000.23, abs=0.01)
    # an independent decomposition with the conductance installed has an
    # eigenvalue on the real axis there: the followed one
    m = assemble(g, smp.f_hz)
    m[0, 0] += 0.72
    m[1, 1] += 0.72
    lam = np.linalg.eigvals(m)
    k = int(np.argmin(np.abs(lam - smp.lam[j])))
    assert abs(lam[k] - smp.lam[j]) <= 1e-6
    assert abs(lam[k].imag) <= 1e-6 * max(1.0, abs(lam[k].real))


def test_failed_bracket_widens_only_its_own_window(case_graph, fixture_baseline, monkeypatch):
    """At alpha = 0, matrices near the low-frequency crossover have Im
    jump over zero, so that follower's predicted bracket and its 50 Hz
    window fail; it is located at 100 Hz, the other followers try the
    same windows as in the unbroken plan, and the plan matches it."""
    _, traces, report = fixture_baseline
    low = min(report.critical_events, key=lambda e: e.f_cr_hz)
    failures = []
    broken = [False]
    follower_cls = compensation_planner._CriticalFollower
    matrices_at, window, refine = (compensation_planner._with_conductance, follower_cls.window,
                                   compensation_planner.refine_crossovers)

    def jumping_matrices_at(g, node_index, fs, alpha):
        m = matrices_at(g, node_index, fs, alpha)
        if broken[0] and alpha == 0.0:
            # push the followed Im away from zero on both sides of the
            # crossover, so regula falsi never meets the tolerance
            sign = 1.0 if low.direction == "rising" else -1.0
            for k, f in enumerate(fs):
                if abs(f - low.f_cr_hz) < 5.0:
                    side = 1.0 if f >= low.f_cr_hz else -1.0
                    m[k] += 1e-3j * sign * side * np.eye(len(m[k]))
        return m

    def recorded_window(self, attempt, f_bounds):
        tries.setdefault(id(self), []).append((self.f_cr, attempt))
        if attempt > 1:
            broken[0] = False
        return window(self, attempt, f_bounds)

    def recorded_refine(*args, **kwargs):
        out = refine(*args, **kwargs)
        failures.extend(r for r in out if isinstance(r, BisectionError))
        return out

    monkeypatch.setattr(compensation_planner, "_with_conductance", jumping_matrices_at)
    monkeypatch.setattr(follower_cls, "window", recorded_window)
    monkeypatch.setattr(compensation_planner, "refine_crossovers", recorded_refine)
    tries: dict = {}
    expected = plan(case_graph, 4, traces, report, 0.005, 5e-3)
    unbroken = list(tries.values())
    assert not failures
    tries, broken[0] = {}, True
    got = plan(case_graph, 4, traces, report, 0.005, 5e-3)
    broken_run = list(tries.values())

    assert len(failures) == 2
    [k] = [k for k, e in enumerate(report.critical_events) if e is low]
    # the first locate: the low follower's predicted bracket, then its
    # 50 Hz and 100 Hz windows; the others as without the break
    assert broken_run[k][:3] == [(low.f_cr_hz, 0), (low.f_cr_hz, 1), (low.f_cr_hz, 2)]
    assert unbroken[k][0] == (low.f_cr_hz, 0)
    assert [t for i, t in enumerate(broken_run) if i != k] == [
        t for i, t in enumerate(unbroken) if i != k]
    assert ([(e.trace_id, e.iterations, e.alpha_s) for e in got.entries]
            == [(e.trace_id, e.iterations, e.alpha_s) for e in expected.entries])


def scalar_matrices_at(lam_at, sizes):
    """matrices_at(fs, alpha) of the 1x1 system whose eigenvalue is
    lam_at(f) whatever alpha, recording the points of every call."""
    def matrices_at(fs, alpha):
        sizes.append(len(fs))
        return np.array([[[lam_at(f)]] for f in fs])
    return matrices_at


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["falling", "rising"])
def test_follower_takes_an_on_axis_scan_point_as_its_crossing(sign):
    """Im[lambda] = +-(f - 100) S and Re 0.01 S, a follower at 100 Hz with a
    10 Hz drift on 1-5000 Hz: its predicted bracket misses, and its 50 Hz
    window has the 100 Hz point exactly on the axis.  That point is the
    crossing's zero-width bracket, confirmed in one refine round, and the
    follower moves there at try 1, as a drift."""
    sizes = []
    follower = compensation_planner._CriticalFollower(100.0, np.ones(1, complex))
    follower.df = 10.0
    [(smp, j)] = compensation_planner._locate_all(
        [follower], 0.0, scalar_matrices_at(lambda f: 0.01 + 1j * sign * (f - 100.0), sizes),
        (1.0, 5000.0))
    assert (smp.f_hz, smp.lam[j]) == (100.0, 0.01)
    assert sizes == [2, 9, 1]
    assert (follower.f_cr, follower.df) == (100.0, 0.0)


def test_lost_crossing_raises_once_a_window_covers_the_range():
    """A follower at 1000 Hz whose eigenvalue never crosses, on 10-2500 Hz:
    the predicted bracket, then windows of half-width 50 to 1600 Hz, the
    last of which covers the whole range, and no scan after it."""
    sizes = []
    follower = compensation_planner._CriticalFollower(1000.0, np.ones(1, complex))
    with pytest.raises(PlanInfeasibleError) as err:
        compensation_planner._locate_all(
            [follower], 0.25, scalar_matrices_at(lambda f: 0.01 + 1j, sizes), (10.0, 2500.0))
    assert str(err.value) == "lost the critical crossover near 1000.0 Hz at alpha=0.25 S"
    assert sizes == [2] + [9] * 6
