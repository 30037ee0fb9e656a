import dataclasses
import json
import math
import time

import numpy as np
import pytest

from conftest import make_random_small_system
from damp_planner import compensation_planner, stability_engine
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
from damp_planner.component_models import (
    ADParams,
    CapacitorParams,
    GridImpedanceParams,
    InverterParams,
)
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
    locate_crossings,
    refine_crossovers,
    sweep,
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


def swept_analysis(g, grid):
    """(spectrum, traces, report): analyze's traces and report, and the
    sweep's Spectrum, whose samples their eig_index indexes (sweep
    decomposes each sample as analyze does)."""
    return (sweep(g, grid), *analyze(g, grid)[1:])


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
    spec, traces, report = swept_analysis(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))
    got = compensation_table(case_graph, report.events)
    assert len(got) == 3 * case_graph.n
    assert got == reference_compensation_table(case_graph, spec, traces, report.events)


def test_kc_from_events_equals_re_decomposition_on_random_systems():
    grid = FrequencyGrid.regular(2.0, 5000.0, 2.0)
    n = 0
    for seed in range(40):
        g = make_random_small_system(seed)
        spec, traces, report = swept_analysis(g, grid)
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
    # in the second spectrum eigenvalues 0 and 2 are 2e-13 apart, and the
    # 100j one, whose real part lies between theirs, sorts between them
    for diag in ([1.0, 1.0, 2.0, 3.0], [1.0, 1.0 + 1e-13 + 100j, 1.0 + 2e-13, 5.0]):
        smp = eig_lr(np.diag(diag), 42.0)
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
    spec, traces, report = swept_analysis(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))
    cplan = plan(case_graph, 4, traces, report, epsilon=0.005)
    got = [(e.trace_id, e.iterations, e.alpha_s, e.f_cr_final_hz)
           for e in cplan.entries]
    expected = [(8, 47, 0.047, 178.48658536380253),
                (5, 34, 0.034, 1755.1238546575155),
                (6, 46, 0.046, 1885.5985575933237)]
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
    of the last locate; try 1 scans the 9-point window of half-width
    50 Hz, and a crossover neither finds raises PlanInfeasibleError.
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
        # the scan points of each try, around the f_cr of the moment
        if predicted:
            centre = state["f_cr"] + state["df"]
            half = max(abs(state["df"]) / 4.0, 0.05)
            yield np.linspace(*np.clip((centre - half, centre + half), f_lo, f_hi), 2)
        yield np.linspace(max(f_lo, state["f_cr"] - 50.0), min(f_hi, state["f_cr"] + 50.0), 9)

    def locate(state, alpha):
        for points in scans(state):
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
                    state["df"] = smp.f_hz - state["f_cr"]
                    state["f_cr"], state["u_ref"] = smp.f_hz, smp.u[j]
                    return found
        raise PlanInfeasibleError(f"lost near {state['f_cr']} Hz at alpha={alpha} S")

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
    return swept_analysis(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))


def assert_plans_agree(got, ref, re_tol, f_tol=5e-3):
    """got keeps ref's followed crossovers, step counts, conductances (to
    the bit), band, requirement and settings; predicted_re is within re_tol [S] and
    f_cr_final_hz within f_tol [Hz]: the interpolated sums and the
    finishing locates' refine tolerance."""
    def exact(p):
        return ([(e.trace_id, e.node_index, e.f_cr_start_hz, e.re_lambda_start,
                  e.alpha_s.hex(), e.iterations) for e in p.entries],
                p.band_lo_hz, p.band_hi_hz, p.required_re_yad_s,
                p.epsilon_s, p.dalpha_s, p.node_index, p.omega0)

    assert exact(got) == exact(ref)
    for e, r in zip(got.entries, ref.entries):
        assert abs(e.predicted_re - r.predicted_re) <= re_tol
        assert abs(e.f_cr_final_hz - r.f_cr_final_hz) <= f_tol


@pytest.mark.parametrize("node", [4, 3])
@pytest.mark.parametrize("dalpha", [1e-3, 5e-3])
def test_lockstep_plan_equals_per_trace_loop_on_fixture(case_graph, fixture_baseline,
                                                        node, dalpha):
    spec, traces, report = fixture_baseline
    got = plan(case_graph, node, traces, report, 0.005, dalpha)
    assert len(got.entries) == 3
    assert_plans_agree(got, reference_plan(case_graph, node, spec, traces, report, 0.005, dalpha),
                       re_tol=1e-8)


# (seed, node id) of make_random_small_system networks with at least two
# nodes and two critical crossovers whose plan at that node is feasible
RANDOM_PLANS = [(3, 1), (5, 2), (7, 2), (12, 1), (13, 2), (22, 1), (32, 3), (40, 2), (45, 3)]


@pytest.mark.parametrize("seed, node", RANDOM_PLANS)
def test_lockstep_plan_equals_per_trace_loop_on_random_systems(seed, node):
    g = make_random_small_system(seed)
    spec, traces, report = swept_analysis(g, FrequencyGrid.regular(2.0, 5000.0, 5.0))
    assert g.n >= 2 and len(report.critical_events) >= 2
    got = plan(g, node, traces, report, 0.005, 5e-3)
    assert got.entries
    assert_plans_agree(got, reference_plan(g, node, spec, traces, report, 0.005, 5e-3),
                       re_tol=1e-6)


@pytest.mark.parametrize("seed, node, dalpha, lost", [
    # trace 4's crossover leaves both tries after one step
    (26, 3, 0.01, r"trace 4 \(crossover starting at 2033\.11 Hz\) lost near 2033\.11 Hz "
                  r"at alpha=0\.01 S"),
    (26, 3, 5e-3, r"trace 4 \(crossover starting at 2033\.11 Hz\) lost near 2033\.11 Hz "
                  r"at alpha=0\.005 S"),
    # trace 4's crossing folds
    (24, 1, 5e-3, r"trace 4 \(crossover starting at 1020\.15 Hz\) lost near 937\.248 Hz "
                  r"at alpha=0\.615 S"),
], ids=["26-3-0.01", "26-3-0.005", "24-1-0.005"])
def test_plan_stops_naming_a_lost_crossing(seed, node, dalpha, lost):
    """A crossover found in neither its predicted bracket nor its 50 Hz
    window stops the plan, named, and is not followed to another
    crossing; the per-trace loop stops too."""
    g = make_random_small_system(seed)
    spec, traces, report = swept_analysis(g, FrequencyGrid.regular(2.0, 5000.0, 5.0))
    start = time.perf_counter()
    with pytest.raises(PlanInfeasibleError, match=f"^{lost}: no crossing within 50 Hz$"):
        plan(g, node, traces, report, 0.005, dalpha)
    if seed == 26:
        assert time.perf_counter() - start < 1.0
    with pytest.raises(PlanInfeasibleError, match="^lost near "):
        reference_plan(g, node, spec, traces, report, 0.005, dalpha)


def test_rank_and_plan_read_one_kc_at_alpha_0(case_graph, fixture_baseline):
    """Each plan path starts from its baseline event's decomposition, the
    one compensation_table reads: at dalpha = 0.05 S every fixture entry
    finishes in one step, and its predicted_re is Re[lambda] plus that
    step's shift from the table's K_C, to the bit."""
    _, traces, report = fixture_baseline
    cplan = plan(case_graph, 4, traces, report, 0.005, 0.05)
    kc = {c.trace_id: c.value for c in compensation_table(case_graph, report.critical_events)
          if c.node_index == cplan.node_index}
    assert [e.iterations for e in cplan.entries] == [1, 1, 1]
    for ev, e in zip(report.critical_events, cplan.entries):
        assert e.predicted_re == ev.re_lambda + (0j + 0.05 * kc[ev.trace_id]).real


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


def counted_batches(monkeypatch) -> list:
    """The points of every eig_lr_batch call the planner and the locator
    make from now on, one list entry per call."""
    calls = []
    real = stability_engine.eig_lr_batch

    def counted(mats, fs):
        calls.append(len(fs))
        return real(mats, fs)

    monkeypatch.setattr(stability_engine, "eig_lr_batch", counted)
    return calls


def test_plan_locates_the_fixture_in_at_most_40_batches(case_graph, fixture_baseline,
                                                        monkeypatch):
    # one locate per dalpha step took 96 batches (390 points), and the
    # scan-only loop before it 128 batches (1 332 points)
    _, traces, report = fixture_baseline
    calls = counted_batches(monkeypatch)
    plan(case_graph, 4, traces, report, 0.005)
    assert len(calls) <= 40


def test_quadratic_drift_keeps_coarse_locates_in_their_brackets(case_graph, fixture_baseline,
                                                                monkeypatch):
    """Fixture node 4 at dalpha 5e-3: predicting each crossover by the
    secant of its last move sent 11 of 29 locates on to the 50 Hz window;
    the quadratic through the nearest nodes sends at most 8."""
    _, traces, report = fixture_baseline
    tries = [0, 0]
    scan = stability_engine._locate_scan

    def counted(seed, attempt, f_bounds):
        tries[attempt] += 1
        return scan(seed, attempt, f_bounds)

    monkeypatch.setattr(stability_engine, "_locate_scan", counted)
    plan(case_graph, 4, traces, report, 0.005, 5e-3)
    assert tries[1] <= 8


def locate_alpha(matrices_at) -> float:
    """The conductance plan bound into a locate's matrices_at (a partial
    of _with_conductance)."""
    return matrices_at.keywords["alpha"]


def losing_locate_crossings(monkeypatch, lose_at: float) -> list:
    """The planner's locate_crossings, losing its first seed at
    conductance lose_at once (the others located as usual), recording
    the conductance of every call."""
    real = compensation_planner.locate_crossings
    alphas = []

    def losing(matrices_at, seeds, f_bounds):
        alphas.append(alpha := locate_alpha(matrices_at))
        if alpha == lose_at and alphas.count(alpha) == 1:
            return [None] + real(matrices_at, seeds[1:], f_bounds)
        return real(matrices_at, seeds, f_bounds)

    monkeypatch.setattr(compensation_planner, "locate_crossings", losing)
    return alphas


def test_a_crossover_lost_at_a_coarse_node_halves_the_stride(case_graph, fixture_baseline,
                                                             monkeypatch):
    """The first coarse node (step 3, two steps past node 1; node 0 is
    the baseline events') loses a crossover: the plan locates the
    midpoint, step 2, next, locates the lost crossover at step 3 again
    from there, and plans as without the loss."""
    _, traces, report = fixture_baseline
    expected = plan(case_graph, 4, traces, report, 0.005, 5e-3)
    d = 5e-3
    alpha_2, alpha_3 = 0.0 + d + d, 0.0 + d + d + d
    alphas = losing_locate_crossings(monkeypatch, alpha_3)
    got = plan(case_graph, 4, traces, report, 0.005, 5e-3)
    assert alphas[:4] == [d, alpha_3, alpha_2, alpha_3]
    assert_plans_agree(got, expected, re_tol=1e-8)


def test_a_crossover_lost_one_step_from_its_node_stops_the_plan(case_graph, fixture_baseline,
                                                                monkeypatch):
    _, traces, report = fixture_baseline
    ev = report.critical_events[0]
    losing_locate_crossings(monkeypatch, 5e-3)
    with pytest.raises(PlanInfeasibleError,
                       match=rf"^trace {ev.trace_id} \(crossover starting at {ev.f_cr_hz:.6g} Hz\) "
                             rf"lost near {ev.f_cr_hz:.6g} Hz at alpha=0\.005 S: no crossing "
                             r"within 50 Hz$"):
        plan(case_graph, 4, traces, report, 0.005, 5e-3)


def test_a_crossover_lost_where_it_finishes_is_tried_there_once(case_graph, fixture_baseline,
                                                                monkeypatch):
    """Fixture node 4 at dalpha 1e-3: trace 5 finishes at step 34, an
    interpolated step whose seed comes from node 31.  Lost there, it is
    not located at step 34 from node 31 again: the plan halves to step
    32, locates step 34 from there, and plans as without the loss."""
    _, traces, report = fixture_baseline
    expected = plan(case_graph, 4, traces, report, 0.005)
    [e5] = [e for e in expected.entries if e.trace_id == 5]
    assert e5.iterations == 34
    sources = []  # the node below step 34 of every seed for it
    seed = compensation_planner._NodePath.seed

    def recorded(self, k):
        if k == 34:
            sources.append(self.below(k))
        return seed(self, k)

    real = compensation_planner.locate_crossings

    def losing(matrices_at, seeds, f_bounds):
        if locate_alpha(matrices_at) == e5.alpha_s and sources[-1] == 31:
            return [None] * len(seeds)
        return real(matrices_at, seeds, f_bounds)

    monkeypatch.setattr(compensation_planner._NodePath, "seed", recorded)
    monkeypatch.setattr(compensation_planner, "locate_crossings", losing)
    got = plan(case_graph, 4, traces, report, 0.005)
    assert sources == [31, 32]
    assert_plans_agree(got, expected, re_tol=1e-8)


@pytest.mark.parametrize("seed, f_start, shortfall", [(5, "960.997", 0.0329995),
                                                      (7, "770.014", 0.0513804)])
def test_an_infeasible_plan_reaches_the_cap_in_coarse_steps(seed, f_start, shortfall,
                                                            monkeypatch):
    """Trace 6 of these networks stays short of epsilon after 100 S at
    node 1: the plan runs its 10 000 dalpha steps and names the trace,
    where it started and the shortfall, in at most 2 500 batches (one
    locate per step took 20 001 and 20 003)."""
    g = make_random_small_system(seed)
    _, traces, report = analyze(g, FrequencyGrid.regular(2.0, 5000.0, 5.0))
    calls = counted_batches(monkeypatch)
    with pytest.raises(PlanInfeasibleError,
                       match=rf"^iteration cap 10000 reached for trace 6 \(crossover starting at "
                             rf"{f_start} Hz\); shortfall \S+ S remains at alpha=100 S$") as stop:
        plan(g, 1, traces, report, 0.005, 0.01)
    assert float(str(stop.value).split("shortfall ")[1].split()[0]) == pytest.approx(
        shortfall, abs=1e-6)
    assert len(calls) <= 2500


@pytest.mark.parametrize("lift", [-1e-7, 1e-7])
def test_an_unclear_decision_is_located(case_graph, fixture_baseline, monkeypatch, lift):
    """Fixture node 4 at dalpha 5e-3 with epsilon 1e-7 S from trace 6's
    dalpha-step sum at its last step, and interpolants accepted up to
    1e-4 S per interval: the sums' error estimates exceed the gap, so the
    plan locates the interpolated steps that decide it and keeps the
    reference's step counts (with the estimates alone, +1e-7 S ends trace
    6 one step early)."""
    spec, traces, report = fixture_baseline
    [e6] = [e for e in reference_plan(case_graph, 4, spec, traces, report, 0.005, 5e-3).entries
            if e.trace_id == 6]
    epsilon = e6.predicted_re + lift
    ref = reference_plan(case_graph, 4, spec, traces, report, epsilon, 5e-3)
    monkeypatch.setattr(compensation_planner, "_STEP_TOL", 1e-4)
    settled = []
    settle = compensation_planner._NodePath.settle

    def recorded(self, j, dalpha):
        settled.append(j)
        settle(self, j, dalpha)

    monkeypatch.setattr(compensation_planner._NodePath, "settle", recorded)
    got = plan(case_graph, 4, traces, report, epsilon, 5e-3)
    assert settled
    assert ([(e.trace_id, e.iterations, e.alpha_s) for e in got.entries]
            == [(e.trace_id, e.iterations, e.alpha_s) for e in ref.entries])


def test_interpolation_is_the_step_controls_only_approximation(case_graph, fixture_baseline,
                                                               monkeypatch):
    """Fixture node 4 at dalpha 1e-3 with no interpolation error allowed:
    every 2-step interval is rejected, so every step is located, in 47
    locate_crossings and 96 batches (one locate per dalpha step took 96
    too), and the plan is the per-trace loop's to within the rounding of
    the sums."""
    spec, traces, report = fixture_baseline
    ref = reference_plan(case_graph, 4, spec, traces, report, 0.005)
    monkeypatch.setattr(compensation_planner, "_STEP_TOL", 0.0)
    real_locate = compensation_planner.locate_crossings
    alphas = []

    def recorded(matrices_at, seeds, f_bounds):
        alphas.append(locate_alpha(matrices_at))
        return real_locate(matrices_at, seeds, f_bounds)

    monkeypatch.setattr(compensation_planner, "locate_crossings", recorded)
    calls = counted_batches(monkeypatch)
    got = plan(case_graph, 4, traces, report, 0.005)
    steps = max(e.iterations for e in got.entries)
    assert sorted(round(alpha / 1e-3) for alpha in alphas) == list(range(1, steps + 1))
    assert (len(alphas), len(calls)) == (47, 96)
    assert_plans_agree(got, ref, re_tol=1e-9)


def test_predicted_bracket_stays_on_a_close_crossing_pair(monkeypatch):
    """make_random_small_system(24) at node 1, dalpha 5e-3.  The lockstep
    plan stops at alpha = 0.615 S, where trace 4's crossing folds.
    Planned alone, trace 3's crossover near 1000.23 Hz has a second
    crossing 2.3 Hz below it at alpha = 0.72 S: the predicted bracket
    stays on the pair, while the scan-only loop's 50 Hz window (12.5 Hz
    spacing) steps over it and loses trace 3 there.  The pair vanishes
    before 0.725 S, and that stops the plan too."""
    g = make_random_small_system(24)
    spec, traces, report = swept_analysis(g, FrequencyGrid.regular(2.0, 5000.0, 5.0))
    with pytest.raises(PlanInfeasibleError, match=r"^trace 4 .* at alpha=0\.615 S"):
        plan(g, 1, traces, report, 0.005, 5e-3)

    only_3 = StabilityReport(tuple(e for e in report.critical_events if e.trace_id == 3))
    real_locate = compensation_planner.locate_crossings
    at_072 = []

    def recorded(matrices_at, seeds, f_bounds):
        out = real_locate(matrices_at, seeds, f_bounds)
        if locate_alpha(matrices_at) == pytest.approx(0.72, abs=1e-9):
            at_072.extend(out)
        return out

    monkeypatch.setattr(compensation_planner, "locate_crossings", recorded)
    with pytest.raises(PlanInfeasibleError,
                       match=r"^trace 3 \(crossover starting at 1118\.19 Hz\) lost near "
                             r"1000\.23 Hz at alpha=0\.725 S: no crossing within 50 Hz$"):
        plan(g, 1, traces, only_3, 0.005, 5e-3)
    with pytest.raises(PlanInfeasibleError) as scan_only:
        reference_plan(g, 1, spec, traces, only_3, 0.005, 5e-3, predicted=False)
    assert float(str(scan_only.value).split("alpha=")[1].split()[0]) == pytest.approx(0.72)

    [(smp, j)] = at_072
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
    """At alpha = dalpha, the first step located (step 0 is the baseline
    events'), matrices near the low-frequency crossover have Im jump
    over zero, so that crossover's predicted bracket fails; with the
    break lifted it is located in its 50 Hz window, the other crossovers
    try the same windows as in the unbroken plan, and the plan matches
    it.  A break that outlasts the window stops the plan, naming that
    crossover."""
    _, traces, report = fixture_baseline
    events = report.critical_events
    low = min(events, key=lambda e: e.f_cr_hz)
    failures = []
    broken = [False]
    matrices_at, scan, refine = (compensation_planner._with_conductance,
                                 stability_engine._locate_scan, stability_engine.refine_crossovers)

    def jumping_matrices_at(g, node_index, fs, alpha):
        m = matrices_at(g, node_index, fs, alpha)
        if broken[0] and alpha == 5e-3:
            # push the followed Im away from zero on both sides of the
            # crossover, so regula falsi never meets the tolerance
            sign = 1.0 if low.direction == "rising" else -1.0
            for k, f in enumerate(fs):
                if abs(f - low.f_cr_hz) < 5.0:
                    side = 1.0 if f >= low.f_cr_hz else -1.0
                    m[k] += 1e-3j * sign * side * np.eye(len(m[k]))
        return m

    def recorded_scan(seed, attempt, f_bounds):
        # each seed's tries, under the critical event whose crossover it follows
        i = min(range(len(events)), key=lambda i: abs(events[i].f_cr_hz - seed[0]))
        tries.setdefault(i, []).append((seed[0], attempt))
        if attempt == 1 and lift[0]:
            broken[0] = False
        return scan(seed, attempt, f_bounds)

    def recorded_refine(*args, **kwargs):
        out = refine(*args, **kwargs)
        failures.extend(r for r in out if isinstance(r, BisectionError))
        return out

    monkeypatch.setattr(compensation_planner, "_with_conductance", jumping_matrices_at)
    monkeypatch.setattr(stability_engine, "_locate_scan", recorded_scan)
    monkeypatch.setattr(stability_engine, "refine_crossovers", recorded_refine)
    tries: dict = {}
    lift = [True]
    expected = plan(case_graph, 4, traces, report, 0.005, 5e-3)
    unbroken = [tries[i] for i in range(len(events))]
    assert not failures
    tries, broken[0] = {}, True
    got = plan(case_graph, 4, traces, report, 0.005, 5e-3)
    broken_run = [tries[i] for i in range(len(events))]

    assert len(failures) == 1
    [k] = [k for k, e in enumerate(events) if e is low]
    # the first locate: the low crossover's predicted bracket, then its
    # 50 Hz window; the others as without the break
    assert broken_run[k][:2] == [(low.f_cr_hz, 0), (low.f_cr_hz, 1)]
    assert unbroken[k][0] == (low.f_cr_hz, 0)
    assert [t for i, t in enumerate(broken_run) if i != k] == [
        t for i, t in enumerate(unbroken) if i != k]
    assert ([(e.trace_id, e.iterations, e.alpha_s) for e in got.entries]
            == [(e.trace_id, e.iterations, e.alpha_s) for e in expected.entries])

    failures.clear()
    tries, broken[0], lift[0] = {}, True, False
    with pytest.raises(PlanInfeasibleError,
                       match=rf"^trace {low.trace_id} \(crossover starting at "
                             rf"{low.f_cr_hz:.6g} Hz\) lost near {low.f_cr_hz:.6g} Hz at "
                             r"alpha=0\.005 S: no crossing within 50 Hz$"):
        plan(case_graph, 4, traces, report, 0.005, 5e-3)
    assert len(failures) == 2
    assert tries[k] == [(low.f_cr_hz, 0), (low.f_cr_hz, 1)]


def scalar_matrices_at(lam_at, sizes):
    """matrices_at(fs) of the 1x1 system whose eigenvalue is lam_at(f),
    recording the points of every call."""
    def matrices_at(fs):
        sizes.append(len(fs))
        return np.array([[[lam_at(f)]] for f in fs])
    return matrices_at


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["falling", "rising"])
def test_follower_takes_an_on_axis_scan_point_as_its_crossing(sign):
    """Im[lambda] = +-(f - 100) S and Re 0.01 S, a seed at 100 Hz with a
    10 Hz drift on 1-5000 Hz: its predicted bracket misses, and its 50 Hz
    window has the 100 Hz point exactly on the axis.  That point is the
    crossing's zero-width bracket, confirmed in one refine round at try 1."""
    sizes = []
    [(smp, j)] = locate_crossings(
        scalar_matrices_at(lambda f: 0.01 + 1j * sign * (f - 100.0), sizes),
        [(100.0, 10.0, np.ones(1, complex))], (1.0, 5000.0))
    assert (smp.f_hz, smp.lam[j]) == (100.0, 0.01)
    assert sizes == [2, 9, 1]


def test_lost_crossing_takes_two_scans_and_no_more():
    """A seed at 1000 Hz whose eigenvalue never crosses, on 10-2500 Hz:
    the predicted bracket, then the 50 Hz window, and no scan after it.
    The seed is lost (None), for the caller to name."""
    sizes = []
    assert locate_crossings(scalar_matrices_at(lambda f: 0.01 + 1j, sizes),
                            [(1000.0, 0.0, np.ones(1, complex))], (10.0, 2500.0)) == [None]
    assert sizes == [2, 9]


def test_locate_crossings_follows_a_crossing_along_an_operating_point_path(case_graph):
    """locate_crossings along a path other than conductance: the fixture
    with its default damper (node 4, k_v 1.407) installed and the i_d of
    all three inverters scaled by x, in steps of 0.01.  Trace 8's
    crossing at 176.33 Hz, followed from its baseline event with the
    secant drift, keeps Re[lambda] > 0 up to x = 1.20 and is critical at
    1.21, where a fresh analysis finds the same critical crossing."""
    damped = case_graph.with_shunt_device(4, dataclasses.replace(AD_BASE, k_v=1.407),
                                          label="active-damper")
    grid = FrequencyGrid.regular(10.0, 2500.0, 1.0)

    def scaled(x):
        return dataclasses.replace(damped, shunts=tuple(
            dataclasses.replace(s, device=dataclasses.replace(s.device, i_d=s.device.i_d * x))
            if isinstance(s.device, InverterParams) else s for s in damped.shunts))

    _, _, report = analyze(damped, grid)
    [ev] = [e for e in report.events if e.trace_id == 8 and abs(e.f_cr_hz - 176.33) < 0.01]
    seed, re_at = (ev.f_cr_hz, 0.0, ev.sample.u[ev.eig_index]), {}
    for step in range(1, 22):
        g = scaled(1.0 + step / 100)
        [(smp, j)] = locate_crossings(lambda fs: assemble_grid(g, fs), [seed], (10.0, 2500.0))
        seed = (smp.f_hz, smp.f_hz - seed[0], smp.u[j])
        re_at[step] = float(smp.lam[j].real)
    assert all(re_at[step] > 0 for step in range(1, 21))
    assert re_at[21] < 0
    assert 163.0 < seed[0] < 164.0
    _, _, report = analyze(g, grid)
    [critical] = report.critical_events
    assert critical.trace_id == 8
    assert abs(critical.f_cr_hz - seed[0]) <= 0.02
    assert critical.re_lambda == pytest.approx(re_at[21], abs=1e-6)
