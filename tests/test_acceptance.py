"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its runtime.  Run with `pytest -s tests/test_acceptance.py`
to see the lines."""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import make_random_small_system
from damp_planner.compensation_planner import (
    CompensationPlan,
    PlanEntry,
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
    ad_scalar,
    current_feedforward,
)
from damp_planner.dq_core import FrequencyGrid, evaluate
from damp_planner.network_assembly import NetworkGraph, Shunt, assemble, assemble_grid
from damp_planner.stability_engine import (
    analyze,
    eig_lr,
    nyquist_winding,
    sweep,
    track,
)

W0 = 2 * math.pi * 50.0

AD_BASE = ADParams(v_dc=750.0, l_f_h=0.8e-3, k_pi=5.0, k_ii=100.0, xi=0.707,
                   tau_s=0.0014, beta=2.0, omega_low_rad_s=12566.36,
                   omega_c_rad_s=21991.13, gain_s=0.06, k_v=0.0, f_s_hz=40e3)

GRID = FrequencyGrid.regular(10.0, 2500.0, 1.0)


class _Timed:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[{status}] {self.label} ({elapsed:.2f} s, budget {self.budget} s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label}: {elapsed:.2f}s over budget"
        return False


@pytest.fixture(scope="module")
def fixture_analysis(case_graph):
    return analyze(case_graph, GRID)


def test_criterion_1_ad_feedforward_identity():
    with _Timed("criterion 1: damper feedforward algebraic identity", 0.1):
        rng = np.random.default_rng(11)
        lf, gain, wc = AD_BASE.l_f_h, AD_BASE.gain_s, AD_BASE.omega_c_rad_s
        h = current_feedforward(gain, wc, lf)
        s = rng.uniform(-1e5, 1e5, 100) + 1j * rng.uniform(-1e5, 1e5, 100)
        lhs = 1.0 / (s * lf + evaluate(h, s))
        rhs = gain * wc / (s + wc)
        assert float(np.max(np.abs(lhs - rhs) / np.abs(rhs))) <= 1e-12


def test_criterion_2_quasi_resistive_bound():
    with _Timed("criterion 2: quasi-resistive bound with calibrated gain", 1.0):
        entry = PlanEntry(1, 0, 150.0, 150.0, -0.045, 0.05, 50, 0.005)
        target = CompensationPlan(0.005, 1e-3, 0, (entry,), 100.0, 2000.0, 0.05)
        calibrated = calibrate_ad(target, AD_BASE)
        f = np.arange(100.0, 2000.0 + 0.5, 1.0)
        y = ad_scalar(calibrated, f, W0)
        assert float(np.min(y.real)) >= 0.05
        assert float(np.max(np.abs(y.imag / y.real))) <= 0.1
        trad = dataclasses.replace(calibrated, mode="traditional")
        yt = ad_scalar(trad, f, W0)
        ratio_t = np.abs(yt.imag) / np.abs(yt.real)
        assert float(np.max(ratio_t)) > 0.1


def test_criterion_3_sensitivity_oracle():
    with _Timed("criterion 3: first-order sensitivity vs re-decomposition", 5.0):
        rng = np.random.default_rng(33)
        dalpha = 1e-6
        for _ in range(50):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            node = int(rng.integers(0, 4))
            s0 = eig_lr(m)
            m2 = m.copy()
            m2[2 * node, 2 * node] += dalpha
            m2[2 * node + 1, 2 * node + 1] += dalpha
            s1 = eig_lr(m2)
            match = np.argmax(np.abs(s0.u @ s1.w), axis=1)
            assert sorted(match) == list(range(8))
            for k in range(8):
                predicted = dalpha * compensation_coefficient(s0, k, node).value
                actual = s1.lam[match[k]] - s0.lam[k]
                assert abs(predicted - actual) <= 1e-3 * abs(actual)


def test_criterion_4_exact_shift_property(case_graph):
    with _Timed("criterion 4: exact spectral shift under c*I", 1.0):
        rng = np.random.default_rng(44)
        for f in (100.0, 777.0, 1821.0):
            m = assemble_grid(case_graph, np.asarray([f]))[0]
            c = complex(rng.normal(), rng.normal())
            s0 = eig_lr(m)
            s1 = eig_lr(m + c * np.eye(8))
            match = np.argmax(np.abs(s0.u @ s1.w), axis=1)
            scale = max(1.0, float(np.max(np.abs(s0.lam))))
            for k in range(8):
                assert abs(s1.lam[match[k]] - s0.lam[k] - c) <= 1e-9 * scale

        one = NetworkGraph((1,), (),
                           (Shunt(1, GridImpedanceParams(5.0, 1e-4)),
                            Shunt(1, CapacitorParams(10e-6))), W0)
        smp = eig_lr(assemble(one, 321.0), 321.0)
        for k in range(2):
            kc = compensation_coefficient(smp, k, 0)
            assert abs(kc.value - 1.0) <= 1e-10


def test_criterion_5_kc_node_sum(case_graph, fixture_analysis):
    with _Timed("criterion 5: compensation coefficients sum to 1 per mode", 30.0):
        _, traces, report = fixture_analysis
        coeffs = compensation_table(case_graph, report.critical_events)
        assert coeffs
        sums: dict[int, complex] = {}
        for c in coeffs:
            sums[c.trace_id] = sums.get(c.trace_id, 0j) + c.value
        for trace_id, total in sums.items():
            assert abs(total - 1.0) <= 1e-9, f"trace {trace_id}: node sum {total}"


def test_criterion_6_gpndsc_nyquist_agreement():
    with _Timed("criterion 6: stability verdict vs Nyquist winding oracle", 120.0):
        grid = FrequencyGrid.regular(2.0, 5000.0, 2.0)
        determinate = 0
        for seed in range(20):
            g = make_random_small_system(seed)
            _, traces, report = analyze(g, grid)
            windings = [nyquist_winding(tr) for tr in traces]
            if any(w is None for w in windings):
                continue
            determinate += 1
            oracle_stable = sum(abs(w) for w in windings) == 0
            assert oracle_stable == report.stable, f"seed {seed}"
        assert determinate >= 10


def test_criterion_7_case_study_qualitative(case_graph):
    with _Timed("criterion 7: case-study critical bands and placement split", 60.0):
        _, traces, report = analyze(case_graph, GRID)
        assert not report.stable
        crit = report.critical_events
        low = [e for e in crit if 100.0 <= e.f_cr_hz <= 400.0]
        high = [e for e in crit if 1500.0 <= e.f_cr_hz <= 2200.0]
        assert len(low) >= 1
        assert len(high) >= 2

        coeffs = compensation_table(case_graph, crit)

        def dominant(trace_id):
            mine = [c for c in coeffs if c.trace_id == trace_id]
            return max(mine, key=lambda c: c.value.real).node_index

        low_nodes = {dominant(e.trace_id) for e in low}
        high_nodes = {dominant(e.trace_id) for e in high}
        assert low_nodes == {case_graph.node_index(4)}
        assert high_nodes == {case_graph.node_index(3)}
        assert low_nodes.isdisjoint(high_nodes)


def test_criterion_8_end_to_end_stabilization(case_graph, fixture_analysis):
    with _Timed("criterion 8: plan + calibrate + verify round trip", 120.0):
        _, traces, report = fixture_analysis
        coeffs = compensation_table(case_graph, report.critical_events)
        ranks = rank_locations(coeffs, 0.005)
        top = case_graph.nodes[ranks[0].node_index]
        second = case_graph.nodes[ranks[1].node_index]
        assert top == 4
        assert second == 3

        cplan = plan(case_graph, top, traces, report, epsilon=0.005)
        calibrated = calibrate_ad(cplan, AD_BASE)
        assert calibrated.k_v > 0

        assert verify_with_ad(case_graph, top, calibrated, GRID).stable

        at_second = verify_with_ad(case_graph, second, calibrated, GRID)
        assert not at_second.stable

        traditional = dataclasses.replace(calibrated, mode="traditional")
        at_top_trad = verify_with_ad(case_graph, top, traditional, GRID)
        assert not at_top_trad.stable


def test_criterion_9_sweep_performance(case_graph):
    with _Timed("criterion 9: full 10-2500 Hz sweep under 5 s", 5.0):
        samples = sweep(case_graph, GRID)
        traces = track(samples)
        assert len(samples) == 2491
        assert len(traces) == 8
