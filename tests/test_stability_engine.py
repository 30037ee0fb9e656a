import math
import re
import warnings

import numpy as np
import pytest

from conftest import make_random_small_system
from damp_planner import compensation_planner, stability_engine
from damp_planner.component_models import CapacitorParams, GridImpedanceParams
from damp_planner.dq_core import FrequencyGrid
from damp_planner.network_assembly import NetworkGraph, Shunt, assemble, assemble_grid
from damp_planner.stability_engine import (
    BisectionError,
    DefectiveMatrixWarning,
    EigenSample,
    EigenTrace,
    EigNonConvergenceError,
    _greedy_match,
    _pick_matching_eig,
    analyze,
    assess,
    eig_lr,
    eig_lr_batch,
    find_crossovers,
    nyquist_winding,
    refine_crossover,
    sweep,
    track,
)

W0 = 2 * math.pi * 50.0


# --- eigen decomposition ---

def test_eig_identity():
    s = eig_lr(np.eye(4), 1.0)
    assert np.allclose(s.lam, 1.0)
    assert np.allclose(s.u @ s.w, np.eye(4), atol=1e-14)


def test_eig_diagonal():
    s = eig_lr(np.diag([3.0 + 1j, -2.0]))
    assert set(np.round(s.lam, 12)) == {3.0 + 1j, -2.0}


def test_eig_companion_hand_solved():
    # char poly s^2 + 3 s + 2 -> eigenvalues -1, -2
    m = np.array([[0.0, 1.0], [-2.0, -3.0]])
    s = eig_lr(m)
    assert sorted(np.round(s.lam.real, 12)) == [-2.0, -1.0]
    for k in range(2):
        res = np.linalg.norm(m @ s.w[:, k] - s.lam[k] * s.w[:, k])
        assert res <= 1e-12 * np.linalg.norm(m)


def test_eig_biorthogonality_on_random_matrix(rng):
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    s = eig_lr(m)
    assert np.linalg.norm(s.u @ s.w - np.eye(8)) <= 1e-9
    for k in range(8):
        assert np.linalg.norm(s.u[k] @ m - s.lam[k] * s.u[k]) <= 1e-9 * np.linalg.norm(m)


def test_eig_warns_on_near_defective_matrix():
    with pytest.warns(DefectiveMatrixWarning):
        eig_lr(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_eig_rejects_nonfinite():
    with pytest.raises(ValueError):
        eig_lr(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eig_batch_equals_single_decompositions_bitwise(case_graph):
    fs = [10.0, 179.2, 503.7, 1755.5, 1886.4, 2500.0]
    mats = assemble_grid(case_graph, fs)
    batch = eig_lr_batch(mats, fs)
    assert [s.f_hz for s in batch] == fs
    for m, f, got in zip(mats, fs, batch):
        want = eig_lr(m, f)
        assert np.array_equal(got.lam, want.lam)
        assert np.array_equal(got.w, want.w)
        assert np.array_equal(got.u, want.u)


def test_eig_batch_rejects_nonfinite_member():
    mats = np.stack([np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])])
    with pytest.raises(ValueError, match="non-finite"):
        eig_lr_batch(mats, [10.0, 20.0])


def test_eig_batch_warns_naming_the_near_defective_member():
    mats = np.stack([np.diag([1.0, 2.0]), np.array([[1.0, 1.0], [0.0, 1.0]]),
                     np.diag([3.0, 4.0])])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eig_lr_batch(mats, [10.0, 20.0, 30.0])
    defective = [w for w in caught if issubclass(w.category, DefectiveMatrixWarning)]
    assert len(defective) == 1
    assert "f=20.0 Hz" in str(defective[0].message)


@pytest.fixture
def eig_failing_on_7(monkeypatch):
    """np.linalg.eig that fails on any matrix, or stack, with a 7 at [0, 0]."""
    real_eig = np.linalg.eig

    def eig(a):
        if np.any(np.asarray(a)[..., 0, 0] == 7.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eig(a)

    monkeypatch.setattr(np.linalg, "eig", eig)


def test_eig_batch_nonconvergence_names_the_failing_member(eig_failing_on_7):
    mats = np.stack([np.eye(2), 7.0 * np.eye(2)])
    with pytest.raises(EigNonConvergenceError, match="f=20.0 Hz"):
        eig_lr_batch(mats, [10.0, 20.0])
    with pytest.raises(EigNonConvergenceError, match="f=5.0 Hz"):
        eig_lr(7.0 * np.eye(2), 5.0)


# --- sweep ---

def single_rc_graph() -> NetworkGraph:
    return NetworkGraph((1,), (),
                        (Shunt(1, GridImpedanceParams(10.0, 0.0)),
                         Shunt(1, CapacitorParams(10e-6))),
                        omega0=0.0)


def test_sweep_single_rc_traces_scalar_admittance():
    g = single_rc_graph()
    grid = FrequencyGrid.regular(10.0, 1000.0, 10.0, omega0=0.0)
    samples = sweep(g, grid)
    assert len(samples) == len(grid)
    for smp in samples:
        w = 2 * math.pi * smp.f_hz
        y = 0.1 + 1j * w * 10e-6
        assert np.allclose(np.sort_complex(smp.lam), y, rtol=1e-12)


def test_sweep_fixture_has_eight_traces(case_graph):
    grid = FrequencyGrid.regular(100.0, 200.0, 5.0)
    traces = track(sweep(case_graph, grid))
    assert len(traces) == 8
    assert sorted(t.trace_id for t in traces) == list(range(1, 9))


def reference_sweep(g, grid):
    """The sweep as one stacked eig + inv over the assembled grid, without
    the checks: what sweep computed before it went through eig_lr_batch."""
    mats = assemble_grid(g, grid.hz)
    lam, w = np.linalg.eig(mats)
    u = np.linalg.inv(w)
    return [EigenSample(float(f), lam[k], w[k], u[k]) for k, f in enumerate(grid.hz)]


def assert_sweep_equals_reference(g, grid):
    got, want = sweep(g, grid), reference_sweep(g, grid)
    assert [s.f_hz for s in got] == [s.f_hz for s in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.u, b.u)


def test_sweep_equals_stacked_reference_on_fixture(case_graph):
    assert_sweep_equals_reference(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))


def test_sweep_equals_stacked_reference_on_random_systems():
    grid = FrequencyGrid.regular(2.0, 5000.0, 5.0)
    for seed in range(20):
        assert_sweep_equals_reference(make_random_small_system(seed), grid)


def test_sweep_nonconvergence_names_the_frequency(eig_failing_on_7, monkeypatch):
    monkeypatch.setattr(stability_engine, "assemble_grid",
                        lambda g, fs: np.stack([np.eye(2), 7.0 * np.eye(2), np.eye(2)]))
    with pytest.raises(EigNonConvergenceError, match="f=20.0 Hz"):
        sweep(single_rc_graph(), FrequencyGrid.regular(10.0, 30.0, 10.0))


def test_sweep_warns_naming_the_near_defective_member(monkeypatch):
    near_defective = np.array([[1.0, 1.0], [1e-24, 1.0]])
    monkeypatch.setattr(stability_engine, "assemble_grid",
                        lambda g, fs: np.stack([np.diag([1.0, 2.0]), near_defective,
                                                np.diag([3.0, 4.0])]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        samples = sweep(single_rc_graph(), FrequencyGrid.regular(10.0, 30.0, 10.0))
    assert len(samples) == 3
    defective = [w for w in caught if issubclass(w.category, DefectiveMatrixWarning)]
    assert len(defective) == 1
    assert "f=20.0 Hz" in str(defective[0].message)


def test_condition_check_warns_wherever_cond2_exceeds_threshold():
    # [[1, 1], [d, 1]] has eigenvalues 1 +- sqrt(d) and cond_2(W) ~ 1/sqrt|d|;
    # the family straddles the 1e10 threshold on both sides of d = 0
    deltas = np.concatenate([np.logspace(-30, -12, 73), -np.logspace(-30, -12, 73)])
    mats = np.array([[[1.0, 1.0], [d, 1.0]] for d in deltas])
    fs = [float(k + 1) for k in range(len(deltas))]
    cond2 = np.linalg.cond(np.linalg.eig(mats)[1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eig_lr_batch(mats, fs)
    warned = {str(w.message).split(" Hz")[0].split("f=")[1] for w in caught
              if issubclass(w.category, DefectiveMatrixWarning)}
    must_warn = {str(f) for f, c in zip(fs, cond2) if c > 1e10}
    assert must_warn and len(must_warn) < len(fs)
    assert must_warn <= warned


def test_eigen_residuals_on_fixture_sweep(case_graph):
    grid = FrequencyGrid.regular(10.0, 2500.0, 100.0)
    for smp in sweep(case_graph, grid):
        m = assemble_grid(case_graph, np.asarray([smp.f_hz]))[0]
        norm = np.linalg.norm(m)
        assert np.linalg.norm(s := smp.u @ smp.w - np.eye(8)) <= 1e-9
        for k in range(8):
            assert np.linalg.norm(m @ smp.w[:, k] - smp.lam[k] * smp.w[:, k]) <= 1e-9 * norm
            assert np.linalg.norm(smp.u[k] @ m - smp.lam[k] * smp.u[k]) <= 1e-9 * norm


# --- tracking ---

def test_track_constant_matrix_is_perfect(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    samples = [eig_lr(m, f) for f in (10.0, 20.0, 30.0)]
    traces = track(samples)
    for tr in traces:
        assert tr.discontinuities == ()
        assert np.allclose(tr.lam, tr.lam[0], rtol=1e-12)
        assert np.min(tr.overlaps) > 0.999


def test_track_follows_eigenvectors_through_value_crossing():
    # two eigenvalues swap positions in the complex plane around f=1000.5
    # while their (orthogonal) eigenvectors stay fixed; value-proximity
    # matching would exchange the identities, overlap matching must not
    q = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    fc = 1000.5
    freqs = np.arange(995.0, 1006.0)
    samples = []
    for f in freqs:
        d = np.diag([1.0 + 1j * (f - fc) / 1000.0, 1.0 - 1j * (f - fc) / 1000.0])
        samples.append(eig_lr(q @ d @ q.T, f))
    traces = track(samples)
    rising = [tr for tr in traces if tr.lam.imag[-1] > tr.lam.imag[0]]
    falling = [tr for tr in traces if tr.lam.imag[-1] < tr.lam.imag[0]]
    assert len(rising) == 1 and len(falling) == 1
    assert np.all(np.diff(rising[0].lam.imag) > 0)
    assert np.all(np.diff(falling[0].lam.imag) < 0)
    for tr in traces:
        assert tr.discontinuities == ()


def test_track_fixture_no_discontinuities(case_graph):
    grid = FrequencyGrid.regular(10.0, 2500.0, 1.0)
    traces = track(sweep(case_graph, grid))
    assert len(traces) == 8
    for tr in traces:
        assert tr.discontinuities == ()


def reference_track(samples, overlap_threshold=0.5):
    """Per trace (lam, u, w, overlaps, discontinuities) from the plain
    step-by-step loop that calls _greedy_match at every step."""
    m, nf = samples[0].size, len(samples)
    idx = np.empty((nf, m), dtype=int)
    idx[0] = np.argsort(-np.abs(samples[0].lam), kind="stable")
    overlaps = np.ones((nf - 1, m))
    for t in range(nf - 1):
        cur, nxt = samples[t], samples[t + 1]
        score = np.abs(cur.u[idx[t]] @ nxt.w)
        idx[t + 1] = _greedy_match(score, cur.lam[idx[t]], nxt.lam)
        overlaps[t] = score[np.arange(m), idx[t + 1]]
    out = []
    for k in range(m):
        ov = overlaps[:, k]
        out.append((np.array([samples[t].lam[idx[t, k]] for t in range(nf)]),
                    np.array([samples[t].u[idx[t, k]] for t in range(nf)]),
                    np.array([samples[t].w[:, idx[t, k]] for t in range(nf)]),
                    ov, tuple(int(i) for i in np.nonzero(ov < overlap_threshold)[0])))
    return out


def assert_track_equals_reference(samples):
    traces = track(samples)
    assert [tr.trace_id for tr in traces] == list(range(1, samples[0].size + 1))
    for tr, (lam, u, w, ov, disc) in zip(traces, reference_track(samples)):
        assert np.array_equal(tr.f_hz, [s.f_hz for s in samples])
        assert np.array_equal(tr.lam, lam)
        assert np.array_equal(tr.u, u)
        assert np.array_equal(tr.w, w)
        assert np.array_equal(tr.overlaps, ov)
        assert tr.discontinuities == disc
    return traces


def test_track_equals_greedy_reference_on_fixture(case_graph):
    assert_track_equals_reference(
        sweep(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0)))


def test_track_equals_greedy_reference_on_random_systems():
    grid = FrequencyGrid.regular(2.0, 5000.0, 5.0)
    for seed in range(20):
        assert_track_equals_reference(sweep(make_random_small_system(seed), grid))


def _two_step_samples(score_matrix, lam_next, lam_prev=(3.0, 2.0, 1.0)):
    """Samples whose single tracking step scores |u_0 . w_1| = score_matrix
    (w_0 = u_0 = I, w_1 = score_matrix)."""
    m = len(lam_prev)
    w1 = np.asarray(score_matrix, dtype=complex)
    return [EigenSample(1.0, np.asarray(lam_prev, complex), np.eye(m, dtype=complex),
                        np.eye(m, dtype=complex)),
            EigenSample(2.0, np.asarray(lam_next, complex), w1, np.linalg.inv(w1))]


@pytest.mark.parametrize("score, lam_next, expected_next", [
    # rows 0 and 1 both peak in column 0: greedy gives column 0 to row 0
    ([[0.9, 0.1, 0.0], [0.8, 0.5, 0.1], [0.1, 0.2, 0.7]],
     (3.1, 2.1, 1.1), (3.1, 2.1, 1.1)),
    # row 0 ties columns 0 and 1: the nearer eigenvalue (column 1) wins,
    # which leaves column 0 to row 1 against its own row maximum
    ([[0.6, 0.6, 0.0], [0.2, 0.3, 0.0], [0.0, 0.0, 0.9]],
     (2.1, 3.1, 1.1), (3.1, 2.1, 1.1)),
])
def test_track_falls_back_to_greedy_match(monkeypatch, score, lam_next, expected_next):
    calls = []

    def counted(*args):
        calls.append(1)
        return _greedy_match(*args)

    monkeypatch.setattr(stability_engine, "_greedy_match", counted)
    samples = _two_step_samples(score, lam_next)
    traces = assert_track_equals_reference(samples)
    assert len(calls) == 1
    assert tuple(tr.lam[1].real for tr in traces) == expected_next


# --- crossover detection ---

def synthetic_trace(freqs, lam) -> EigenTrace:
    n = len(freqs)
    ones = np.ones((n, 1), dtype=complex)
    return EigenTrace(1, np.asarray(freqs, float), np.asarray(lam, complex),
                      ones, ones, np.ones(n - 1))


def scalar_matrices(lam_at):
    """matrices_at of the 1x1 system whose eigenvalue is lam_at(f)."""
    return lambda fs: np.array([[[lam_at(f)]] for f in fs])


def test_crossover_on_synthetic_linear_trace():
    lam_at = lambda f: -0.01 + 1j * (f - 1000.0) / 1000.0
    freqs = np.arange(990.0, 1011.0)
    events = find_crossovers(synthetic_trace(freqs, lam_at(freqs)), scalar_matrices(lam_at))
    assert len(events) == 1
    ev = events[0]
    assert ev.f_cr_hz == pytest.approx(1000.0, abs=1e-9)
    assert ev.re_lambda == pytest.approx(-0.01, abs=1e-12)
    assert ev.verdict == "critical"
    assert ev.direction == "rising"


def test_crossover_bisection_refines_against_matrix():
    fc = 1000.3
    lam_at = lambda f: -0.01 + 1j * (f - fc) / 1000.0
    freqs = np.arange(990.0, 1011.0)
    events = find_crossovers(synthetic_trace(freqs, lam_at(freqs)), scalar_matrices(lam_at))
    assert len(events) == 1
    assert events[0].f_cr_hz == pytest.approx(fc, abs=2e-3)
    assert events[0].re_lambda == pytest.approx(-0.01, abs=1e-6)


def assert_refined_crossover(matrix_at, refined, f_lo, f_hi, im_lo, im_hi, u_ref):
    """A refine_crossover result lies inside its bracket, is the eigenvalue
    that overlap with u_ref picks, and meets the |Im| tolerance on an
    independent decomposition."""
    smp, j = refined
    assert f_lo < smp.f_hz < f_hi
    assert _pick_matching_eig(smp, u_ref) == j
    ind = eig_lr(matrix_at(smp.f_hz), smp.f_hz)
    lam = ind.lam[_pick_matching_eig(ind, u_ref)]
    assert lam == pytest.approx(smp.lam[j], abs=1e-9 * max(1.0, abs(lam)))
    assert abs(lam.imag) <= 1e-6 * max(1.0, abs(lam.real))


def assert_crossings_refine(g, grid) -> int:
    """Every sign change of Im[lambda] on g's traces refines to a crossover
    with the assert_refined_crossover properties; returns their number."""
    n = 0
    for tr in track(sweep(g, grid)):
        im = tr.lam.imag
        for t in np.nonzero(im[:-1] * im[1:] < 0)[0]:
            bracket = (float(tr.f_hz[t]), float(tr.f_hz[t + 1]),
                       float(im[t]), float(im[t + 1]), tr.u[t])
            refined = refine_crossover(lambda fs: assemble_grid(g, fs), *bracket)
            assert_refined_crossover(lambda f: assemble(g, f), refined, *bracket)
            n += 1
    return n


def test_refined_crossovers_hold_on_fixture(case_graph):
    n = assert_crossings_refine(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))
    assert n == 10


def test_refined_crossovers_hold_on_random_systems():
    grid = FrequencyGrid.regular(2.0, 5000.0, 5.0)
    n = sum(assert_crossings_refine(make_random_small_system(seed), grid)
            for seed in range(20))
    assert n > 20


def test_refined_crossovers_hold_in_planner(case_graph, monkeypatch):
    """Every follower refinement of a coarse-step plan at node 4, most of
    them at nonzero conductance."""
    checked = []

    def refine(matrices_at, *bracket):
        refined = refine_crossover(matrices_at, *bracket)
        assert_refined_crossover(lambda f: matrices_at([f])[0], refined, *bracket)
        checked.append(bracket)
        return refined

    monkeypatch.setattr(compensation_planner, "refine_crossover", refine)
    _, traces, report = analyze(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))
    cplan = compensation_planner.plan(case_graph, 4, traces, report, 0.005, dalpha=0.005)
    # one refinement per accumulation step (more if a window widens)
    assert len(checked) >= sum(e.iterations for e in cplan.entries) > 3 * len(cplan.entries)


def counted_scalar_matrices(lam_at, sizes):
    """scalar_matrices that records the number of points of every call."""
    def matrices_at(fs):
        sizes.append(len(fs))
        return scalar_matrices(lam_at)(fs)
    return matrices_at


def test_illinois_step_converges_on_one_sided_curve():
    """Im = exp(f/5) - 2 is so convex on [0, 100] that plain regula falsi
    keeps the high end for ever and stalls; halving the kept end's Im
    gets the root well within the step cap."""
    lam_at = lambda f: 1.0 + 1j * (math.exp(f / 5.0) - 2.0)
    sizes = []
    smp, j = refine_crossover(counted_scalar_matrices(lam_at, sizes), 0.0, 100.0,
                              lam_at(0.0).imag, lam_at(100.0).imag, np.ones(1, complex))
    assert smp.f_hz == pytest.approx(5.0 * math.log(2.0), abs=1e-6)
    assert abs(smp.lam[j].imag) <= 1e-6
    assert sizes == [1] * len(sizes) and len(sizes) < 60


@pytest.mark.parametrize("max_steps", [1, 7, 8])
def test_refinement_step_cap_names_the_bracket(max_steps):
    """Im jumps from -1 to +1 at 37.3 Hz without a zero: every step
    decomposes one point, and the error after max_steps steps names the
    bracket it has narrowed to."""
    lam_at = lambda f: 1.0 + 1j * (1.0 if f >= 37.3 else -1.0)
    sizes = []
    with pytest.raises(BisectionError) as err:
        refine_crossover(counted_scalar_matrices(lam_at, sizes), 0.0, 100.0, -1.0, 1.0,
                         np.ones(1, complex), max_steps=max_steps)
    assert sizes == [1] * max_steps
    lo, hi = re.search(r"at \[(\S+), (\S+)\] Hz", str(err.value)).groups()
    assert 0.0 <= float(lo) < 37.3 <= float(hi) < 100.0


def test_no_crossover_when_imag_stays_positive():
    lam_at = lambda f: 0.5 + 1j * (1.0 + 0.01 * f)
    freqs = np.arange(10.0, 100.0, 10.0)
    assert find_crossovers(synthetic_trace(freqs, lam_at(freqs)), scalar_matrices(lam_at)) == []


# --- assessment ---

def test_assess_stable_without_crossovers():
    lam_at = lambda f: 0.5 + 1j * (1.0 + 0.01 * f)
    freqs = np.arange(10.0, 100.0, 10.0)
    report = assess([synthetic_trace(freqs, lam_at(freqs))], scalar_matrices(lam_at))
    assert report.stable
    assert report.events == ()


def test_assess_flags_negative_crossover_trace():
    lam_at = lambda f: -0.0049 + 1j * (f - 1000.0) / 1000.0
    freqs = np.arange(990.0, 1011.0)
    report = assess([synthetic_trace(freqs, lam_at(freqs))], scalar_matrices(lam_at))
    assert not report.stable
    assert report.critical_trace_ids == (1,)
    assert report.events[0].re_lambda == pytest.approx(-0.0049, abs=1e-12)


def test_assess_stable_with_margin_crossings():
    lam_at = lambda f: 0.02 + 1j * (f - 1000.0) / 1000.0
    freqs = np.arange(990.0, 1011.0)
    report = assess([synthetic_trace(freqs, lam_at(freqs))], scalar_matrices(lam_at),
                    margin=0.005)
    assert report.stable
    assert report.events[0].verdict == "stable-crossing"


# --- spectral shift property ---

def test_added_identity_shifts_every_eigenvalue_exactly(case_graph, rng):
    m = assemble_grid(case_graph, np.asarray([777.0]))[0]
    c = complex(rng.normal(), rng.normal())
    s0 = eig_lr(m)
    s1 = eig_lr(m + c * np.eye(8))
    # pair by eigenvector overlap
    match = np.argmax(np.abs(s0.u @ s1.w), axis=1)
    assert sorted(match) == list(range(8))
    scale = max(1.0, float(np.max(np.abs(s0.lam))))
    for k in range(8):
        assert abs(s1.lam[match[k]] - s0.lam[k] - c) <= 1e-9 * scale


# --- Nyquist winding oracle ---

def circle_trace(center: complex, radius: float) -> EigenTrace:
    freqs = np.linspace(10.0, 1010.0, 201)
    theta = -math.pi + (freqs - 10.0) / 1000.0 * math.pi
    lam = center + radius * np.exp(1j * theta)
    return synthetic_trace(freqs, lam)


def test_winding_circle_around_origin():
    assert nyquist_winding(circle_trace(0.1 + 0j, 1.0)) == 1


def test_winding_circle_not_enclosing_origin():
    assert nyquist_winding(circle_trace(3.0 + 0j, 1.0)) == 0


def test_winding_indeterminate_when_passing_origin():
    freqs = np.arange(10.0, 30.0)
    lam = (freqs - 20.0) / 1000.0 + 0j  # runs through the origin
    assert nyquist_winding(synthetic_trace(freqs, lam)) is None


def test_gpndsc_agrees_with_winding_on_random_systems():
    grid = FrequencyGrid.regular(2.0, 5000.0, 2.0)
    checked = 0
    for seed in range(5):
        g = make_random_small_system(seed)
        _, traces, report = analyze(g, grid)
        windings = [nyquist_winding(tr) for tr in traces]
        if any(w is None for w in windings):
            continue
        checked += 1
        assert (sum(abs(w) for w in windings) == 0) == report.stable, f"seed {seed}"
    assert checked >= 3
