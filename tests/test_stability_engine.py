import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_random_small_system
from damp_planner import compensation_planner, stability_engine
from damp_planner.component_models import AdmittanceTable, CapacitorParams, GridImpedanceParams
from damp_planner.dq_core import FrequencyGrid
from damp_planner.network_assembly import NetworkGraph, Shunt, assemble, assemble_grid
from damp_planner.stability_engine import (
    BisectionError,
    CrossoverEvent,
    DefectiveMatrixWarning,
    EigenSample,
    EigenTrace,
    EigNonConvergenceError,
    Spectrum,
    _greedy_match,
    _pick_matching_eig,
    analyze,
    assess,
    eig_lr,
    eig_lr_batch,
    nyquist_winding,
    refine_crossovers,
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
    assert isinstance(batch, Spectrum) and len(batch) == len(fs)
    assert batch.f_hz.tolist() == fs
    assert batch.lam.shape == (6, 8) and batch.w.shape == batch.u.shape == (6, 8, 8)
    for k, (m, f) in enumerate(zip(mats, fs)):
        got, want = batch[k], eig_lr(m, f)
        assert type(got.f_hz) is float and got.f_hz == f
        assert np.array_equal(got.lam, want.lam)
        assert np.array_equal(got.w, want.w)
        assert np.array_equal(got.u, want.u)


def test_eig_batch_rejects_nonfinite_member():
    mats = np.stack([np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])])
    with pytest.raises(ValueError, match="non-finite"):
        eig_lr_batch(mats, [10.0, 20.0])


def test_eig_batch_names_the_first_nonfinite_frequency():
    bad = np.array([[1.0, 0.0], [np.inf, 1.0]])
    mats = np.stack([np.eye(2), bad, np.eye(2), bad])
    with pytest.raises(ValueError) as err:
        eig_lr_batch(mats, [10.0, 20.0, 30.0, 40.0])
    assert str(err.value) == "matrix at f=20.0 Hz has non-finite entries"


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
    grid = FrequencyGrid.regular(10.0, 1000.0, 10.0)
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
    assert got.f_hz.tolist() == [s.f_hz for s in want]
    assert np.array_equal(got.lam, np.stack([s.lam for s in want]))
    assert np.array_equal(got.w, np.stack([s.w for s in want]))
    assert np.array_equal(got.u, np.stack([s.u for s in want]))


def test_sweep_equals_stacked_reference_on_fixture(case_graph):
    assert_sweep_equals_reference(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))


def test_sweep_equals_stacked_reference_on_random_systems():
    grid = FrequencyGrid.regular(2.0, 5000.0, 5.0)
    for seed in range(20):
        assert_sweep_equals_reference(make_random_small_system(seed), grid)


def test_sweep_builds_no_per_frequency_samples(case_graph, monkeypatch):
    built = []

    def counted(*args):
        built.append(1)
        return EigenSample(*args)

    monkeypatch.setattr(stability_engine, "EigenSample", counted)
    spec = sweep(case_graph, FrequencyGrid.regular(10.0, 2500.0, 10.0))
    track(spec)
    assert len(spec) == 250 and built == []
    assert spec[3].f_hz == 40.0 and built == [1]


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps call arguments on the caller's stack until "
                           "the call returns, so the assembled stack outlives eig there")
def test_sweep_frees_the_assembled_stack_before_inv(case_graph):
    """The traced peak of one fixture sweep on the 1 Hz grid stays below
    2.5 stacks of nf m^2 complex numbers: the assembled matrices are let go
    once eig has returned, so inv builds u beside w alone, not beside w
    and the matrices."""
    grid = FrequencyGrid.regular(10.0, 2500.0, 1.0)
    sweep(case_graph, grid)  # warm-up: lazy imports and caches
    nf, m = len(grid), 2 * case_graph.n
    tracemalloc.start()
    try:
        sweep(case_graph, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * nf * m * m * 16


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
    samples = eig_lr_batch(np.stack([m, m, m]), [10.0, 20.0, 30.0])
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
    mats = []
    for f in freqs:
        d = np.diag([1.0 + 1j * (f - fc) / 1000.0, 1.0 - 1j * (f - fc) / 1000.0])
        mats.append(q @ d @ q.T)
    traces = track(eig_lr_batch(np.stack(mats), freqs))
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


def reference_track(spec, overlap_threshold=0.5):
    """Per trace (lam, u, w, overlaps, discontinuities) from the plain
    step-by-step loop over per-frequency samples that calls _greedy_match
    at every step."""
    samples = [spec[t] for t in range(len(spec))]
    m, nf = len(samples[0].lam), len(samples)
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


def assert_track_equals_reference(spec):
    traces = track(spec)
    assert [tr.trace_id for tr in traces] == list(range(1, spec.lam.shape[1] + 1))
    steps = np.arange(len(spec))
    for tr, (lam, u, w, ov, disc) in zip(traces, reference_track(spec)):
        assert np.array_equal(tr.f_hz, [spec[t].f_hz for t in range(len(spec))])
        assert np.array_equal(tr.lam, lam)
        assert np.array_equal(spec.u[steps, tr.eig_index], u)
        assert np.array_equal(spec.w[steps, :, tr.eig_index], w)
        assert np.array_equal(tr.overlaps, ov)
        assert tr.discontinuities == disc
    return traces


def test_track_holds_no_eigenvector_stack(case_graph):
    """A trace is a column of the tracker's index map: every array it holds
    is one-dimensional, and its eigenvalues are the Spectrum's at its
    indices."""
    spec = sweep(case_graph, FrequencyGrid.regular(10.0, 2500.0, 10.0))
    for tr in track(spec):
        arrays = [v for v in vars(tr).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 4 and all(a.ndim == 1 for a in arrays)
        assert np.array_equal(tr.lam, spec.lam[np.arange(len(spec)), tr.eig_index])


def test_track_equals_greedy_reference_on_fixture(case_graph):
    assert_track_equals_reference(
        sweep(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0)))


def test_track_equals_greedy_reference_on_random_systems():
    grid = FrequencyGrid.regular(2.0, 5000.0, 5.0)
    for seed in range(20):
        assert_track_equals_reference(sweep(make_random_small_system(seed), grid))


def _two_step_samples(score_matrix, lam_next, lam_prev=(3.0, 2.0, 1.0)):
    """Two-frequency Spectrum whose single tracking step scores
    |u_0 . w_1| = score_matrix (w_0 = u_0 = I, w_1 = score_matrix); built
    from its arrays, since no decomposition yields these exact scores."""
    m = len(lam_prev)
    w1 = np.asarray(score_matrix, dtype=complex)
    eye = np.eye(m, dtype=complex)
    return Spectrum(np.array([1.0, 2.0]), np.array([lam_prev, lam_next], complex),
                    np.stack([eye, w1]), np.stack([eye, np.linalg.inv(w1)]))


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

def synthetic_trace(freqs, lam) -> tuple[Spectrum, EigenTrace]:
    """The 1x1 Spectrum whose eigenvalue is lam (unit eigenvectors) and its
    one trace."""
    n = len(freqs)
    f, lam = np.asarray(freqs, float), np.asarray(lam, complex)
    ones = np.ones((n, 1, 1), dtype=complex)
    return (Spectrum(f, lam[:, None], ones, ones),
            EigenTrace(1, f, lam, np.zeros(n, dtype=int), np.ones(n - 1)))


def assess_synthetic(freqs, lam_at):
    """assess of the one synthetic trace of lam_at over freqs."""
    spec, trace = synthetic_trace(freqs, lam_at(freqs))
    return assess(spec, [trace], scalar_matrices(lam_at))


def scalar_matrices(lam_at):
    """matrices_at of the 1x1 system whose eigenvalue is lam_at(f)."""
    return lambda fs: np.array([[[lam_at(f)]] for f in fs])


def refine_one(matrices_at, f_lo, f_hi, im_lo, im_hi, u_ref):
    """refine_crossovers on one bracket: its result, or its BisectionError
    raised."""
    [refined] = refine_crossovers(matrices_at, [(f_lo, f_hi, im_lo, im_hi, u_ref)])
    if isinstance(refined, BisectionError):
        raise refined
    return refined


def test_crossover_on_synthetic_linear_trace():
    lam_at = lambda f: -0.01 + 1j * (f - 1000.0) / 1000.0
    freqs = np.arange(990.0, 1011.0)
    events = assess_synthetic(freqs, lam_at).events
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
    events = assess_synthetic(freqs, lam_at).events
    assert len(events) == 1
    assert events[0].f_cr_hz == pytest.approx(fc, abs=2e-3)
    assert events[0].re_lambda == pytest.approx(-0.01, abs=1e-6)


def assert_refined_crossover(matrix_at, refined, f_lo, f_hi, im_lo, im_hi, u_ref):
    """A refine_crossovers result lies inside its bracket, is the eigenvalue
    that overlap with u_ref picks, and meets the |Im| tolerance on an
    independent decomposition."""
    smp, j = refined
    assert f_lo < smp.f_hz < f_hi
    assert _pick_matching_eig(u_ref, smp.w) == j
    ind = eig_lr(matrix_at(smp.f_hz), smp.f_hz)
    lam = ind.lam[_pick_matching_eig(u_ref, ind.w)]
    assert lam == pytest.approx(smp.lam[j], abs=1e-9 * max(1.0, abs(lam)))
    assert abs(lam.imag) <= 1e-6 * max(1.0, abs(lam.real))


def assert_crossings_refine(g, grid) -> int:
    """Every sign change of Im[lambda] on g's traces refines to a crossover
    with the assert_refined_crossover properties, and every event assess
    finds on them carries the decomposition at its crossing; returns the
    number of sign changes."""
    n = 0
    spec = sweep(g, grid)
    traces = track(spec)
    for tr in traces:
        im = tr.lam.imag
        for t in np.nonzero(im[:-1] * im[1:] < 0)[0]:
            bracket = (float(tr.f_hz[t]), float(tr.f_hz[t + 1]),
                       float(im[t]), float(im[t + 1]), spec.u[t, tr.eig_index[t]])
            refined = refine_one(lambda fs: assemble_grid(g, fs), *bracket)
            assert_refined_crossover(lambda f: assemble(g, f), refined, *bracket)
            n += 1
    for ev in assess(spec, traces, lambda fs: assemble_grid(g, fs)).events:
        assert ev.sample.f_hz == ev.f_cr_hz
        assert ev.sample.lam[ev.eig_index].real == ev.re_lambda
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

    def refine(matrices_at, brackets):
        refined = refine_crossovers(matrices_at, brackets)
        for bracket, one in zip(brackets, refined):
            assert_refined_crossover(lambda f: matrices_at([f])[0], one, *bracket)
            checked.append(bracket)
        return refined

    monkeypatch.setattr(compensation_planner, "refine_crossovers", refine)
    _, traces, report = analyze(case_graph, FrequencyGrid.regular(10.0, 2500.0, 1.0))
    cplan = compensation_planner.plan(case_graph, 4, traces, report, 0.005, dalpha=0.005)
    # one refinement per accumulation step (more if a window widens)
    assert len(checked) >= sum(e.iterations for e in cplan.entries) > 3 * len(cplan.entries)


def test_batched_locator_equals_each_bracket_refined_alone():
    """Every sign-change bracket of seeds 0-19, refined in one batch, gives
    the same decomposition bit for bit as refined alone; assess, which
    refines the brackets of all traces together, equals assess of each
    trace alone."""
    grid = FrequencyGrid.regular(2.0, 5000.0, 5.0)
    n = 0
    for seed in range(20):
        g = make_random_small_system(seed)
        matrices_at = lambda fs: assemble_grid(g, fs)
        spec = sweep(g, grid)
        traces = track(spec)
        brackets = [(float(tr.f_hz[t]), float(tr.f_hz[t + 1]),
                     float(tr.lam.imag[t]), float(tr.lam.imag[t + 1]),
                     spec.u[t, tr.eig_index[t]])
                    for tr in traces
                    for t in np.flatnonzero(tr.lam.imag[:-1] * tr.lam.imag[1:] < 0)]
        if brackets:
            together = refine_crossovers(matrices_at, brackets)
            for bracket, (smp, j) in zip(brackets, together):
                alone, j_alone = refine_one(matrices_at, *bracket)
                assert (smp.f_hz, j) == (alone.f_hz, j_alone)
                for a, b in ((smp.lam, alone.lam), (smp.w, alone.w), (smp.u, alone.u)):
                    assert np.array_equal(a, b)
        n += len(brackets)
        per_trace = [e for tr in traces for e in assess(spec, [tr], matrices_at).events]
        per_trace.sort(key=lambda e: (e.f_cr_hz, e.trace_id))
        assert list(assess(spec, traces, matrices_at).events) == per_trace
    assert n > 20


def test_failed_bracket_does_not_stop_the_others(monkeypatch):
    """Im crosses zero at 20 Hz but jumps over it at 70.3 Hz: in one batch
    the first bracket converges as it does alone, and the second comes
    back as its own BisectionError naming its narrowed bracket."""
    lam_at = lambda f: 1.0 + 1j * ((f - 20.0) / 100.0 if f < 50.0 else
                                   (1.0 if f >= 70.3 else -1.0))
    u = np.ones(1, complex)
    sizes = []
    monkeypatch.setattr(stability_engine, "_MAX_REFINE_STEPS", 8)
    good, bad = refine_crossovers(counted_scalar_matrices(lam_at, sizes),
                                  [(0.0, 40.0, -0.2, 0.2, u), (60.0, 100.0, -1.0, 1.0, u)])
    smp, j = good
    alone, j_alone = refine_one(scalar_matrices(lam_at), 0.0, 40.0, -0.2, 0.2, u)
    assert (smp.f_hz, j, smp.lam[j]) == (alone.f_hz, j_alone, alone.lam[j_alone])
    assert isinstance(bad, BisectionError)
    lo, hi = re.search(r"at \[(\S+), (\S+)\] Hz", str(bad)).groups()
    assert 60.0 <= float(lo) < 70.3 <= float(hi) < 100.0
    # both brackets share the first rounds; then the failing one runs alone
    assert sizes[0] == 2 and sizes[-1] == 1 and len(sizes) == 8


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
    smp, j = refine_one(counted_scalar_matrices(lam_at, sizes), 0.0, 100.0,
                        lam_at(0.0).imag, lam_at(100.0).imag, np.ones(1, complex))
    assert smp.f_hz == pytest.approx(5.0 * math.log(2.0), abs=1e-6)
    assert abs(smp.lam[j].imag) <= 1e-6
    assert sizes == [1] * len(sizes) and len(sizes) < 60


@pytest.mark.parametrize("max_steps", [1, 7, 8])
def test_refinement_step_cap_names_the_bracket(max_steps, monkeypatch):
    """Im jumps from -1 to +1 at 37.3 Hz without a zero: every step
    decomposes one point, and the error after max_steps steps names the
    bracket it has narrowed to."""
    lam_at = lambda f: 1.0 + 1j * (1.0 if f >= 37.3 else -1.0)
    sizes = []
    monkeypatch.setattr(stability_engine, "_MAX_REFINE_STEPS", max_steps)
    with pytest.raises(BisectionError) as err:
        refine_one(counted_scalar_matrices(lam_at, sizes), 0.0, 100.0, -1.0, 1.0,
                   np.ones(1, complex))
    assert sizes == [1] * max_steps
    lo, hi = re.search(r"at \[(\S+), (\S+)\] Hz", str(err.value)).groups()
    assert 0.0 <= float(lo) < 37.3 <= float(hi) < 100.0


def test_no_crossover_when_imag_stays_positive():
    lam_at = lambda f: 0.5 + 1j * (1.0 + 0.01 * f)
    freqs = np.arange(10.0, 100.0, 10.0)
    assert assess_synthetic(freqs, lam_at).events == ()


def reference_find_crossovers(spec, trace, matrices_at):
    """assess(spec, [trace]).events as the plain loop over every step of
    the trace: a sample at Im = 0 keeps its f and is decomposed alone,
    every sign change is refined alone."""
    events = []
    im, re_, f = trace.lam.imag, trace.lam.real, trace.f_hz
    u = spec.u[np.arange(len(trace)), trace.eig_index]

    def event(f_cr, re_cr, direction, smp, j):
        verdict = "critical" if re_cr <= 0.0 else "stable-crossing"
        return CrossoverEvent(trace.trace_id, f_cr, re_cr, direction, verdict, smp, j)

    def on_axis(t, direction):
        smp = eig_lr(matrices_at([float(f[t])])[0], float(f[t]))
        return event(float(f[t]), float(re_[t]), direction, smp,
                     _pick_matching_eig(u[t], smp.w))

    for t in range(len(trace) - 1):
        if im[t] == 0.0:
            events.append(on_axis(t, "falling" if im[t + 1] < 0 else "rising"))
            continue
        if im[t] * im[t + 1] < 0:
            direction = "falling" if im[t] > 0 else "rising"
            smp, j = refine_one(matrices_at, float(f[t]), float(f[t + 1]),
                                float(im[t]), float(im[t + 1]), u[t])
            events.append(event(smp.f_hz, float(smp.lam[j].real), direction, smp, j))
    if len(trace) and im[-1] == 0.0:
        events.append(on_axis(len(trace) - 1, "rising" if im[-2] < 0 else "falling"))
    return events


@pytest.mark.parametrize("freqs, im_at, n_events", [
    # Im exactly 0 at the first sample
    (np.arange(1000.0, 1011.0), lambda f: (f - 1000.0) / 1000.0, 1),
    # at an interior sample, then a refined sign change at 1005.5
    (np.arange(990.0, 1011.0), lambda f: (f - 1000.0) * (f - 1005.5) / 1000.0, 2),
    # at two consecutive samples (Im = 0 on [1000, 1001], positive before, negative after)
    (np.arange(990.0, 1011.0),
     lambda f: -(min(f - 1000.0, 0.0) + max(f - 1001.0, 0.0)) / 1000.0, 2),
    # at the last sample
    (np.arange(990.0, 1001.0), lambda f: (f - 1000.0) / 1000.0, 1),
], ids=["first", "interior", "two-consecutive", "last"])
def test_find_crossovers_exact_zeros_match_the_plain_loop(freqs, im_at, n_events):
    lam_at = lambda f: -0.01 + 1j * im_at(f)
    spec, trace = synthetic_trace(freqs, [lam_at(f) for f in freqs])
    assert np.count_nonzero(trace.lam.imag == 0.0) >= 1
    events = assess(spec, [trace], scalar_matrices(lam_at)).events
    assert len(events) == n_events
    assert list(events) == reference_find_crossovers(spec, trace, scalar_matrices(lam_at))
    zeros = set(trace.f_hz[trace.lam.imag == 0.0])
    on_axis = [ev for ev in events if ev.f_cr_hz in zeros]
    assert len(on_axis) == len(zeros)
    for ev in on_axis:
        assert ev.sample.f_hz == ev.f_cr_hz
        assert ev.sample.lam[ev.eig_index].imag == 0.0


def test_assess_on_axis_crossing_on_assembled_network():
    """Seed 37's trace 1 has Im exactly 0 at the 50 Hz sample: its event
    keeps that sample's f and Re bit for bit, and its zero-width bracket
    is decomposed in the same single locator round as the two sign-change
    brackets."""
    g = make_random_small_system(37)
    spec = sweep(g, FrequencyGrid.regular(2.0, 5000.0, 2.0))
    traces = track(spec)
    tr = traces[0]
    [t] = np.flatnonzero(tr.lam.imag == 0.0)
    assert (tr.trace_id, tr.f_hz[t]) == (1, 50.0)
    sizes = []

    def matrices_at(fs):
        sizes.append(len(fs))
        return assemble_grid(g, fs)

    report = assess(spec, traces, matrices_at)
    [ev] = [e for e in report.events if e.f_cr_hz == 50.0]
    assert ev.trace_id == 1
    assert ev.sample.f_hz == 50.0
    assert ev.sample.lam[ev.eig_index].imag == 0.0
    assert ev.re_lambda == tr.lam.real[t] == 2.3210776389067425
    assert sizes == [3]


# --- assessment ---

def test_assess_stable_without_crossovers():
    lam_at = lambda f: 0.5 + 1j * (1.0 + 0.01 * f)
    freqs = np.arange(10.0, 100.0, 10.0)
    report = assess_synthetic(freqs, lam_at)
    assert report.stable
    assert report.events == ()


def test_assess_flags_negative_crossover_trace():
    lam_at = lambda f: -0.0049 + 1j * (f - 1000.0) / 1000.0
    freqs = np.arange(990.0, 1011.0)
    report = assess_synthetic(freqs, lam_at)
    assert not report.stable
    assert report.critical_trace_ids == (1,)
    assert report.events[0].re_lambda == pytest.approx(-0.0049, abs=1e-12)


def test_assess_stable_with_margin_crossings():
    lam_at = lambda f: 0.02 + 1j * (f - 1000.0) / 1000.0
    freqs = np.arange(990.0, 1011.0)
    report = assess_synthetic(freqs, lam_at)
    assert report.stable
    assert report.events[0].verdict == "stable-crossing"



def test_crossing_with_zero_real_part_is_critical():
    """A node whose table device is diag(jb, jb), b = (f - 100)/100 S: both
    traces cross at the 100 Hz sample with Re[lambda] exactly 0, which is
    no damping, so both crossings are critical and the verdict unstable."""
    f_tab = np.arange(10.0, 1001.0)
    b = 1j * (f_tab - 100.0) / 100.0
    blocks = np.zeros((len(f_tab), 2, 2), complex)
    blocks[:, 0, 0] = blocks[:, 1, 1] = b
    g = NetworkGraph((1,), (), (Shunt(1, AdmittanceTable(f_tab, blocks)),), W0)
    _, _, report = analyze(g, FrequencyGrid.regular(10.0, 1000.0, 1.0))
    assert [(e.f_cr_hz, e.re_lambda, e.verdict) for e in report.events] == [
        (100.0, 0.0, "critical"), (100.0, 0.0, "critical")]
    assert report.critical_trace_ids == (1, 2)
    assert not report.stable

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
    return synthetic_trace(freqs, lam)[1]


def test_winding_circle_around_origin():
    assert nyquist_winding(circle_trace(0.1 + 0j, 1.0)) == 1


def test_winding_circle_not_enclosing_origin():
    assert nyquist_winding(circle_trace(3.0 + 0j, 1.0)) == 0


def test_winding_indeterminate_when_passing_origin():
    freqs = np.arange(10.0, 30.0)
    lam = (freqs - 20.0) / 1000.0 + 0j  # runs through the origin
    assert nyquist_winding(synthetic_trace(freqs, lam)[1]) is None


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
