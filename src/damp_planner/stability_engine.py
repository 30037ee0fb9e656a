"""Frequency sweep, eigen-decomposition, trace tracking and the stability
criterion.

The system is declared stable iff at every frequency where an eigenvalue
trace of the nodal admittance matrix crosses the real axis (Im = 0), the
real part is positive.  Crossings with Re <= 0 are the critical
(undamped or negatively damped) oscillatory modes.  assess finds them: every sign
change and every sample on the axis, of every trace, is one bracket
(_crossing_brackets, the rule the planner's follower scans share) of a
single refine_crossovers run, and each event carries the decomposition
that run located it with.  A discrete Nyquist winding count
over the conjugate-closed eigenvalue loci is provided as a cross-check
oracle for tests; it is not part of the shipped verdict.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dq_core import FrequencyGrid
from .network_assembly import NetworkGraph, assemble_grid

# eigenvector-overlap score below which a tracking step is flagged
DEFAULT_OVERLAP_THRESHOLD = 0.5
# regula falsi rounds after which a bracket still open is a BisectionError
_MAX_REFINE_STEPS = 60
# distance from the origin below which a winding count is indeterminate
_ORIGIN_TOL = 1e-9


class EigNonConvergenceError(RuntimeError):
    """The eigenvalue iteration failed to converge."""


class DefectiveMatrixWarning(UserWarning):
    """Right-eigenvector matrix is ill-conditioned; sensitivities unreliable."""


class BisectionError(RuntimeError):
    """Crossover refinement did not reach tolerance within the step cap."""


@dataclass(frozen=True)
class EigenSample:
    """Full spectrum at one frequency.

    w holds right eigenvectors as columns; u holds left eigenvectors as
    rows and equals inv(w), so u @ w = I (the biorthogonal normalization
    the first-order perturbation formulas assume).
    """

    f_hz: float
    lam: np.ndarray
    w: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """EigenSamples stacked over frequency: f_hz (nf,), lam (nf, m), w and
    u (nf, m, m); spec[k] is the EigenSample at f_hz[k], a view of row k."""

    f_hz: np.ndarray
    lam: np.ndarray
    w: np.ndarray
    u: np.ndarray

    def __len__(self) -> int:
        return len(self.f_hz)

    def __getitem__(self, k: int) -> EigenSample:
        return EigenSample(float(self.f_hz[k]), self.lam[k], self.w[k], self.u[k])


def eig_lr_batch(mats: np.ndarray, f_hz: Sequence[float]) -> Spectrum:
    """eig_lr over a stack of matrices (len(f_hz), m, m), one decomposition
    call for the whole stack, returned as one Spectrum.

    Raises ValueError or EigNonConvergenceError naming the first frequency
    with a non-finite entry or whose iteration fails; warns
    DefectiveMatrixWarning, with the member's frequency, for every member
    whose Frobenius condition number cond_F(W) = ||W||_F ||U||_F =
    sqrt(m) ||U||_F (unit-norm eigenvector columns, U = inv(W)) exceeds
    1e10: a near-defective matrix, whose left vectors via inversion lose
    accuracy.  cond_2 <= cond_F <= m cond_2, so every member with
    cond_2(W) > 1e10 warns, and one may warn up to a factor m earlier.
    """
    mats = np.asarray(mats, dtype=complex)
    if not np.all(np.isfinite(mats)):
        k = np.flatnonzero(~np.isfinite(mats).all(axis=(1, 2)))[0]
        raise ValueError(f"matrix at f={f_hz[k]} Hz has non-finite entries")
    try:
        lam, w = np.linalg.eig(mats)
    except np.linalg.LinAlgError:
        # the stacked call does not say which member failed
        for m, f in zip(mats, f_hz):
            try:
                np.linalg.eig(m)
            except np.linalg.LinAlgError as e:
                raise EigNonConvergenceError(f"eig failed at f={f} Hz: {e}") from e
        raise
    del mats  # not needed past eig: a sweep's assembled stack is freed before inv
    u = np.linalg.inv(w)
    # ||U||_F^2 from views of U's parts: no (nf, m, m) temporary
    sq = np.einsum("kij,kij->k", u.real, u.real) + np.einsum("kij,kij->k", u.imag, u.imag)
    cond = np.sqrt(w.shape[-1] * sq)
    for k in np.flatnonzero(cond > 1e10):
        warnings.warn(f"near-defective matrix at f={f_hz[k]} Hz (cond_F(W)={cond[k]:.2e})",
                      DefectiveMatrixWarning, stacklevel=2)
    return Spectrum(np.asarray(f_hz, dtype=float), lam, w, u)


def eig_lr(m: np.ndarray, f_hz: float = float("nan")) -> EigenSample:
    """Eigenvalues with biorthogonal left/right eigenvectors of one matrix;
    the single-matrix case of eig_lr_batch, with the same checks."""
    return eig_lr_batch(np.asarray(m)[None], [f_hz])[0]


def sweep(g: NetworkGraph, grid: FrequencyGrid) -> Spectrum:
    """The Spectrum of the grid, in grid order: the grid assembled in one
    batch and decomposed by eig_lr_batch, with all its checks."""
    return eig_lr_batch(assemble_grid(g, grid.hz), grid.hz)


@dataclass
class EigenTrace:
    """One eigenvalue followed across the sweep with a consistent identity.

    Trace ids are 1-based, assigned by descending |lambda| at the first
    sweep frequency.  eig_index[t] is the trace's eigenvalue index in the
    swept Spectrum at sample t, so its eigenvectors there are
    spec.u[t, eig_index[t]] and spec.w[t, :, eig_index[t]]; the trace
    holds no copy of them.  overlaps[t] is the tracking score of step
    t -> t + 1, and discontinuities lists the steps whose score fell below
    the threshold (never silently bridged, only flagged).
    """

    trace_id: int
    f_hz: np.ndarray
    lam: np.ndarray
    eig_index: np.ndarray
    overlaps: np.ndarray
    discontinuities: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.f_hz)


def _greedy_match(score: np.ndarray, lam_prev: np.ndarray, lam_next: np.ndarray) -> np.ndarray:
    """perm[k] = column of score assigned to row k, greedy by max score.

    Ties (equal scores) break toward the nearest eigenvalue in the
    complex plane, then lowest index, keeping the result deterministic.
    """
    m = score.shape[0]
    perm = np.full(m, -1)
    dist = np.abs(lam_prev[:, None] - lam_next[None, :])
    order = sorted(
        ((-score[a, b], dist[a, b], a, b) for a in range(m) for b in range(m)))
    taken_cols: set[int] = set()
    for _, _, a, b in order:
        if perm[a] < 0 and b not in taken_cols:
            perm[a] = b
            taken_cols.add(b)
    return perm


def _fast_match(score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row argmax of each (m, m) score matrix in a stack, and whether it
    is the greedy matching: when the argmax columns of the rows form a
    permutation and every row has a strict maximum, the greedy match
    assigns each row its argmax, whatever the row order and tie-break."""
    m = score.shape[-1]
    best = np.argmax(score, axis=-1)
    top = np.take_along_axis(score, best[..., None], axis=-1)
    strict = np.count_nonzero(score == top, axis=-1) == 1
    is_perm = np.all(np.sort(best, axis=-1) == np.arange(m), axis=-1)
    return best, is_perm & np.all(strict, axis=-1)


# tracking steps scored by one batched product; bounds the scores' memory
_TRACK_BLOCK = 128


def track(spec: Spectrum) -> list[EigenTrace]:
    """Connect the spectra of a sweep into continuous eigenvalue traces.

    Consecutive frequencies are matched greedily on the left/right
    eigenvector overlap |u_k(f) . w_j(f+df)| (1 for a perfectly continued
    pair under the biorthogonal normalization), so traces keep their
    identity through eigenvalue near-collisions where plain
    value-proximity matching would swap them.

    The overlap scores of a block of steps are one batched product of
    slices of spec.u and spec.w.  Where a step's row argmax is a
    permutation with a strict maximum in every row, that is the greedy
    result; the other steps go through _greedy_match.

    Each trace is one column of the resulting index map (its eig_index)
    with its eigenvalues and overlaps; the eigenvectors stay in spec.
    """
    nf, m = spec.lam.shape
    if nf < 2:
        raise ValueError("tracking needs at least 2 samples")
    idx = np.empty((nf, m), dtype=int)  # [step, trace] -> eigenvalue index
    idx[0] = np.argsort(-np.abs(spec.lam[0]), kind="stable")
    overlaps = np.ones((nf - 1, m))
    for start in range(0, nf - 1, _TRACK_BLOCK):
        stop = min(start + _TRACK_BLOCK, nf - 1)  # steps t -> t + 1 for t in [start, stop)
        score = np.abs(spec.u[start:stop] @ spec.w[start + 1:stop + 1])
        best, fast = _fast_match(score)
        for k, t in enumerate(range(start, stop)):
            if fast[k]:
                idx[t + 1] = best[k, idx[t]]
            else:
                idx[t + 1] = _greedy_match(score[k, idx[t]], spec.lam[t, idx[t]],
                                           spec.lam[t + 1])
        overlaps[start:stop] = score[np.arange(stop - start)[:, None],
                                     idx[start:stop], idx[start + 1:stop + 1]]

    # per trace k and step t: eigenvalue index and eigenvalue
    pick, ov = idx.T, overlaps.T
    lam_tr = spec.lam[np.arange(nf), pick]
    return [EigenTrace(k + 1, spec.f_hz, lam_tr[k], pick[k], ov[k],
                       tuple(np.flatnonzero(ov[k] < DEFAULT_OVERLAP_THRESHOLD).tolist()))
            for k in range(m)]


@dataclass(frozen=True)
class CrossoverEvent:
    """A frequency where Im[lambda] of one trace crosses zero, with the
    decomposition there: sample is the EigenSample the crossover locator
    found and eig_index the crossing eigenvalue's index in it, so every
    per-crossing quantity (K_C, the planner's seed) reads from the event.
    Neither takes part in comparison."""

    trace_id: int
    f_cr_hz: float
    re_lambda: float
    direction: str  # "falling" (+ to -) or "rising" (- to +)
    verdict: str    # "critical" if re_lambda <= 0, else "stable-crossing"
    sample: EigenSample = field(compare=False, repr=False)
    eig_index: int = field(compare=False, repr=False)


def _pick_matching_eig(u_ref: np.ndarray, w: np.ndarray):
    """Index of the eigenvalue whose right eigenvector best overlaps u_ref,
    argmax_j |u_ref . w_j|: over the columns of one matrix w (m, m), or
    per matrix of a stack w (n, m, m), giving (n,) indices."""
    return np.argmax(np.abs(u_ref @ w), axis=-1)


def refine_crossovers(matrices_at: Callable[[Sequence[float]], np.ndarray],
                      brackets: Sequence[tuple[float, float, float, float, np.ndarray]],
                      ) -> list[tuple[EigenSample, int] | BisectionError]:
    """Locate Im[lambda] = 0 inside each bracket (f_lo, f_hi, im_lo, im_hi,
    u_ref) by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971), all
    brackets stepping together.

    im_lo, im_hi are Im[lambda] at the bracket ends (opposite signs) and
    u_ref the eigenvalue's left eigenvector at f_lo.  A zero-width bracket
    (f, f, 0, 0, u_ref), a sample already on the axis, is decomposed once,
    at f, and accepted in the first round.  Each round takes the secant
    root of every open bracket (its midpoint when the root is not strictly
    inside) and decomposes all of them with one
    eig_lr_batch(matrices_at(fs), fs).  Per bracket it then re-identifies
    the eigenvalue by overlap with u_ref (_pick_matching_eig) and keeps the
    half whose ends differ in sign, moving u_ref with f_lo; an end kept
    twice in a row has the other end's Im halved, which stops plain regula
    falsi's one-sided stall.  A bracket leaves the batch once
    |Im| <= 1e-6 * max(1, |Re|).

    Returns, per bracket, the decomposition at its crossover and the
    eigenvalue's index in it, or a BisectionError naming the narrowed
    bracket when _MAX_REFINE_STEPS rounds do not get there; a failed
    bracket does not stop the others.
    """
    # per bracket: f_lo, f_hi, im_lo, im_hi, u_ref, end its last step kept (-1 low, +1 high)
    state = [(float(f_lo), float(f_hi), float(im_lo), float(im_hi), u_ref, 0)
             for f_lo, f_hi, im_lo, im_hi, u_ref in brackets]
    lam: list = [None] * len(state)
    out: list = [None] * len(state)
    open_ = list(range(len(state)))
    for _ in range(_MAX_REFINE_STEPS):
        if not open_:
            break
        fs = []
        for b in open_:
            lo, hi, im_lo, im_hi = state[b][:4]
            f = lo + im_lo * (hi - lo) / (im_lo - im_hi) if im_lo != im_hi else lo
            fs.append(f if lo < f < hi else 0.5 * (lo + hi))
        spec = eig_lr_batch(matrices_at(fs), fs)
        still = []
        for k, b in enumerate(open_):
            lo, hi, im_lo, im_hi, u_ref, kept = state[b]
            j = int(_pick_matching_eig(u_ref, spec.w[k]))
            lam[b] = spec.lam[k, j]
            im = float(lam[b].imag)
            if abs(im) <= 1e-6 * max(1.0, abs(lam[b].real)):
                out[b] = (spec[k], j)
                continue
            still.append(b)
            if (im > 0) == (im_lo > 0):
                state[b] = (fs[k], hi, im, 0.5 * im_hi if kept == +1 else im_hi, spec.u[k, j], +1)
            else:
                state[b] = (lo, fs[k], 0.5 * im_lo if kept == -1 else im_lo, im, u_ref, -1)
        open_ = still
    for b in open_:
        out[b] = BisectionError(
            f"crossover refinement at [{state[b][0]}, {state[b][1]}] Hz did not reach |Im| "
            f"tolerance in {_MAX_REFINE_STEPS} steps (last lambda={lam[b]})")
    return out


def _crossing_brackets(im: np.ndarray) -> np.ndarray:
    """(lo, hi) sample pairs, shape (k, 2) and ascending, of every zero
    crossing of the samples im: (t, t + 1) for a sign change between
    samples t and t + 1, (t, t) for a sample exactly on the axis, the last
    sample included."""
    change = np.append(im[:-1] * im[1:] < 0, False)  # at t: a sign change t -> t + 1
    lo = np.flatnonzero((im == 0) | change)
    return np.stack([lo, lo + change[lo]], axis=1)


@dataclass(frozen=True)
class StabilityReport:
    """The crossover events of an analysis; the verdict derives from them:
    stable iff no event is critical."""

    events: tuple[CrossoverEvent, ...]

    @property
    def critical_events(self) -> tuple[CrossoverEvent, ...]:
        return tuple(e for e in self.events if e.verdict == "critical")

    @property
    def critical_trace_ids(self) -> tuple[int, ...]:
        return tuple(sorted({e.trace_id for e in self.critical_events}))

    @property
    def stable(self) -> bool:
        return not self.critical_events


def assess(spec: Spectrum, traces: Sequence[EigenTrace],
           matrices_at: Callable[[Sequence[float]], np.ndarray]) -> StabilityReport:
    """Stability verdict: stable iff no crossover is critical, i.e. has
    Re[lambda] <= 0 (iff every crossover has Re[lambda] > 0).

    traces are tracked on spec.  Every zero crossing of Im[lambda] along
    every trace is an event, sorted by frequency, then trace id, bracketed
    by a (lo, hi) pair of _crossing_brackets: a sign change from sample t
    is (f_t, f_t+1, Im_t, Im_t+1, u_t), a sample on the axis the zero-width
    (f_t, f_t, 0, 0, u_t), u_t being spec.u[t, eig_index[t]].
    All the brackets of all traces are located by one refine_crossovers
    run on matrices_at(fs) -> (len(fs), m, m), to |Im| <= 1e-6 *
    max(1, |Re|): each round decomposes the points of every open bracket
    in one batch, and a zero-width bracket is decomposed once, at f_t.
    Every event carries its crossing's decomposition (sample, eig_index),
    which compensation_table and plan read instead of re-decomposing.
    The first bracket that fails raises its BisectionError.
    """
    crossings, brackets = [], []  # (trace id, direction) and bracket per crossing
    for tr in traces:
        im = tr.lam.imag
        for lo, hi in _crossing_brackets(im):
            # the sign after the crossing; before it for the last sample
            falling = im[lo + 1] < 0 if lo + 1 < len(im) else im[lo - 1] >= 0
            crossings.append((tr.trace_id, "falling" if falling else "rising"))
            brackets.append((tr.f_hz[lo], tr.f_hz[hi], im[lo], im[hi],
                             spec.u[lo, tr.eig_index[lo]]))
    events = []
    for (trace_id, direction), res in zip(crossings, refine_crossovers(matrices_at, brackets)):
        if isinstance(res, BisectionError):
            raise res
        smp, j = res
        re_cr = float(smp.lam[j].real)
        verdict = "critical" if re_cr <= 0.0 else "stable-crossing"
        events.append(CrossoverEvent(trace_id, smp.f_hz, re_cr, direction, verdict, smp, j))
    events.sort(key=lambda e: (e.f_cr_hz, e.trace_id))
    return StabilityReport(tuple(events))


def nyquist_winding(trace: EigenTrace) -> int | None:
    """Discrete winding number of the conjugate-closed trace around 0.

    The positive-frequency locus is closed with its complex conjugate
    traversed backwards (exact only for real-coefficient systems, which
    is why this is a cross-check oracle rather than a shipped criterion).
    Returns None (indeterminate) when the polygon passes within
    _ORIGIN_TOL of the origin.
    """
    fwd = trace.lam
    closed = np.concatenate([fwd, np.conj(fwd[::-1])])
    nxt = np.roll(closed, -1)

    # distance from origin to each closing segment
    d = nxt - closed
    seg_len2 = np.maximum(np.abs(d) ** 2, np.finfo(float).tiny)  # t = 0 on a zero-length one
    t = np.clip(-np.real(np.conj(d) * closed) / seg_len2, 0.0, 1.0)
    dist = np.abs(closed + t * d)
    if np.min(dist) < _ORIGIN_TOL:
        return None

    ang = np.angle(nxt / closed)
    return int(round(float(np.sum(ang)) / (2.0 * np.pi)))


def analyze(g: NetworkGraph, grid: FrequencyGrid):
    """Sweep, track and assess in one call.

    Returns (spectrum, traces, report), the traces tracked on the sweep's
    one Spectrum and indexing it, so the eigenvectors are held once: a
    caller that keeps only (traces, report), e.g. analyze(g, grid)[1:],
    lets the spectrum go.  The sweep and the crossover refinement decompose
    through eig_lr_batch and its checks; the crossovers of all traces are
    refined together by batched Illinois regula falsi (refine_crossovers)
    against matrices re-assembled with matrices_at(fs) = assemble_grid(g,
    fs), one assembly and decomposition per round for every open bracket.
    Tracking steps with overlap below DEFAULT_OVERLAP_THRESHOLD are
    flagged.
    """
    spec = sweep(g, grid)
    traces = track(spec)
    report = assess(spec, traces, lambda fs: assemble_grid(g, fs))
    return spec, traces, report
