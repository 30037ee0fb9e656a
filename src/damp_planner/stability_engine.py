"""Frequency sweep, eigen-decomposition, trace tracking and the stability
criterion.

The system is declared stable iff at every frequency where an eigenvalue
trace of the nodal admittance matrix crosses the real axis (Im = 0), the
real part is positive.  Crossings with negative real part are the critical
(negatively damped) oscillatory modes.  A discrete Nyquist winding count
over the conjugate-closed eigenvalue loci is provided as a cross-check
oracle for tests; it is not part of the shipped verdict.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dq_core import FrequencyGrid
from .network_assembly import NetworkGraph, assemble_grid

# eigenvector-overlap score below which a tracking step is flagged
DEFAULT_OVERLAP_THRESHOLD = 0.5


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

    @property
    def size(self) -> int:
        return len(self.lam)


def eig_lr_batch(mats: np.ndarray, f_hz: Sequence[float]) -> list[EigenSample]:
    """eig_lr over a stack of matrices (len(f_hz), m, m), one decomposition
    call for the whole stack.

    Raises ValueError on non-finite entries and EigNonConvergenceError
    naming the first frequency whose iteration fails; warns
    DefectiveMatrixWarning, with the member's frequency, for every member
    whose Frobenius condition number cond_F(W) = ||W||_F ||U||_F =
    sqrt(m) ||U||_F (unit-norm eigenvector columns, U = inv(W)) exceeds
    1e10: a near-defective matrix, whose left vectors via inversion lose
    accuracy.  cond_2 <= cond_F <= m cond_2, so every member with
    cond_2(W) > 1e10 warns, and one may warn up to a factor m earlier.
    """
    mats = np.asarray(mats, dtype=complex)
    if not np.all(np.isfinite(mats)):
        raise ValueError("matrix has non-finite entries")
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
    u = np.linalg.inv(w)
    # ||U||_F^2 from views of U's parts: no (nf, m, m) temporary
    sq = np.einsum("kij,kij->k", u.real, u.real) + np.einsum("kij,kij->k", u.imag, u.imag)
    cond = np.sqrt(w.shape[-1] * sq)
    for k in np.flatnonzero(cond > 1e10):
        warnings.warn(f"near-defective matrix at f={f_hz[k]} Hz (cond_F(W)={cond[k]:.2e})",
                      DefectiveMatrixWarning, stacklevel=2)
    return [EigenSample(float(f), lam[k], w[k], u[k]) for k, f in enumerate(f_hz)]


def eig_lr(m: np.ndarray, f_hz: float = float("nan")) -> EigenSample:
    """Eigenvalues with biorthogonal left/right eigenvectors of one matrix;
    the single-matrix case of eig_lr_batch, with the same checks."""
    return eig_lr_batch(np.asarray(m)[None], [f_hz])[0]


def sweep(g: NetworkGraph, grid: FrequencyGrid) -> list[EigenSample]:
    """One EigenSample per grid frequency, in grid order: the grid assembled
    in one batch and decomposed by eig_lr_batch, with all its checks."""
    return eig_lr_batch(assemble_grid(g, grid.hz), grid.hz)


@dataclass
class EigenTrace:
    """One eigenvalue followed across the sweep with a consistent identity.

    Trace ids are 1-based, assigned by descending |lambda| at the first
    sweep frequency.  discontinuities lists step indices whose
    eigenvector-overlap score fell below the threshold (never silently
    bridged, only flagged).
    """

    trace_id: int
    f_hz: np.ndarray
    lam: np.ndarray
    u: np.ndarray
    w: np.ndarray
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
    taken_rows: set[int] = set()
    taken_cols: set[int] = set()
    for _, _, a, b in order:
        if a in taken_rows or b in taken_cols:
            continue
        perm[a] = b
        taken_rows.add(a)
        taken_cols.add(b)
        if len(taken_rows) == m:
            break
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


# tracking steps whose spectra are stacked at once; bounds the memory of
# the batched overlap scores
_TRACK_BLOCK = 128


def track(samples: Sequence[EigenSample]) -> list[EigenTrace]:
    """Connect per-frequency spectra into continuous eigenvalue traces.

    Consecutive samples are matched greedily on the left/right
    eigenvector overlap |u_k(f) . w_j(f+df)| (1 for a perfectly continued
    pair under the biorthogonal normalization), so traces keep their
    identity through eigenvalue near-collisions where plain
    value-proximity matching would swap them.

    The overlap scores of a block of steps come from one batched product.
    Where a step's row argmax is a permutation with a strict maximum in
    every row, that is the greedy result and is used directly; the other
    steps go through _greedy_match.
    """
    if len(samples) < 2:
        raise ValueError("tracking needs at least 2 samples")
    m = samples[0].size
    nf = len(samples)

    idx = np.empty((nf, m), dtype=int)
    idx[0] = np.argsort(-np.abs(samples[0].lam), kind="stable")
    overlaps = np.ones((nf - 1, m))
    # per trace: eigenvalue, left and right eigenvector at every sample
    lam_tr = [np.empty(nf, dtype=complex) for _ in range(m)]
    u_tr = [np.empty((nf, m), dtype=complex) for _ in range(m)]
    w_tr = [np.empty((nf, m), dtype=complex) for _ in range(m)]

    for start in range(0, nf - 1, _TRACK_BLOCK):
        block = samples[start:start + _TRACK_BLOCK + 1]
        lam = np.stack([s.lam for s in block])
        u = np.stack([s.u for s in block])
        w = np.stack([s.w for s in block])
        score = np.abs(u[:-1] @ w[1:])
        best, fast = _fast_match(score)
        for k in range(len(block) - 1):
            t = start + k
            if fast[k]:
                idx[t + 1] = best[k, idx[t]]
            else:
                idx[t + 1] = _greedy_match(score[k, idx[t]], lam[k, idx[t]], lam[k + 1])
        span = slice(start, start + len(block))
        rows = idx[span]  # [step, trace] -> eigenvalue index in the block's samples
        at = np.arange(len(block))[:, None]
        overlaps[start:span.stop - 1] = score[at[:-1], rows[:-1], rows[1:]]
        lam_b, u_b, w_b = lam[at, rows], u[at, rows], w[at, :, rows]
        for k in range(m):
            lam_tr[k][span] = lam_b[:, k]
            u_tr[k][span] = u_b[:, k]
            w_tr[k][span] = w_b[:, k]

    f = np.array([s.f_hz for s in samples])
    traces = []
    for k in range(m):
        ov = overlaps[:, k]
        disc = tuple(int(i) for i in np.nonzero(ov < DEFAULT_OVERLAP_THRESHOLD)[0])
        traces.append(EigenTrace(k + 1, f, lam_tr[k], u_tr[k], w_tr[k], ov, disc))
    return traces


@dataclass(frozen=True)
class CrossoverEvent:
    """A frequency where Im[lambda] of one trace crosses zero."""

    trace_id: int
    f_cr_hz: float
    re_lambda: float
    direction: str  # "falling" (+ to -) or "rising" (- to +)
    verdict: str    # "critical" if re_lambda < margin else "stable-crossing"


def _pick_matching_eig(sample: EigenSample, u_ref: np.ndarray) -> int:
    """Index of the eigenvalue whose right eigenvector best overlaps u_ref."""
    return int(np.argmax(np.abs(u_ref @ sample.w)))


# bisection levels per batch: 3 midpoints cost about what 1 does
_BISECT_LEVELS = 2


def refine_crossover(matrices_at: Callable[[Sequence[float]], np.ndarray],
                     f_lo: float, f_hi: float, im_lo: float,
                     u_ref: np.ndarray,
                     max_steps: int = 60) -> tuple[EigenSample, int]:
    """Locate Im[lambda] = 0 inside [f_lo, f_hi] by batched two-level
    bisection: one matrices_at(fs) -> (len(fs), m, m) and one eig_lr_batch
    per round cover the midpoints of the next two levels, walked as plain
    bisection.  im_lo is Im[lambda] at f_lo and u_ref the eigenvalue's
    left eigenvector there; at every visited midpoint the eigenvalue is
    re-identified by eigenvector overlap.  Returns the decomposition at
    the crossover (|Im| <= 1e-6 * max(1, |Re|)) and the eigenvalue's index
    in it; raises BisectionError when max_steps visited midpoints do not
    get there.
    """
    lam_best = None
    steps = 0
    while steps < max_steps:
        levels = min(_BISECT_LEVELS, max_steps - steps)
        # heap order: bracket k has midpoint fs[k], halves 2k+1 and 2k+2
        fs, brackets = [], [(f_lo, f_hi)]
        for k in range(2 ** levels - 1):
            lo, hi = brackets[k]
            fs.append(0.5 * (lo + hi))
            brackets += [(lo, fs[k]), (fs[k], hi)]
        samples = eig_lr_batch(matrices_at(fs), fs)
        k = 0
        for _ in range(levels):
            smp = samples[k]
            j = _pick_matching_eig(smp, u_ref)
            lam = smp.lam[j]
            if abs(lam.imag) <= 1e-6 * max(1.0, abs(lam.real)):
                return smp, j
            lam_best = lam
            steps += 1
            if (lam.imag > 0) == (im_lo > 0):
                f_lo = fs[k]
                u_ref = smp.u[j]
                k = 2 * k + 2
            else:
                f_hi = fs[k]
                k = 2 * k + 1
    raise BisectionError(
        f"crossover refinement at [{f_lo}, {f_hi}] Hz did not reach |Im| tolerance "
        f"in {max_steps} steps (last lambda={lam_best})")


def find_crossovers(trace: EigenTrace,
                    matrices_at: Callable[[Sequence[float]], np.ndarray] | None = None,
                    margin: float = 0.0) -> list[CrossoverEvent]:
    """Zero crossings of Im[lambda] along one trace.

    With matrices_at(fs) -> (len(fs), m, m) given, each detected sign
    change is refined by batched two-level bisection (refine_crossover)
    on freshly assembled and decomposed matrices to
    |Im| <= 1e-6 * max(1, |Re|); without it the crossing is located by
    linear interpolation between the bracketing samples (test aid for
    synthetic traces).
    """
    events: list[CrossoverEvent] = []
    im = trace.lam.imag
    re = trace.lam.real
    f = trace.f_hz
    for t in range(len(trace) - 1):
        if im[t] == 0.0:
            direction = "falling" if im[t + 1] < 0 else "rising"
            events.append(_make_event(trace.trace_id, float(f[t]), float(re[t]),
                                      direction, margin))
            continue
        if im[t] * im[t + 1] < 0:
            direction = "falling" if im[t] > 0 else "rising"
            if matrices_at is not None:
                smp, j = refine_crossover(matrices_at, float(f[t]), float(f[t + 1]),
                                          float(im[t]), trace.u[t])
                events.append(_make_event(trace.trace_id, smp.f_hz,
                                          float(smp.lam[j].real), direction, margin))
            else:
                a = im[t] / (im[t] - im[t + 1])
                f_cr = float(f[t] + a * (f[t + 1] - f[t]))
                re_cr = float(re[t] + a * (re[t + 1] - re[t]))
                events.append(_make_event(trace.trace_id, f_cr, re_cr,
                                          direction, margin))
    if len(trace) and im[-1] == 0.0:
        events.append(_make_event(trace.trace_id, float(f[-1]), float(re[-1]),
                                  "rising" if im[-2] < 0 else "falling", margin))
    return events


def _make_event(trace_id: int, f_cr: float, re_cr: float, direction: str,
                margin: float) -> CrossoverEvent:
    verdict = "critical" if re_cr < margin else "stable-crossing"
    return CrossoverEvent(trace_id, f_cr, re_cr, direction, verdict)


@dataclass(frozen=True)
class StabilityReport:
    """Crossover events per trace and the overall verdict."""

    events: tuple[CrossoverEvent, ...]
    critical_trace_ids: tuple[int, ...]
    stable: bool

    @property
    def critical_events(self) -> tuple[CrossoverEvent, ...]:
        return tuple(e for e in self.events if e.verdict == "critical")


def assess(traces: Sequence[EigenTrace],
           matrices_at: Callable[[Sequence[float]], np.ndarray] | None = None,
           margin: float = 0.0) -> StabilityReport:
    """Stability verdict: stable iff every crossover has Re[lambda] > 0;
    with matrices_at(fs) -> (len(fs), m, m) given, crossovers are refined
    by batched two-level bisection (see find_crossovers)."""
    events: list[CrossoverEvent] = []
    for tr in traces:
        events.extend(find_crossovers(tr, matrices_at, margin))
    events.sort(key=lambda e: (e.f_cr_hz, e.trace_id))
    stable = all(e.re_lambda > 0.0 for e in events)
    crit = tuple(sorted({e.trace_id for e in events if e.verdict == "critical"}))
    return StabilityReport(tuple(events), crit, stable)


def nyquist_winding(trace: EigenTrace, origin_tol: float = 1e-9) -> int | None:
    """Discrete winding number of the conjugate-closed trace around 0.

    The positive-frequency locus is closed with its complex conjugate
    traversed backwards (exact only for real-coefficient systems, which
    is why this is a cross-check oracle rather than a shipped criterion).
    Returns None (indeterminate) when the polygon passes within
    origin_tol of the origin.
    """
    fwd = trace.lam
    closed = np.concatenate([fwd, np.conj(fwd[::-1])])
    nxt = np.roll(closed, -1)

    # distance from origin to each closing segment
    d = nxt - closed
    seg_len2 = np.abs(d) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(seg_len2 > 0,
                     -np.real(np.conj(d) * closed) / np.where(seg_len2 > 0, seg_len2, 1.0),
                     0.0)
    t = np.clip(t, 0.0, 1.0)
    dist = np.abs(closed + t * d)
    if np.min(dist) < origin_tol:
        return None

    ang = np.angle(nxt / closed)
    return int(round(float(np.sum(ang)) / (2.0 * np.pi)))


def analyze(g: NetworkGraph, grid: FrequencyGrid):
    """Sweep, track and assess in one call.

    Returns (samples, traces, report).  The sweep and the crossover
    refinement decompose through eig_lr_batch and its checks; crossovers
    are refined by batched two-level bisection against matrices
    re-assembled with matrices_at(fs) = assemble_grid(g, fs), and tracking
    steps with overlap below DEFAULT_OVERLAP_THRESHOLD are flagged.
    """
    samples = sweep(g, grid)
    traces = track(samples)
    report = assess(traces, lambda fs: assemble_grid(g, fs))
    return samples, traces, report
