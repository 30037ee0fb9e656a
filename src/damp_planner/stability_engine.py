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

    # per trace k and step t: eigenvalue, left and right eigenvector
    steps, pick = np.arange(nf), idx.T
    lam_tr, u_tr, w_tr = spec.lam[steps, pick], spec.u[steps, pick], spec.w[steps, :, pick]
    ov = overlaps.T
    return [EigenTrace(k + 1, spec.f_hz, lam_tr[k], u_tr[k], w_tr[k], ov[k],
                       tuple(np.flatnonzero(ov[k] < DEFAULT_OVERLAP_THRESHOLD).tolist()))
            for k in range(m)]


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


def refine_crossover(matrices_at: Callable[[Sequence[float]], np.ndarray],
                     f_lo: float, f_hi: float, im_lo: float, im_hi: float,
                     u_ref: np.ndarray,
                     max_steps: int = 60) -> tuple[EigenSample, int]:
    """Locate Im[lambda] = 0 inside [f_lo, f_hi] by Illinois regula falsi
    (Dowell & Jarratt, BIT 11, 1971).

    im_lo, im_hi are Im[lambda] at the bracket ends (opposite signs) and
    u_ref the eigenvalue's left eigenvector at f_lo.  Each step decomposes
    one point, eig_lr_batch(matrices_at([f]), [f]), at the bracket's secant
    root (its midpoint when the root is not strictly inside), re-identifies
    the eigenvalue by overlap with u_ref and keeps the half whose ends
    differ in sign, moving u_ref with f_lo.  An end kept twice in a row
    has the other end's Im halved, which stops plain regula falsi's
    one-sided stall.  Returns the decomposition at the crossover
    (|Im| <= 1e-6 * max(1, |Re|)) and the eigenvalue's index in it;
    raises BisectionError when max_steps steps do not get there.
    """
    lam = None
    kept = 0  # end kept by the last step: -1 low, +1 high
    for _ in range(max_steps):
        f = f_lo + im_lo * (f_hi - f_lo) / (im_lo - im_hi) if im_lo != im_hi else f_lo
        if not f_lo < f < f_hi:
            f = 0.5 * (f_lo + f_hi)
        smp = eig_lr_batch(matrices_at([f]), [f])[0]
        j = _pick_matching_eig(smp, u_ref)
        lam = smp.lam[j]
        if abs(lam.imag) <= 1e-6 * max(1.0, abs(lam.real)):
            return smp, j
        if (lam.imag > 0) == (im_lo > 0):
            f_lo, im_lo, u_ref = f, float(lam.imag), smp.u[j]
            if kept == +1:
                im_hi *= 0.5
            kept = +1
        else:
            f_hi, im_hi = f, float(lam.imag)
            if kept == -1:
                im_lo *= 0.5
            kept = -1
    raise BisectionError(
        f"crossover refinement at [{f_lo}, {f_hi}] Hz did not reach |Im| tolerance "
        f"in {max_steps} steps (last lambda={lam})")


def _sign_change_steps(im: np.ndarray) -> np.ndarray:
    """Ascending steps t with im[t] == 0 or a sign change from t to t + 1."""
    return np.flatnonzero((im[:-1] == 0) | (im[:-1] * im[1:] < 0))


def find_crossovers(trace: EigenTrace,
                    matrices_at: Callable[[Sequence[float]], np.ndarray],
                    margin: float = 0.0) -> list[CrossoverEvent]:
    """Zero crossings of Im[lambda] along one trace, in frequency order.

    Each sign change that _sign_change_steps finds between adjacent
    samples is refined by refine_crossover (Illinois regula falsi on the
    bracketing samples' Im values) on matrices_at(fs) -> (len(fs), m, m),
    to |Im| <= 1e-6 * max(1, |Re|); a sample at Im = 0 is taken as is.
    """
    events: list[CrossoverEvent] = []
    im = trace.lam.imag
    re = trace.lam.real
    f = trace.f_hz
    for t in _sign_change_steps(im):
        direction = "falling" if im[t + 1] < 0 else "rising"
        if im[t] == 0.0:
            f_cr, re_cr = float(f[t]), float(re[t])
        else:
            smp, j = refine_crossover(matrices_at, float(f[t]), float(f[t + 1]),
                                      float(im[t]), float(im[t + 1]), trace.u[t])
            f_cr, re_cr = smp.f_hz, float(smp.lam[j].real)
        events.append(_make_event(trace.trace_id, f_cr, re_cr, direction, margin))
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
           matrices_at: Callable[[Sequence[float]], np.ndarray],
           margin: float = 0.0) -> StabilityReport:
    """Stability verdict: stable iff every crossover has Re[lambda] > 0;
    crossovers are refined on matrices_at(fs) -> (len(fs), m, m) by
    Illinois regula falsi (see find_crossovers)."""
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

    Returns (spectrum, traces, report), the traces tracked on the sweep's
    one Spectrum.  The sweep and the crossover refinement decompose
    through eig_lr_batch and its checks; crossovers are refined by
    Illinois regula falsi against matrices re-assembled with
    matrices_at(fs) = assemble_grid(g, fs), one point per step, and
    tracking steps with overlap below DEFAULT_OVERLAP_THRESHOLD are
    flagged.
    """
    spec = sweep(g, grid)
    traces = track(spec)
    report = assess(traces, lambda fs: assemble_grid(g, fs))
    return spec, traces, report
