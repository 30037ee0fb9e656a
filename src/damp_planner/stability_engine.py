"""Frequency sweep, eigen-decomposition, trace tracking and the stability
criterion.

The system is declared stable iff at every frequency where an eigenvalue
trace of the nodal admittance matrix crosses the real axis (Im = 0), the
real part is positive.  Crossings with Re <= 0 are the critical
(undamped or negatively damped) oscillatory modes.  assess finds them: every sign
change and every sample on the axis, of every trace, is one bracket
(_crossing_brackets, the rule locate_crossings' scans share) of a
single refine_crossovers run, and each event carries the decomposition
that run located it with.  locate_crossings re-locates known crossings
at another point of a path (matrices_at bound there by the caller: a
conductance for the planner, or an operating point), each from a seed,
with the same bracket rule and the same refine_crossovers.  A discrete
Nyquist winding count over the conjugate-closed eigenvalue loci is
provided as a cross-check oracle for tests; it is not part of the
shipped verdict.
"""

from __future__ import annotations

import functools
import os
import warnings
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
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
# matrix entries (m * m per frequency) of one chunk of a sweep, and overlap
# scores (m * m per step) of one batched tracking product: bounds the memory
# of both
_TRACK_OVERLAPS = 1 << 14
# pool threads at most: a sweep holds workers + 1 chunks in flight
_MAX_WORKERS = 8
# locate_crossings: try 0's bracket half-width per Hz of predicted drift
# and its floor [Hz]; try 1's window half-width [Hz] and points
_PREDICTED_FRACTION = 0.1
_PREDICTED_FLOOR_HZ = 0.05
LOCATE_WINDOW_HZ = 50.0
_WINDOW_POINTS = 9


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


@functools.cache
def _pool(pid: int):
    """(executor, workers): one sweep thread per CPU that process pid may
    run on, at most _MAX_WORKERS, created on the first sweep (a forked
    child makes its own).  Imported here, so importing the package loads
    no concurrent.futures."""
    from concurrent.futures import ThreadPoolExecutor

    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    workers = min(workers, _MAX_WORKERS)
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="sweep"), workers


def _decompose(mats: np.ndarray, f_hz: Sequence[float]) -> tuple[Spectrum, list[str]]:
    """eig_lr_batch but for its warnings: the Spectrum of the stack mats
    and the message of every DefectiveMatrixWarning it owes, which the
    calling thread warns (a sweep's pool thread runs this on its chunk).
    The matrices are let go once eig has returned, so inv builds u beside
    w alone when the caller holds no reference to them."""
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
    del mats
    u = np.linalg.inv(w)
    # ||U||_F^2 from views of U's parts: no (nf, m, m) temporary
    sq = np.einsum("kij,kij->k", u.real, u.real) + np.einsum("kij,kij->k", u.imag, u.imag)
    cond = np.sqrt(w.shape[-1] * sq)
    defective = [f"near-defective matrix at f={f_hz[k]} Hz (cond_F(W)={cond[k]:.2e})"
                 for k in np.flatnonzero(cond > 1e10)]
    return Spectrum(np.asarray(f_hz, dtype=float), lam, w, u), defective


def _warn_defective(messages: list[str]) -> None:
    """Warn each message of _decompose, naming the frame that called the
    caller of this function."""
    for msg in messages:
        warnings.warn(msg, DefectiveMatrixWarning, stacklevel=3)


def eig_lr_batch(mats: np.ndarray, f_hz: Sequence[float]) -> Spectrum:
    """eig_lr over a stack of matrices (len(f_hz), m, m), returned as one
    Spectrum, on the calling thread: np.linalg.eig, then np.linalg.inv of
    the right vectors.  Every member is decomposed on its own, so a stack
    gives the bits of its members decomposed apart; a sweep runs this
    decomposition and these checks on each of its chunks (_stream).

    Raises ValueError or EigNonConvergenceError naming the first frequency
    with a non-finite entry or whose iteration fails; warns
    DefectiveMatrixWarning, with the member's frequency, for every member
    whose Frobenius condition number cond_F(W) = ||W||_F ||U||_F =
    sqrt(m) ||U||_F (unit-norm eigenvector columns, U = inv(W)) exceeds
    1e10: a near-defective matrix, whose left vectors via inversion lose
    accuracy.  cond_2 <= cond_F <= m cond_2, so every member with
    cond_2(W) > 1e10 warns, and one may warn up to a factor m earlier.
    """
    spec, defective = _decompose(mats, f_hz)
    _warn_defective(defective)
    return spec


def eig_lr(m: np.ndarray, f_hz: float = float("nan")) -> EigenSample:
    """Eigenvalues with biorthogonal left/right eigenvectors of one matrix;
    the single-matrix case of eig_lr_batch, with the same checks."""
    return eig_lr_batch(np.asarray(m)[None], [f_hz])[0]


def _stream(g: NetworkGraph, grid: FrequencyGrid, take: Callable[[Spectrum], None]) -> None:
    """take(chunk) for the Spectrum of each chunk of the grid, in grid
    order: the one sweep path, which sweep copies into one Spectrum and
    analyze tracks as it goes.

    A chunk holds _TRACK_OVERLAPS matrix entries, max(1, _TRACK_OVERLAPS
    // m**2) frequencies, and at most ceil(nf / workers), so every pool
    thread gets one.  Each chunk is one pool task: assemble_grid on its
    frequencies, then _decompose, whose matrices are let go before inv.
    The calling thread takes the chunks in grid order, warns each one's
    DefectiveMatrixWarnings and raises the error of the first failing
    one.  At most workers + 1 chunks are in flight: the one awaited and
    workers chunks after it, so the pool stays busy while take runs.  Before
    this returns or raises, the chunks not started are cancelled and the
    running ones waited for, so no task outlives the call.  Every member
    is decomposed on its own: the bits depend on neither the chunking nor
    the thread count.

    The grid's two ends are assembled first, on the calling thread, so an
    assembly error that depends on the grid's extent (a sampled control's
    band, a lossless element's fundamental, a table's range) is raised
    before any chunk, and, from one assembly of the whole grid, with the
    whole grid's message.
    """
    from concurrent.futures import wait

    hz = grid.hz
    try:
        assemble_grid(g, hz[[0, -1]])
    except ValueError:
        assemble_grid(g, hz)  # raises what one assembly of the grid would
        raise
    pool, workers = _pool(os.getpid())
    nf, m = len(hz), 2 * g.n
    size = min(max(1, _TRACK_OVERLAPS // (m * m)), -(-nf // workers))

    def chunk(k):
        fs = hz[k:k + size]
        return _decompose(assemble_grid(g, fs), fs)

    starts = iter(range(0, nf, size))
    ahead = deque(pool.submit(chunk, k) for k in islice(starts, workers + 1))
    try:
        while ahead:
            spec, defective = ahead.popleft().result()
            _warn_defective(defective)
            take(spec)
            del spec
            ahead.extend(pool.submit(chunk, k) for k in islice(starts, 1))
    finally:
        for fut in ahead:
            fut.cancel()
        wait(ahead)


def sweep(g: NetworkGraph, grid: FrequencyGrid) -> Spectrum:
    """The Spectrum of the grid, in grid order: the chunks of _stream,
    assembled and decomposed on a thread per available CPU with all the
    checks of eig_lr_batch, copied into one stack each of lam, w and u."""
    nf, m = len(grid), 2 * g.n
    spec = Spectrum(np.asarray(grid.hz, dtype=float), np.empty((nf, m), dtype=complex),
                    np.empty((nf, m, m), dtype=complex), np.empty((nf, m, m), dtype=complex))
    taken = 0

    def put(chunk):
        nonlocal taken
        rows = slice(taken, taken + len(chunk))
        spec.lam[rows], spec.w[rows], spec.u[rows] = chunk.lam, chunk.w, chunk.u
        taken = rows.stop

    _stream(g, grid, put)
    return spec


@dataclass
class EigenTrace:
    """One eigenvalue followed across the sweep with a consistent identity.

    Trace ids are 1-based, assigned by descending |lambda| at the first
    sweep frequency.  eig_index[t] is the trace's eigenvalue index in the
    decomposition of sample t, so its eigenvectors there are
    spec.u[t, eig_index[t]] and spec.w[t, :, eig_index[t]] of the sweep's
    Spectrum spec (sweep(g, grid) decomposes every sample as analyze
    does); the trace holds no copy of them.  overlaps[t] is the tracking
    score of step t -> t + 1, and discontinuities lists the steps whose
    score fell below the threshold (never silently bridged, only flagged).
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


def _chain(q: np.ndarray, start_row: np.ndarray) -> np.ndarray:
    """Index rows after a run of clean steps: q[j] maps the eigenvalue
    indices of step j's sample to the next one's, start_row is the row
    before the run.  Composes the prefixes in place by pointer doubling
    (q[j] becomes q[j] o q[j - 1] o ... o q[0] in log2(len(q)) gathers;
    Hillis & Steele, CACM 29(12), 1986) and returns (len(q), m) rows."""
    d = 1
    while d < len(q):
        q[d:] = np.take_along_axis(q[d:], q[:-d], axis=1)
        d *= 2
    return q[:, start_row]


class _Tracker:
    """The traces of a sweep of the frequencies f_hz and m eigenvalues,
    tracked one chunk of consecutive samples at a time, in order (see
    track).  A chunk's first step starts from the previous chunk's last
    sample, whose eigenvalues, left vectors and index row are carried.
    Keeps the index map, the overlaps and the eigenvalues in trace order
    and, when rows is a dict (analyze's), the left eigenvectors assess
    reads: rows[t, j] = u[t, j] at every sample t that starts a
    _crossing_brackets bracket of a trace, j the trace's eigenvalue index
    there.  track, whose Spectrum holds every u, keeps none."""

    def __init__(self, f_hz: np.ndarray, m: int, rows: dict | None = None):
        nf = len(f_hz)
        self.f_hz = f_hz
        self.idx = np.empty((nf, m), dtype=int)  # [sample, trace] -> eigenvalue index
        self.lam = np.empty((nf, m), dtype=complex)  # [sample, trace] -> eigenvalue
        self.overlaps = np.ones((max(nf - 1, 0), m))
        self.rows = rows
        self.taken = 0  # samples tracked so far
        self.last = None  # (eigenvalues, left vectors) of the last of them

    def add(self, lam: np.ndarray, w: np.ndarray, u: np.ndarray) -> None:
        """Track the next chunk, its eigenvalues lam (k, m) and right and
        left vectors w, u (k, m, m)."""
        a = self.taken
        b = a + len(lam)
        if a == 0:
            self.idx[0] = np.argsort(-np.abs(lam[0]), kind="stable")
        else:
            lam_last, u_last = self.last
            self._steps(a - 1, u_last[None], w[:1], np.stack([lam_last, lam[0]]))
        self._steps(a, u[:-1], w[1:], lam)
        self.lam[a:b] = np.take_along_axis(lam, self.idx[a:b], axis=1)
        if self.rows is not None:
            # samples lo .. b - 1: every bracket ending in this chunk starts there
            lo = max(a - 1, 0)
            starts = np.nonzero(_crossing_starts(self.lam[lo:b].imag))
            for s, k in zip(*(x.tolist() for x in starts)):
                t, j = lo + s, int(self.idx[lo + s, k])
                self.rows[t, j] = (u[t - a] if t >= a else self.last[1])[j].copy()
        self.last = (lam[-1].copy(), u[-1].copy())
        self.taken = b

    def _steps(self, start: int, u: np.ndarray, w: np.ndarray, lam: np.ndarray) -> None:
        """Track the steps t -> t + 1 for t in [start, start + len(u)), u
        holding the left vectors of the samples t, w the right vectors of
        the samples t + 1 and lam the eigenvalues of samples start to
        start + len(u)."""
        n = len(u)
        if n == 0:
            return
        idx = self.idx
        score = np.abs(u @ w)
        best, fast = _fast_match(score)
        k = 0  # step of the next run
        for s in [*np.flatnonzero(~fast).tolist(), n]:
            if s > k:  # clean steps k .. s - 1
                idx[start + k + 1:start + s + 1] = _chain(best[k:s], idx[start + k])
            if s < n:
                t = start + s
                idx[t + 1] = _greedy_match(score[s, idx[t]], lam[s, idx[t]], lam[s + 1])
            k = s + 1
        self.overlaps[start:start + n] = score[np.arange(n)[:, None], idx[start:start + n],
                                               idx[start + 1:start + n + 1]]

    def traces(self) -> list[EigenTrace]:
        """One EigenTrace per column of the index map, once every sample
        is tracked."""
        nf, m = self.idx.shape
        if nf < 2:
            raise ValueError("tracking needs at least 2 samples")
        # per trace k and step t: eigenvalue index, eigenvalue and overlap
        pick, lam, ov = self.idx.T, self.lam.T, self.overlaps.T
        return [EigenTrace(k + 1, self.f_hz, lam[k], pick[k], ov[k],
                           tuple(np.flatnonzero(ov[k] < DEFAULT_OVERLAP_THRESHOLD).tolist()))
                for k in range(m)]


def track(spec: Spectrum) -> list[EigenTrace]:
    """Connect the spectra of a sweep into continuous eigenvalue traces.

    Consecutive frequencies are matched greedily on the left/right
    eigenvector overlap |u_k(f) . w_j(f+df)| (1 for a perfectly continued
    pair under the biorthogonal normalization), so traces keep their
    identity through eigenvalue near-collisions where plain
    value-proximity matching would swap them.

    The spectrum is tracked in chunks of max(1, _TRACK_OVERLAPS // m**2)
    samples, as analyze tracks a sweep's chunks (_Tracker): the overlap
    scores of a chunk's steps, the step from the previous chunk's last
    sample included, are batched products of slices of spec.u and spec.w,
    at most _TRACK_OVERLAPS scores.  A step is clean where its row argmax
    is a permutation with a strict maximum in every row, which is the
    greedy result; the other steps split the chunk into runs of clean
    steps.  Each run is chained from the index row before it by pointer
    doubling (_chain), with no Python iteration per step, and each other
    step goes through _greedy_match.  The chunk's overlaps are one gather
    from its scores.

    Each trace is one column of the resulting index map (its eig_index)
    with its eigenvalues and overlaps; the eigenvectors stay in spec.
    """
    nf, m = spec.lam.shape
    tracker = _Tracker(spec.f_hz, m)
    size = max(1, _TRACK_OVERLAPS // (m * m))
    for a in range(0, nf, size):
        tracker.add(spec.lam[a:a + size], spec.w[a:a + size], spec.u[a:a + size])
    return tracker.traces()


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


def _crossing_starts(im: np.ndarray) -> np.ndarray:
    """Mask of the samples of im (along axis 0) where a zero crossing
    starts: a sample exactly on the axis, or one whose sign differs from
    the next sample's."""
    starts = im == 0
    starts[:-1] |= im[:-1] * im[1:] < 0
    return starts


def _crossing_brackets(im: np.ndarray) -> np.ndarray:
    """(lo, hi) sample pairs, shape (k, 2) and ascending, of every zero
    crossing of the samples im: (t, t + 1) for a sign change between
    samples t and t + 1, (t, t) for a sample exactly on the axis, the last
    sample included."""
    lo = np.flatnonzero(_crossing_starts(im))
    return np.stack([lo, lo + (im[lo] != 0)], axis=1)


def _locate_scan(seed: tuple[float, float, np.ndarray], attempt: int,
                 f_bounds: tuple[float, float]) -> list[float]:
    """The scan points of locate_crossings' try `attempt` for a seed
    (f_cr, df, u_ref), clipped to f_bounds: for 0 the 2-point bracket of
    half-width max(|df| _PREDICTED_FRACTION, _PREDICTED_FLOOR_HZ) around
    f_cr + df, for 1 the _WINDOW_POINTS-point window of half-width
    LOCATE_WINDOW_HZ around f_cr."""
    f_cr, df, _ = seed
    if attempt == 0:
        centre, n = f_cr + df, 2
        half_width = max(abs(df) * _PREDICTED_FRACTION, _PREDICTED_FLOOR_HZ)
    else:
        centre, half_width, n = f_cr, LOCATE_WINDOW_HZ, _WINDOW_POINTS
    lo, hi = np.clip((centre - half_width, centre + half_width), *f_bounds)
    return [float(f) for f in np.linspace(lo, hi, n)]


def locate_crossings(matrices_at: Callable[[Sequence[float]], np.ndarray],
                     seeds: Sequence[tuple[float, float, np.ndarray]],
                     f_bounds: tuple[float, float]) -> list[tuple[EigenSample, int] | None]:
    """The crossing of each seed's eigenvalue in the matrices
    matrices_at(fs) -> (len(fs), m, m): per seed the decomposition at
    its crossover and the eigenvalue's index in it, or None when it is
    lost.

    A seed (f_cr, df, u_ref) is a crossing at f_cr, its predicted drift
    df and its eigenvalue's left eigenvector u_ref; the caller binds
    matrices_at to the point of its path (a conductance, an operating
    point) where the crossings are sought.  Each seed takes at most two
    tries (_locate_scan), both inside f_bounds: try 0 is a 2-point
    bracket centred on f_cr + df with half-width max(|df| / 10, 0.05 Hz),
    the predictor's error being a small part of the drift (a narrow
    bracket also starts regula falsi near the root, so a flat crossing
    ends nearer it); try 1 is a 9-point window of half-width
    LOCATE_WINDOW_HZ around f_cr.  Each try scans the points of every
    seed still unlocated in one eig_lr_batch, picks the seed's
    eigenvalue at each point by overlap with u_ref (_pick_matching_eig),
    takes the bracket of _crossing_brackets whose midpoint is nearest
    f_cr and refines all these brackets in one refine_crossovers run.  A
    seed whose scan holds no crossing, or whose bracket fails to
    converge, goes on to try 1; one try 1 misses too is lost, never
    searched for further, so it is never carried on to another crossing.
    """
    found: list = [None] * len(seeds)
    for attempt in (0, 1):
        pending = [i for i, res in enumerate(found) if res is None]
        if not pending:
            break
        scans = [_locate_scan(seeds[i], attempt, f_bounds) for i in pending]
        n = len(scans[0])  # every scan of one try has the same points
        fs = [f for scan in scans for f in scan]
        spec = eig_lr_batch(matrices_at(fs), fs)
        brackets = {}
        for k, (i, scan) in enumerate(zip(pending, scans)):
            f_cr, _, u_ref = seeds[i]
            rows = slice(k * n, (k + 1) * n)
            ims = spec.lam[rows][np.arange(n), _pick_matching_eig(u_ref, spec.w[rows])].imag
            pairs = _crossing_brackets(ims)
            if len(pairs):
                lo, hi = pairs[np.argmin(np.abs(np.asarray(scan)[pairs].mean(axis=1) - f_cr))]
                brackets[i] = (scan[lo], scan[hi], ims[lo], ims[hi], u_ref)
        for i, res in zip(brackets, refine_crossovers(matrices_at, list(brackets.values()))):
            if not isinstance(res, BisectionError):
                found[i] = res
    return found


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


def assess(u, traces: Sequence[EigenTrace],
           matrices_at: Callable[[Sequence[float]], np.ndarray]) -> StabilityReport:
    """Stability verdict: stable iff no crossover is critical, i.e. has
    Re[lambda] <= 0 (iff every crossover has Re[lambda] > 0).

    traces are tracked on a sweep, and u[t, j] is the left eigenvector of
    eigenvalue j at its sample t: the u stack of the sweep's Spectrum, or
    the rows analyze keeps, which hold it at the samples assess reads
    only.  Every zero crossing of Im[lambda] along
    every trace is an event, sorted by frequency, then trace id, bracketed
    by a (lo, hi) pair of _crossing_brackets: a sign change from sample t
    is (f_t, f_t+1, Im_t, Im_t+1, u_t), a sample on the axis the zero-width
    (f_t, f_t, 0, 0, u_t), u_t being u[t, eig_index[t]].
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
                             u[lo, tr.eig_index[lo]]))
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
    """Sweep, track and assess in one call, holding no sweep's Spectrum.

    The grid goes through the sweep's chunk stream (_stream): each chunk
    is assembled and decomposed on a pool thread, then tracked on the
    calling thread as it arrives, in grid order, from the last sample of
    the one before (_Tracker); the chunk is let go once tracked.  What is
    kept is each trace's eigenvalues, eig_index and overlaps, and the left
    eigenvector rows that assess reads, rows[t, j] at the samples t where
    a crossing bracket starts.  Returns (rows, traces, report).  The
    crossovers of all traces are then refined together by batched
    Illinois regula falsi (refine_crossovers) against matrices
    re-assembled with matrices_at(fs) = assemble_grid(g, fs), one assembly
    and eig_lr_batch per round for every open bracket.  Tracking steps
    with overlap below DEFAULT_OVERLAP_THRESHOLD are flagged.  The traces,
    events and errors are those of track(sweep(g, grid)) and assess on
    that Spectrum, bit for bit.
    """
    rows: dict[tuple[int, int], np.ndarray] = {}
    tracker = _Tracker(grid.hz, 2 * g.n, rows)
    _stream(g, grid, lambda chunk: tracker.add(chunk.lam, chunk.w, chunk.u))
    traces = tracker.traces()
    report = assess(rows, traces, lambda fs: assemble_grid(g, fs))
    return rows, traces, report
