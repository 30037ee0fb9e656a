"""Eigenvalue sensitivity, damper placement ranking and quantitative
damping-compensation planning.

The first-order shift of eigenvalue k under a shunt admittance added at
node i is  d_lambda = Y * (u_{k,2i-1} w_{2i-1,k} + u_{k,2i} w_{2i,k}),
the bracket being the node's compensation coefficient K_C, read from the
decomposition each critical crossover event carries.  Damper locations
rank per crossing by Re[K_C] over its lift epsilon - Re[lambda].  Planning
starts from the caller's baseline analysis (traces and stability report),
seeds each crossover's follower from its event and accumulates
pure-conductance increments d_alpha, re-locating the crossover at the
updated conductance each step (the sensitivity drifts with alpha).  The
critical crossovers are planned in lockstep: at step k they all sit at
the same conductance alpha_k = k d_alpha, so each step brackets every
unfinished crossover with 2 points predicted from its last drift (a
secant predictor), decomposes all the brackets as one batch, and refines
them with one refine_crossovers run (batched Illinois regula falsi, one
point per open bracket per round).  A crossover the prediction misses is
found by 9-point window scans around it, widening until one holds its
sign change.  A crossover stops once its real part is lifted above the
margin epsilon.  Calibration then picks the smallest damper gain k_v
whose admittance covers the planned conductance over the planned band
while staying quasi-resistive.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Generator, Sequence

import numpy as np

from .component_models import ADParams, ad_scalar
from .dq_core import FrequencyGrid
from .network_assembly import NetworkGraph, assemble_grid
from .stability_engine import (
    BisectionError,
    CrossoverEvent,
    EigenSample,
    EigenTrace,
    StabilityReport,
    _sign_change_steps,
    analyze,
    eig_lr_batch,
    refine_crossovers,
)


class DegenerateEigenvalueWarning(UserWarning):
    """Eigenvalues nearly repeated; first-order sensitivity unreliable."""


class PlanInfeasibleError(RuntimeError):
    """Iteration cap hit before the damping requirement was met."""


class CalibrationInfeasibleError(RuntimeError):
    """No damper gain satisfies the conductance and quasi-resistivity bounds."""


@dataclass(frozen=True)
class SensitivityEntry:
    """d_lambda/d_alpha for a conductance perturbation at one node."""

    eigen_index: int
    f_hz: float
    node_index: int
    dlam_dalpha: complex

    @property
    def s_re(self) -> float:
        return self.dlam_dalpha.real

    @property
    def s_im(self) -> float:
        return self.dlam_dalpha.imag

    @property
    def dlam_dsusceptance(self) -> complex:
        # a susceptance perturbation is j times a conductance one
        return 1j * self.dlam_dalpha


@dataclass(frozen=True)
class CompensationCoefficient:
    """First-order gain from a shunt admittance at a node to one eigenvalue,
    with the eigenvalue's real part where it was evaluated."""

    trace_id: int
    node_index: int
    f_cr_hz: float
    value: complex
    re_lambda: float


def _warn_if_degenerate(sample: EigenSample) -> None:
    lam = np.sort_complex(sample.lam)
    scale = float(np.max(np.abs(sample.lam))) or 1.0
    gaps = np.abs(np.diff(lam))
    if len(gaps) and float(np.min(gaps)) < 1e-8 * scale:
        warnings.warn(
            f"eigenvalue gap below 1e-8 of scale at f={sample.f_hz} Hz; "
            "sensitivities are unreliable", DegenerateEigenvalueWarning, stacklevel=3)


def entry_sensitivity(sample: EigenSample, k: int, j: int) -> complex:
    """d_lambda_k / d_alpha for a perturbation of the single entry (j, j)."""
    _warn_if_degenerate(sample)
    return complex(sample.u[k, j] * sample.w[j, k])


def sensitivity(sample: EigenSample, k: int, node_index: int) -> SensitivityEntry:
    """Sensitivity of eigenvalue k to a conductance added at both diagonal
    entries (d and q) of one node."""
    _warn_if_degenerate(sample)
    p = 2 * node_index
    val = complex(sample.u[k, p] * sample.w[p, k] + sample.u[k, p + 1] * sample.w[p + 1, k])
    return SensitivityEntry(k, sample.f_hz, node_index, val)


def compensation_coefficient(sample: EigenSample, k: int, node_index: int,
                             trace_id: int = 0) -> CompensationCoefficient:
    """K_C of eigenvalue k at a node, evaluated at the sample's frequency
    (a crossover frequency in the planning workflow), with Re[lambda_k]
    there.  Summed over all nodes of one eigenvalue it equals
    u_k . w_k = 1."""
    ent = sensitivity(sample, k, node_index)
    return CompensationCoefficient(trace_id, node_index, sample.f_hz, ent.dlam_dalpha,
                                   float(sample.lam[k].real))


def compensation_table(g: NetworkGraph,
                       events: Sequence[CrossoverEvent]) -> list[CompensationCoefficient]:
    """K_C of every node for every critical crossover event, read from the
    decomposition the event carries (ev.sample, ev.eig_index): no
    assembly and no decomposition."""
    return [compensation_coefficient(ev.sample, ev.eig_index, pos, trace_id=ev.trace_id)
            for ev in events if ev.verdict == "critical" for pos in range(g.n)]


@dataclass(frozen=True)
class LocationRank:
    """One candidate node with its worst-case damping efficiency.

    score is the minimum over critical crossings of Re[K_C] divided by
    that crossing's required real-part lift epsilon - Re[lambda].
    """

    node_index: int
    score: float
    re_kc_per_trace: tuple[tuple[int, float], ...]


def rank_locations(coeffs: Sequence[CompensationCoefficient],
                   epsilon: float) -> list[LocationRank]:
    """Rank candidate nodes by worst-case damping efficiency, descending;
    ties break on node index.

    Each Re[K_C] is divided by its own crossing's required lift
    max(epsilon - Re[lambda], 1e-12), so a trace with two critical
    crossings weighs each by its own demand.  Crossings needing more
    compensation weigh more heavily, which is what separates otherwise
    near-tied locations: a node is only as good as its efficiency on the
    hungriest critical mode.
    """
    per_node: dict[int, list[CompensationCoefficient]] = {}
    for c in coeffs:
        per_node.setdefault(c.node_index, []).append(c)
    ranks = []
    for node, items in per_node.items():
        score = min(c.value.real / max(epsilon - c.re_lambda, 1e-12) for c in items)
        ranks.append(LocationRank(
            node, score,
            tuple(sorted((c.trace_id, c.value.real) for c in items))))
    ranks.sort(key=lambda r: (-r.score, r.node_index))
    return ranks


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanEntry:
    """Required conductance for one critical eigenvalue."""

    trace_id: int
    node_index: int
    f_cr_start_hz: float
    f_cr_final_hz: float
    re_lambda_start: float
    alpha_s: float
    iterations: int
    predicted_re: float  # Re[lambda] + accumulated Re[d_lambda]


@dataclass(frozen=True)
class CompensationPlan:
    """Per-eigenvalue conductance requirements and the band-level target."""

    epsilon_s: float
    dalpha_s: float
    node_index: int
    entries: tuple[PlanEntry, ...]
    band_lo_hz: float
    band_hi_hz: float
    required_re_yad_s: float


def _accumulation(re_start: float, epsilon: float, dalpha: float,
                  max_iter: int = 10000) -> Generator[float, complex, tuple[float, int, complex]]:
    """The conductance accumulation loop as a generator: it yields each
    alpha it needs the compensation coefficient at, is sent that
    coefficient, and returns (alpha, iterations, shift)."""
    alpha = 0.0
    shift = 0j
    it = 0
    while re_start + shift.real < epsilon:
        if it >= max_iter:
            raise PlanInfeasibleError(
                f"iteration cap {max_iter} reached; shortfall "
                f"{epsilon - re_start - shift.real:.6g} S remains at alpha={alpha:.6g} S")
        shift += dalpha * (yield alpha)
        alpha += dalpha
        it += 1
    return alpha, it, shift


def accumulate_alpha(re_start: float, epsilon: float, dalpha: float,
                     kc_at, max_iter: int = 10000) -> tuple[float, int, complex]:
    """Core conductance accumulation loop.

    kc_at(alpha) returns the (complex) compensation coefficient with the
    conductance alpha already installed; the loop adds dalpha and
    accumulates the predicted eigenvalue shift until
    re_start + Re[shift] >= epsilon.  Returns (alpha, iterations, shift).
    plan drives the same loop (_accumulation) for every critical
    crossover in lockstep.
    """
    run = _accumulation(re_start, epsilon, dalpha, max_iter)
    kc = None
    try:
        while True:
            kc = kc_at(run.send(kc))
    except StopIteration as done:
        return done.value


class _CriticalFollower:
    """Re-locates one critical eigenvalue as conductance is added at a node.

    Keeps the crossover frequency f_cr, its drift df from the locate
    before (0 after a locate that took a widened window: a jump is no
    drift), and the left eigenvector u_ref of the last confirmed point as
    the identity reference.  Followers are located together by
    _locate_all in up to TRIES tries: try 0 is a 2-point bracket
    predicted by the secant, centred on f_cr + df with half-width
    max(|df| / 4, 0.05 Hz); tries 1-8 are the recovery, 9-point windows of
    half-width 50, 100, ... Hz around f_cr.  Every window is clipped to
    [f_lo, f_hi], and the bracket nearest f_cr is refined by regula falsi
    from the scan's Im values at its ends.
    """

    PREDICTED_FRACTION = 0.25  # predicted half-width per Hz of drift
    PREDICTED_FLOOR_HZ = 0.05  # smallest predicted half-width
    WINDOW_HZ = 50.0  # half-width of the first scan window around f_cr
    SCAN_POINTS = 9
    TRIES = 9  # the predicted bracket, then 8 window doublings

    def __init__(self, g: NetworkGraph, node_index: int, f_cr: float,
                 u_ref: np.ndarray, f_lo: float, f_hi: float):
        self.g = g
        self.node_index = node_index
        self.f_cr = f_cr
        self.df = 0.0
        self.u_ref = u_ref
        self.f_bounds = (f_lo, f_hi)

    def _matrices_at(self, fs: Sequence[float], alpha: float) -> np.ndarray:
        """Nodal matrices (len(fs), 2n, 2n) with conductance alpha on the
        node's d and q diagonal."""
        m = assemble_grid(self.g, fs)
        p = 2 * self.node_index
        m[:, p, p] += alpha
        m[:, p + 1, p + 1] += alpha
        return m

    def window(self, attempt: int) -> list[float]:
        """The scan points of try `attempt`: the predicted bracket for 0,
        else the window of half-width WINDOW_HZ * 2**(attempt - 1)."""
        if attempt == 0:
            centre = self.f_cr + self.df
            half_width = max(abs(self.df) * self.PREDICTED_FRACTION, self.PREDICTED_FLOOR_HZ)
            n = 2
        else:
            centre = self.f_cr
            half_width = self.WINDOW_HZ * 2.0 ** (attempt - 1)
            n = self.SCAN_POINTS
        lo, hi = np.clip((centre - half_width, centre + half_width), *self.f_bounds)
        return [float(f) for f in np.linspace(lo, hi, n)]

    def bracket(self, fs: list[float], w: np.ndarray, lam: np.ndarray):
        """(f_lo, f_hi, im_lo, im_hi, u_ref) of the sign change nearest f_cr
        in a scan with right eigenvectors w and eigenvalues lam at fs, or
        None when the followed eigenvalue keeps its sign."""
        # Im of the followed eigenvalue (best overlap with u_ref) at each point
        picked = np.argmax(np.abs(self.u_ref @ w), axis=-1)
        ims = lam[np.arange(len(fs)), picked].imag
        steps = _sign_change_steps(ims)
        if not steps.size:
            return None
        # bracket whose midpoint is nearest the previous crossover
        i = min(steps, key=lambda i: abs(0.5 * (fs[i] + fs[i + 1]) - self.f_cr))
        return fs[i], fs[i + 1], ims[i], ims[i + 1], self.u_ref

    def move_to(self, smp: EigenSample, j: int, attempt: int) -> None:
        """Confirm eigenvalue j of smp, found at try `attempt`, as the
        crossover.  df becomes the move, unless it took a widened window
        (try 2 on): a move that far is a jump, not a drift, and df resets
        to 0."""
        self.df = smp.f_hz - self.f_cr if attempt <= 1 else 0.0
        self.f_cr, self.u_ref = smp.f_hz, smp.u[j]


def _locate_all(followers: Sequence[_CriticalFollower],
                alpha: float) -> list[tuple[EigenSample, int]]:
    """Crossover sample of every follower's eigenvalue at conductance alpha
    and the eigenvalue's index in it; each follower moves to its sample.

    Each try scans the window of every follower still unlocated (at try
    0 its predicted 2-point bracket), all windows assembled and
    decomposed as one batch, then refines all their brackets in one
    refine_crossovers run.  A follower whose window holds no sign change,
    or whose bracket fails to converge, goes on to its next window; after
    the last try PlanInfeasibleError names the crossover it lost.
    """
    def matrices_at(fs: Sequence[float]) -> np.ndarray:
        return followers[0]._matrices_at(fs, alpha)

    found: list = [None] * len(followers)
    pending = list(range(len(followers)))
    for attempt in range(_CriticalFollower.TRIES):
        scans = [followers[i].window(attempt) for i in pending]
        n = len(scans[0])  # every window of one try has the same points
        fs = [f for scan in scans for f in scan]
        spec = eig_lr_batch(matrices_at(fs), fs)
        brackets = {}
        for k, (i, scan) in enumerate(zip(pending, scans)):
            b = followers[i].bracket(scan, spec.w[k * n:(k + 1) * n], spec.lam[k * n:(k + 1) * n])
            if b is not None:
                brackets[i] = b
        if brackets:
            refined = refine_crossovers(matrices_at, *zip(*brackets.values()))
            for i, res in zip(brackets, refined):
                if not isinstance(res, BisectionError):
                    found[i] = res
                    followers[i].move_to(*res, attempt)
        pending = [i for i in pending if found[i] is None]
        if not pending:
            return found
    raise PlanInfeasibleError(
        f"lost the critical crossover near {followers[pending[0]].f_cr} Hz at alpha={alpha} S")


def plan(g: NetworkGraph, node_id: int, traces: Sequence[EigenTrace],
         report: StabilityReport, epsilon: float, dalpha: float = 1e-3) -> CompensationPlan:
    """Conductance required at one node to lift every critical eigenvalue
    above the margin epsilon.

    traces and report are the baseline analysis of g (as returned by
    analyze); its critical crossovers are the ones planned for, each
    follower seeded with the left eigenvector of the decomposition its
    event carries, and the crossover search stays inside the traces'
    frequency range.
    Per critical crossover, conductance is added in dalpha steps; after
    each step the critical eigenvalue and its (drifting) crossover
    frequency are re-identified with the step's conductance installed,
    and the first-order shift is accumulated.  The crossovers run in
    lockstep: step k locates every unfinished one at the same alpha_k
    (k additions of dalpha) with one _locate_all, so one batch of
    predicted 2-point brackets and one batched regula falsi serve them
    all (window scans only for the brackets that miss).  A crossover that
    has just met epsilon takes f_cr_final_hz from the locate at its own
    alpha_s, in the same batch.  The band-level requirement is the
    largest per-eigenvalue conductance over the band spanned by the
    crossover frequencies, padded outward to the nearest 100 Hz.
    """
    for name, value in (("epsilon", epsilon), ("dalpha", dalpha)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    node_index = g.node_index(node_id)
    f_lo, f_hi = float(traces[0].f_hz[0]), float(traces[0].f_hz[-1])
    criticals = [e for e in report.events if e.verdict == "critical"]
    followers = [_CriticalFollower(g, node_index, ev.f_cr_hz, ev.sample.u[ev.eig_index],
                                   f_lo, f_hi) for ev in criticals]
    runs = [_accumulation(ev.re_lambda, epsilon, dalpha) for ev in criticals]
    kcs: list = [None] * len(runs)     # coefficient each run is sent next
    done: list = [None] * len(runs)    # (alpha, iterations, shift) once finished
    f_final: list = [None] * len(runs)
    open_ = list(range(len(runs)))
    while open_:
        # after k steps every run, unfinished or just finished, is at alpha_k
        for i in open_:
            try:
                alpha = runs[i].send(kcs[i])
            except StopIteration as stop:
                done[i] = stop.value
                alpha = done[i][0]
        located = _locate_all([followers[i] for i in open_], alpha)
        for i, (smp, j) in zip(open_, located):
            if done[i] is None:
                kcs[i] = sensitivity(smp, j, node_index).dlam_dalpha
            else:
                f_final[i] = smp.f_hz
        open_ = [i for i in open_ if done[i] is None]

    entries = tuple(PlanEntry(
        trace_id=ev.trace_id,
        node_index=node_index,
        f_cr_start_hz=ev.f_cr_hz,
        f_cr_final_hz=f_cr_final,
        re_lambda_start=ev.re_lambda,
        alpha_s=alpha,
        iterations=iters,
        predicted_re=ev.re_lambda + shift.real,
    ) for ev, (alpha, iters, shift), f_cr_final in zip(criticals, done, f_final))

    if entries:
        f_all = [e.f_cr_start_hz for e in entries] + [e.f_cr_final_hz for e in entries]
        band_lo = max(1.0, math.floor(min(f_all) / 100.0) * 100.0)
        band_hi = math.ceil(max(f_all) / 100.0) * 100.0
        required = max(e.alpha_s for e in entries)
    else:
        band_lo = band_hi = 0.0
        required = 0.0

    return CompensationPlan(epsilon, dalpha, node_index, entries,
                            band_lo, band_hi, required)


# ---------------------------------------------------------------------------
# damper calibration and verification
# ---------------------------------------------------------------------------

MAX_IM_RE_RATIO = 0.1
# damper gain search: coarse-scan limit and bisection resolution
_K_V_MAX = 50.0
_K_V_RESOLUTION = 1e-3
# spacing of the plan-band grid the damper is checked on, whatever the sweep's
_BAND_DF_HZ = 1.0


def _band_metrics(p: ADParams, f_hz: np.ndarray, omega0: float) -> tuple[float, float]:
    y = ad_scalar(p, f_hz, omega0)
    min_re = float(np.min(y.real))
    if min_re <= 0.0:
        return min_re, float("inf")
    return min_re, float(np.max(np.abs(y.imag / y.real)))


def calibrate_ad(cplan: CompensationPlan, base: ADParams,
                 omega0: float = 2 * math.pi * 50.0) -> ADParams:
    """Smallest damper gain k_v whose admittance meets the plan.

    Feasible means: over the plan band at 1 Hz spacing, Re[Y] >= the
    band requirement and |Im/Re| <= 0.1 (quasi-resistive).  The smallest
    feasible k_v is found by coarse scan plus bisection to
    _K_V_RESOLUTION; the returned gain is the verified-feasible bisection
    endpoint.  Raises CalibrationInfeasibleError naming the binding
    constraint when no gain qualifies.
    """
    if not cplan.entries or cplan.required_re_yad_s <= 0.0:
        return replace(base, k_v=0.0)
    f = np.arange(cplan.band_lo_hz, cplan.band_hi_hz + _BAND_DF_HZ / 2.0, _BAND_DF_HZ)
    req = cplan.required_re_yad_s

    def feasible(k_v: float) -> bool:
        min_re, ratio = _band_metrics(replace(base, k_v=k_v), f, omega0)
        return min_re >= req and ratio <= MAX_IM_RE_RATIO

    coarse = np.arange(0.0, _K_V_MAX + 1e-9, 0.25)
    feas_idx = next((i for i, k in enumerate(coarse) if feasible(float(k))), None)
    if feas_idx is None:
        metrics = [_band_metrics(replace(base, k_v=float(k)), f, omega0) for k in coarse]
        best_re = max(m[0] for m in metrics)
        if best_re < req:
            raise CalibrationInfeasibleError(
                f"conductance requirement {req:.4g} S unattainable over "
                f"[{cplan.band_lo_hz}, {cplan.band_hi_hz}] Hz "
                f"(best min Re[Y]={best_re:.4g} S)")
        raise CalibrationInfeasibleError(
            f"conductance requirement {req:.4g} S and quasi-resistive bound "
            f"|Im/Re| <= {MAX_IM_RE_RATIO} conflict over "
            f"[{cplan.band_lo_hz}, {cplan.band_hi_hz}] Hz")

    if feas_idx == 0:
        return replace(base, k_v=0.0)
    hi = float(coarse[feas_idx])
    lo = float(coarse[feas_idx - 1])
    while hi - lo > _K_V_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return replace(base, k_v=hi)


def verify_with_ad(g: NetworkGraph, node_id: int, p: ADParams,
                   grid: FrequencyGrid) -> StabilityReport:
    """Install the damper at a node and re-run the full stability pipeline over grid."""
    g2 = g.with_shunt_device(node_id, p, label="active-damper")
    _, _, report = analyze(g2, grid)
    return report
