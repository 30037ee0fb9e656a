"""Eigenvalue sensitivity, damper placement ranking and quantitative
damping-compensation planning.

The first-order shift of eigenvalue k under a shunt admittance added at
node i is  d_lambda = Y * (u_{k,2i-1} w_{2i-1,k} + u_{k,2i} w_{2i,k}),
the bracket being the node's compensation coefficient K_C.
compensation_coefficient is the one place it is computed:
compensation_table reads it from the decomposition each critical
crossover event carries, and the planner at every located crossover.  Damper locations
rank per crossing by Re[K_C] over its lift epsilon - Re[lambda].  Planning
starts from the caller's baseline analysis (traces and stability report)
and steps all its critical crossovers in lockstep (plan): each step adds
d_alpha of conductance at the node, re-locates every unfinished crossover
at once (_locate_all; the sensitivity drifts with alpha) and adds d_alpha
K_C to the first-order shift of each one still short of the margin
epsilon.  Calibration then picks the smallest damper gain k_v
whose admittance covers the planned conductance over the planned band
while staying quasi-resistive: the lower end of the one interval of gains
that meet both bounds, found in closed form.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

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
    _crossing_brackets,
    _pick_matching_eig,
    analyze,
    eig_lr_batch,
    refine_crossovers,
)


class DegenerateEigenvalueWarning(UserWarning):
    """Eigenvalues nearly repeated; first-order sensitivity unreliable."""


class PlanInfeasibleError(RuntimeError):
    """Iteration cap hit, or a critical crossover lost, before the damping
    requirement was met."""


class CalibrationInfeasibleError(RuntimeError):
    """No damper gain satisfies the conductance and quasi-resistivity bounds."""


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


def compensation_coefficient(sample: EigenSample, k: int, node_index: int,
                             trace_id: int = 0) -> CompensationCoefficient:
    """K_C = u_k,2i-1 w_2i-1,k + u_k,2i w_2i,k of eigenvalue k at node i:
    d_lambda_k / d_alpha for a conductance alpha added at both diagonal
    entries (d and q) of the node, evaluated at the sample's frequency (a
    crossover frequency in the planning workflow), with Re[lambda_k]
    there.  Summed over all nodes of one eigenvalue it equals
    u_k . w_k = 1."""
    _warn_if_degenerate(sample)
    p = 2 * node_index
    value = complex(sample.u[k, p] * sample.w[p, k] + sample.u[k, p + 1] * sample.w[p + 1, k])
    return CompensationCoefficient(trace_id, node_index, sample.f_hz, value,
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
        ranks.append(LocationRank(node, score))
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
    """Per-eigenvalue conductance requirements, the band-level target, and
    omega0 [rad/s], the planned network's fundamental the damper is sized at."""

    epsilon_s: float
    dalpha_s: float
    node_index: int
    entries: tuple[PlanEntry, ...]
    band_lo_hz: float
    band_hi_hz: float
    required_re_yad_s: float
    omega0: float = 2 * math.pi * 50.0  # plan sets g.omega0; 50 Hz is for hand-built plans


# lockstep steps after which a crossover still short of epsilon is infeasible
_MAX_STEPS = 10000


def _with_conductance(g: NetworkGraph, node_index: int, fs: Sequence[float],
                      alpha: float) -> np.ndarray:
    """Nodal matrices (len(fs), 2n, 2n) of g with conductance alpha on the
    node's d and q diagonal."""
    m = assemble_grid(g, fs)
    p = 2 * node_index
    m[:, p, p] += alpha
    m[:, p + 1, p + 1] += alpha
    return m


class _CriticalFollower:
    """Re-locates one critical eigenvalue as conductance is added at a node.

    Keeps the crossover frequency f_cr, its drift df from the locate
    before (0 after a locate that took a widened window: a jump is no
    drift), and the left eigenvector u_ref of the last confirmed point as
    the identity reference.  Followers are located together by
    _locate_all, try by try: try 0 is a 2-point bracket predicted by the
    secant, centred on f_cr + df with half-width max(|df| / 4, 0.05 Hz);
    tries 1, 2, ... are the recovery, 9-point windows of half-width 50,
    100, ... Hz around f_cr.  Every window is clipped to the baseline
    sweep's range, and the first window that covers the whole range is
    the last.  A scan's brackets follow the engine's rule
    (_crossing_brackets), and the one nearest f_cr is refined by regula
    falsi from the scan's Im values at its ends.
    """

    PREDICTED_FRACTION = 0.25  # predicted half-width per Hz of drift
    PREDICTED_FLOOR_HZ = 0.05  # smallest predicted half-width
    WINDOW_HZ = 50.0  # half-width of the first scan window around f_cr
    SCAN_POINTS = 9

    def __init__(self, f_cr: float, u_ref: np.ndarray):
        self.f_cr = f_cr
        self.df = 0.0
        self.u_ref = u_ref

    def window(self, attempt: int, f_bounds: tuple[float, float]) -> list[float]:
        """The scan points of try `attempt`, clipped to f_bounds: the
        predicted bracket for 0, else the window of half-width
        WINDOW_HZ * 2**(attempt - 1)."""
        if attempt == 0:
            centre = self.f_cr + self.df
            half_width = max(abs(self.df) * self.PREDICTED_FRACTION, self.PREDICTED_FLOOR_HZ)
            n = 2
        else:
            centre = self.f_cr
            half_width = self.WINDOW_HZ * 2.0 ** (attempt - 1)
            n = self.SCAN_POINTS
        lo, hi = np.clip((centre - half_width, centre + half_width), *f_bounds)
        return [float(f) for f in np.linspace(lo, hi, n)]

    def bracket(self, fs: list[float], w: np.ndarray, lam: np.ndarray):
        """(f_lo, f_hi, im_lo, im_hi, u_ref) of the crossing bracket nearest
        f_cr in a scan with right eigenvectors w and eigenvalues lam at fs,
        or None when the followed eigenvalue has no crossing there."""
        # Im of the followed eigenvalue (best overlap with u_ref) at each point
        ims = lam[np.arange(len(fs)), _pick_matching_eig(self.u_ref, w)].imag
        pairs = _crossing_brackets(ims)
        if not len(pairs):
            return None
        # the bracket whose midpoint is nearest the previous crossover
        lo, hi = pairs[np.argmin(np.abs(np.asarray(fs)[pairs].mean(axis=1) - self.f_cr))]
        return fs[lo], fs[hi], ims[lo], ims[hi], self.u_ref

    def move_to(self, smp: EigenSample, j: int, attempt: int) -> None:
        """Confirm eigenvalue j of smp, found at try `attempt`, as the
        crossover.  df becomes the move, unless it took a widened window
        (try 2 on): a move that far is a jump, not a drift, and df resets
        to 0."""
        self.df = smp.f_hz - self.f_cr if attempt <= 1 else 0.0
        self.f_cr, self.u_ref = smp.f_hz, smp.u[j]


def _locate_all(followers: Sequence[_CriticalFollower], alpha: float, matrices_at,
                f_bounds: tuple[float, float]) -> list[tuple[EigenSample, int]]:
    """Crossover sample of every follower's eigenvalue at conductance alpha
    and the eigenvalue's index in it; each follower moves to its sample.

    matrices_at(fs, alpha) gives the nodal matrices at fs with alpha
    installed (_with_conductance for the planned node), and every window
    stays inside f_bounds.  Each try scans the window of every follower
    still unlocated (at try 0 its predicted 2-point bracket), all windows
    assembled and decomposed as one batch, then refines all their brackets
    in one refine_crossovers run.  A follower whose window holds no
    crossing, or whose bracket fails to converge, goes on to its next
    window; once such a window covered all of f_bounds,
    PlanInfeasibleError names the crossover it lost.
    """
    def at_alpha(fs: Sequence[float]) -> np.ndarray:
        return matrices_at(fs, alpha)

    found: list = [None] * len(followers)
    pending = list(range(len(followers)))
    for attempt in itertools.count():
        scans = [followers[i].window(attempt, f_bounds) for i in pending]
        n = len(scans[0])  # every window of one try has the same points
        fs = [f for scan in scans for f in scan]
        spec = eig_lr_batch(at_alpha(fs), fs)
        brackets = {}
        for k, (i, scan) in enumerate(zip(pending, scans)):
            b = followers[i].bracket(scan, spec.w[k * n:(k + 1) * n], spec.lam[k * n:(k + 1) * n])
            if b is not None:
                brackets[i] = b
        for i, res in zip(brackets, refine_crossovers(at_alpha, list(brackets.values()))):
            if not isinstance(res, BisectionError):
                found[i] = res
                followers[i].move_to(*res, attempt)
        for i, scan in zip(pending, scans):  # a lost follower whose window covered the range
            if found[i] is None and attempt and (scan[0], scan[-1]) == tuple(f_bounds):
                raise PlanInfeasibleError(
                    f"lost the critical crossover near {followers[i].f_cr} Hz at alpha={alpha} S")
        pending = [i for i in pending if found[i] is None]
        if not pending:
            return found


def plan(g: NetworkGraph, node_id: int, traces: Sequence[EigenTrace],
         report: StabilityReport, epsilon: float, dalpha: float = 1e-3) -> CompensationPlan:
    """Conductance required at one node to lift every critical eigenvalue
    above the margin epsilon.

    traces and report are the baseline analysis of g (as returned by
    analyze); its critical crossovers are the ones planned for, each
    follower seeded with the left eigenvector of the decomposition its
    event carries, and the crossover search stays inside the traces'
    frequency range.
    One loop steps every critical crossover in lockstep: step k installs
    alpha_k (k additions of dalpha) at the node and locates every
    unfinished crossover with one _locate_all, so one batch of predicted
    2-point brackets and one batched regula falsi serve them all (window
    scans only for the brackets that miss).  A crossover still short of
    epsilon adds dalpha times its K_C at the located crossover to its
    first-order shift; one whose Re[lambda] plus shift has reached epsilon
    finishes with alpha_s = alpha_k, k iterations and f_cr_final_hz from
    the same locate.  A crossover still short after _MAX_STEPS steps
    raises PlanInfeasibleError.  The band-level requirement is the
    largest per-eigenvalue conductance over the band spanned by the
    crossover frequencies, padded outward to the nearest 100 Hz.
    """
    for name, value in (("epsilon", epsilon), ("dalpha", dalpha)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    node_index = g.node_index(node_id)
    f_bounds = (float(traces[0].f_hz[0]), float(traces[0].f_hz[-1]))
    criticals = report.critical_events
    followers = [_CriticalFollower(ev.f_cr_hz, ev.sample.u[ev.eig_index]) for ev in criticals]
    shift = [0j] * len(criticals)  # accumulated first-order d_lambda
    finished: list = [None] * len(criticals)  # (alpha_s, iterations, f_cr_final)
    open_ = list(range(len(criticals)))
    matrices_at = partial(_with_conductance, g, node_index)
    alpha, k = 0.0, 0
    while open_:
        short = [i for i in open_ if criticals[i].re_lambda + shift[i].real < epsilon]
        if short and k == _MAX_STEPS:
            ev = criticals[short[0]]
            raise PlanInfeasibleError(
                f"iteration cap {_MAX_STEPS} reached for trace {ev.trace_id} "
                f"(crossover starting at {ev.f_cr_hz:.6g} Hz); shortfall "
                f"{epsilon - ev.re_lambda - shift[short[0]].real:.6g} S remains "
                f"at alpha={alpha:.6g} S")
        located = _locate_all([followers[i] for i in open_], alpha, matrices_at, f_bounds)
        for i, (smp, j) in zip(open_, located):
            if i in short:
                shift[i] += dalpha * compensation_coefficient(smp, j, node_index).value
            else:
                finished[i] = (alpha, k, smp.f_hz)
        open_ = short
        alpha += dalpha
        k += 1

    entries = tuple(PlanEntry(
        trace_id=ev.trace_id,
        node_index=node_index,
        f_cr_start_hz=ev.f_cr_hz,
        f_cr_final_hz=f_cr_final,
        re_lambda_start=ev.re_lambda,
        alpha_s=alpha_s,
        iterations=iterations,
        predicted_re=ev.re_lambda + d_lam.real,
    ) for ev, d_lam, (alpha_s, iterations, f_cr_final) in zip(criticals, shift, finished))

    if entries:
        f_all = [e.f_cr_start_hz for e in entries] + [e.f_cr_final_hz for e in entries]
        band_lo = max(1.0, math.floor(min(f_all) / 100.0) * 100.0)
        band_hi = math.ceil(max(f_all) / 100.0) * 100.0
        required = max(e.alpha_s for e in entries)
    else:
        band_lo = band_hi = required = 0.0

    return CompensationPlan(epsilon, dalpha, node_index, entries,
                            band_lo, band_hi, required, g.omega0)


# ---------------------------------------------------------------------------
# damper calibration and verification
# ---------------------------------------------------------------------------

MAX_IM_RE_RATIO = 0.1
# the damper gain is rounded up to a multiple of this
_K_V_RESOLUTION = 1e-3
# spacing of the plan-band grid the damper is checked on, whatever the sweep's
_BAND_DF_HZ = 1.0


def _gain_interval(c: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """[lo, hi] of the gains k >= 0 with c k <= d in every row; lo > hi
    when there are none."""
    lo = float(np.max(d[c < 0] / c[c < 0], initial=0.0))
    hi = float(np.min(d[c > 0] / c[c > 0], initial=np.inf))
    return (lo, hi) if np.all(d[c == 0] >= 0) else (lo, -np.inf)


def calibrate_ad(cplan: CompensationPlan, base: ADParams) -> ADParams:
    """Smallest damper gain k_v on a _K_V_RESOLUTION (1e-3) grid whose
    admittance, at the plan's fundamental cplan.omega0, meets the plan.

    Feasible means: over the plan band at 1 Hz spacing, Re[Y] >= the
    band requirement and |Im/Re| <= 0.1 (quasi-resistive).  k_v enters
    ad_scalar only in the numerator, so Y = a + k_v b with a = Y(k_v=0)
    and b = Y(k_v=1) - a, and each frequency's three bounds (Re[Y] >=
    requirement, +-Im[Y] <= 0.1 Re[Y]) are linear in k_v.  With k_v >= 0
    they leave one interval [k_lo, k_hi], found in closed form with no
    cap on k_v; the returned gain is k_lo rounded up to the grid and
    checked once through ad_scalar.  Raises CalibrationInfeasibleError:
    "unattainable" when no gain meets the conductance bound alone,
    "conflict" when no grid gain meets both bounds.
    """
    if not cplan.entries or cplan.required_re_yad_s <= 0.0:
        return replace(base, k_v=0.0)
    f = FrequencyGrid.regular(cplan.band_lo_hz, cplan.band_hi_hz, _BAND_DF_HZ).hz
    req = cplan.required_re_yad_s
    band = f"[{cplan.band_lo_hz}, {cplan.band_hi_hz}] Hz"
    a = ad_scalar(replace(base, k_v=0.0), f, cplan.omega0)
    b = ad_scalar(replace(base, k_v=1.0), f, cplan.omega0) - a
    # the bounds as rows c k <= d: Re[Y] >= req, Im[Y] <= r Re[Y], -Im[Y] <= r Re[Y]
    r = MAX_IM_RE_RATIO
    c = np.concatenate([-b.real, b.imag - r * b.real, -b.imag - r * b.real])
    d = np.concatenate([a.real - req, r * a.real - a.imag, r * a.real + a.imag])
    lo_re, hi_re = _gain_interval(c[:len(f)], d[:len(f)])
    if lo_re > hi_re:
        raise CalibrationInfeasibleError(
            f"conductance requirement {req:.4g} S unattainable over {band}: "
            f"no gain k_v >= 0 gives Re[Y] >= {req:.4g} S at every frequency")
    lo, hi = _gain_interval(c, d)
    k_v = math.ceil(lo / _K_V_RESOLUTION) * _K_V_RESOLUTION
    y = ad_scalar(replace(base, k_v=k_v), f, cplan.omega0)
    if not (k_v <= hi and np.min(y.real) >= req
            and np.max(np.abs(y.imag / y.real)) <= MAX_IM_RE_RATIO):
        raise CalibrationInfeasibleError(
            f"conductance requirement {req:.4g} S and quasi-resistive bound "
            f"|Im/Re| <= {MAX_IM_RE_RATIO} conflict over {band}")
    return replace(base, k_v=k_v)


def verify_with_ad(g: NetworkGraph, node_id: int, p: ADParams,
                   grid: FrequencyGrid) -> StabilityReport:
    """Install the damper at a node and re-run the full stability pipeline over grid."""
    g2 = g.with_shunt_device(node_id, p, label="active-damper")
    _, _, report = analyze(g2, grid)
    return report
