"""Eigenvalue sensitivity, damper placement ranking and quantitative
damping-compensation planning.

The first-order shift of eigenvalue k under a shunt admittance added at
node i is  d_lambda = Y * (u_{k,2i-1} w_{2i-1,k} + u_{k,2i} w_{2i,k}),
the bracket being the node's compensation coefficient K_C.
compensation_coefficient is the one place it is computed:
compensation_table reads it from the decomposition each critical
crossover event carries, and the planner at every located crossover, the
baseline events themselves at alpha = 0, so rank and plan read one K_C
there.  Damper locations rank per crossing by Re[K_C] over its lift
epsilon - Re[lambda].  Planning starts from the caller's baseline
analysis (traces and stability report) and accumulates d_alpha K_C per
step of d_alpha conductance at the node, for every critical crossover in
lockstep (plan), until each one's
first-order shift lifts it to the margin epsilon.  The sensitivity drifts
with alpha but smoothly, so the crossovers are re-located (the engine's
locate_crossings, on the matrices with the node's conductance installed)
only at nodes a few steps apart, chosen by error control, and K_C at the
steps between comes from an interpolant of the located values; each
finishing step is located.  Calibration then picks the smallest damper gain k_v
whose admittance covers the planned conductance over the planned band
while staying quasi-resistive: the lower end of the one interval of gains
that meet both bounds, found in closed form.
"""

from __future__ import annotations

import bisect
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
    LOCATE_WINDOW_HZ,
    CrossoverEvent,
    EigenSample,
    EigenTrace,
    StabilityReport,
    analyze,
    locate_crossings,
)


class DegenerateEigenvalueWarning(UserWarning):
    """Eigenvalues nearly repeated; first-order sensitivity unreliable."""


class PlanInfeasibleError(RuntimeError):
    """A plan stopped short of the damping requirement: a critical
    crossover still short at the iteration cap, or lost."""


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


# dalpha steps after which a crossover still short of epsilon is infeasible
_MAX_STEPS = 10000
# largest disagreement [S] of the two interpolants on an interval's partial sum
_STEP_TOL = 5e-9
# most dalpha steps between two located nodes
_MAX_STRIDE = 16


def _with_conductance(g: NetworkGraph, node_index: int, fs: Sequence[float],
                      alpha: float) -> np.ndarray:
    """Nodal matrices (len(fs), 2n, 2n) of g with conductance alpha on the
    node's d and q diagonal."""
    m = assemble_grid(g, fs)
    p = 2 * node_index
    m[:, p, p] += alpha
    m[:, p + 1, p + 1] += alpha
    return m


def _lagrange(xs: Sequence[float], x: Sequence[float]) -> np.ndarray:
    """Lagrange basis of the nodes xs at the points x, (len(x), len(xs)):
    row t dotted with values at xs is their interpolant at x[t]."""
    xs = np.asarray(xs, dtype=float)
    own = np.eye(len(xs), dtype=bool)  # factor l == m left out of basis m
    num = np.where(own, 1.0, np.asarray(x, dtype=float)[:, None, None] - xs).prod(axis=-1)
    return num / np.where(own, 1.0, xs[:, None] - xs).prod(axis=-1)


class _NodePath:
    """One planned critical crossover: its event, node index, located
    nodes (step -> f_cr, u_ref, K_C; node 0 is the event's decomposition),
    per step j the K_C the accumulation sums (located at a node,
    interpolated between nodes), that value's error estimate (0 at a
    node) and shift[j + 1] = shift[j] + dalpha K_C[j], the float sum in
    step order, and its PlanEntry once it has finished."""

    INTERP_NODES = 5  # nodes of the higher-degree interpolant
    PREDICT_NODES = 3  # nodes of the quadratic drift predictor

    def __init__(self, event: CrossoverEvent, node_index: int):
        self.event = event
        self.node_index = node_index
        self.steps: list[int] = []  # node steps, ascending
        self.nodes: dict[int, tuple[float, np.ndarray, complex]] = {}
        self.kc: list[complex] = []
        self.err: list[float] = []
        self.shift: list[complex] = [0j]
        self.checked = 0  # shift[:checked] is known short of epsilon
        self.entry: PlanEntry | None = None
        self.add(0, event.sample, event.eig_index)

    def add(self, k: int, smp: EigenSample, j: int) -> None:
        bisect.insort(self.steps, k)
        self.nodes[k] = (smp.f_hz, smp.u[j],
                         compensation_coefficient(smp, j, self.node_index).value)

    def nearest(self, x: float, n: int) -> list[int]:
        """The n node steps nearest x, nearest first (ties to the lower)."""
        p = bisect.bisect_left(self.steps, x)
        near = self.steps[max(0, p - n):p + n]
        return sorted(near, key=lambda k: (abs(k - x), k))[:n]

    def below(self, k: int) -> int:
        """The nearest node step below step k > 0 (node 0 is every path's)."""
        return self.steps[bisect.bisect_left(self.steps, k) - 1]

    def next_after(self, k: int) -> int:
        """The nearest node step above k, _MAX_STEPS when there is none."""
        p = bisect.bisect_right(self.steps, k)
        return self.steps[p] if p < len(self.steps) else _MAX_STEPS

    def seed(self, k: int) -> tuple[float, float, np.ndarray]:
        """locate_crossings' seed (f_cr, df, u_ref) for step k: the
        crossing at the nearest node below k, with the drift a quadratic
        through the PREDICT_NODES nodes nearest k predicts."""
        f_cr, u_ref, _ = self.nodes[self.below(k)]
        near = self.nearest(k, self.PREDICT_NODES)
        predicted = float(_lagrange(near, [k])[0] @ [self.nodes[j][0] for j in near])
        return f_cr, predicted - f_cr, u_ref

    def interpolate(self, a: int, b: int, dalpha: float):
        """(K_C, per-step error, interval error) at the steps strictly
        between nodes a and b: K_C from the interpolant through the
        INTERP_NODES nodes nearest the interval, the errors dalpha
        |Re (p_hi - p_lo)| per step and |dalpha Re sum(p_hi - p_lo)| over
        the interval, p_lo the interpolant through one node fewer."""
        inner = np.arange(a + 1, b)
        near = self.nearest((a + b) / 2, self.INTERP_NODES)
        values = np.array([self.nodes[j][2] for j in near])
        hi = _lagrange(near, inner) @ values
        diff = dalpha * (hi - _lagrange(near[:-1], inner) @ values[:-1]).real
        return hi, np.abs(diff), abs(float(diff.sum()))

    def extend(self, a: int, values, errors, dalpha: float) -> None:
        """Append node a's K_C and the interpolated steps after it."""
        for value, error in [(self.nodes[a][2], 0.0), *zip(values.tolist(), errors.tolist())]:
            self.kc.append(value)
            self.err.append(error)
            self.shift.append(self.shift[-1] + dalpha * value)

    def settle(self, j: int, dalpha: float) -> None:
        """Replace step j's interpolated K_C by its located node's."""
        self.kc[j], self.err[j] = self.nodes[j][2], 0.0
        for t in range(j, len(self.kc)):
            self.shift[t + 1] = self.shift[t] + dalpha * self.kc[t]
        self.checked = min(self.checked, j + 1)

    def first_reach(self, epsilon: float) -> int | None:
        """The first step whose Re[lambda] plus shift reaches epsilon."""
        for k in range(self.checked, len(self.shift)):
            if not self.event.re_lambda + self.shift[k].real < epsilon:
                return k
        self.checked = len(self.shift)
        return None


def plan(g: NetworkGraph, node_id: int, traces: Sequence[EigenTrace],
         report: StabilityReport, epsilon: float, dalpha: float = 1e-3) -> CompensationPlan:
    """Conductance required at one node to lift every critical eigenvalue
    above the margin epsilon.

    traces and report are the baseline analysis of g (as returned by
    analyze); its critical crossovers are the ones planned for, each one
    _NodePath record whose node 0 (alpha = 0) is the decomposition its
    event carries, never re-located, and the crossover search stays
    inside the traces' frequency range.

    The result is the paper's accumulation: alpha_k is k additions of
    dalpha, the shift after k steps is dalpha sum_{j<k} K_C(alpha_j) at
    the followed crossover, and a crossover finishes at the first k whose
    Re[lambda] plus shift reaches epsilon, with alpha_s = alpha_k, k
    iterations, f_cr_final_hz located at alpha_k and predicted_re that
    sum.  The crossovers are located only at nodes: one loop steps them
    in lockstep from node kc to kn = kc + H (never past a node already
    located, nor past _MAX_STEPS), all unfinished ones located at alpha_kn
    with one locate_crossings, each seeded from its nearest node below
    with a quadratic drift predictor (_NodePath.seed).  K_C at the
    steps between nodes comes from the interpolant through the 5 nodes
    nearest; the interval is accepted when the degree-3 interpolant
    agrees with it on the interval's partial sum within _STEP_TOL, and H
    doubles (up to _MAX_STRIDE) after an interval well inside it.  A
    disagreement, or a crossover lost at kn, halves H, and kn stays a
    node; a crossover lost one step from its node stops the plan.  Where
    the summed error estimates are not clearly below the gap between
    epsilon and the sum at the deciding step or the step before, the
    interpolated step with the largest estimate is located, until the
    decision is clear.  Each finishing step is located exactly, one
    locate_crossings for the crossovers finishing there, where the
    record's PlanEntry is built; entries come in event order.

    A PlanInfeasibleError names the trace and its starting frequency: a
    crossover still short after _MAX_STEPS steps, or one lost (neither
    try found it).  The band-level requirement is the largest
    per-eigenvalue conductance over the band spanned by the crossover
    frequencies, padded outward to the nearest 100 Hz.
    """
    for name, value in (("epsilon", epsilon), ("dalpha", dalpha)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    node_index = g.node_index(node_id)
    f_bounds = (float(traces[0].f_hz[0]), float(traces[0].f_hz[-1]))
    paths = [_NodePath(ev, node_index) for ev in report.critical_events]
    alphas = [0.0]

    def alpha_at(k: int) -> float:
        while len(alphas) <= k:
            alphas.append(alphas[-1] + dalpha)
        return alphas[k]

    def lost(path: _NodePath, k: int) -> PlanInfeasibleError:
        ev = path.event
        return PlanInfeasibleError(
            f"trace {ev.trace_id} (crossover starting at {ev.f_cr_hz:.6g} Hz) lost "
            f"near {path.seed(k)[0]:.6g} Hz at alpha={alpha_at(k):.6g} S: no crossing "
            f"within {LOCATE_WINDOW_HZ:.6g} Hz")

    def locate(group: list[_NodePath], k: int) -> list[_NodePath]:
        """Locate the group's crossovers at step k; returns the ones lost."""
        group = [path for path in group if k not in path.nodes]
        if not group:
            return []
        found = locate_crossings(partial(_with_conductance, g, node_index, alpha=alpha_at(k)),
                                 [path.seed(k) for path in group], f_bounds)
        for path, res in zip(group, found):
            if res is not None:
                path.add(k, *res)
        return [path for path, res in zip(group, found) if res is None]

    def locate_exact(path: _NodePath, k: int) -> None:
        """Locate the crossover at step k, halving the way from its node
        below while it is lost there."""
        while k not in path.nodes:
            below = path.below(k)
            target = k
            while locate([path], target):
                if target - below == 1:
                    raise lost(path, target)
                target = (below + target) // 2

    def decided(path: _NodePath) -> int | None:
        """The step at which the crossover finishes, located where the
        error estimates leave the decision unclear; None while it is short."""
        re_lambda = path.event.re_lambda
        while (k := path.first_reach(epsilon)) is not None:
            gap = re_lambda + path.shift[k].real - epsilon
            if k:
                gap = min(gap, epsilon - re_lambda - path.shift[k - 1].real)
            error = sum(path.err[:k])
            if error == 0.0 or 2.0 * error < gap:
                return k
            j = int(np.argmax(path.err[:k]))
            locate_exact(path, j)
            path.settle(j, dalpha)
        return None

    open_ = paths
    kc, stride = 0, 1
    while True:
        ends = {path: k for path in open_ if (k := decided(path)) is not None}
        for k in sorted(set(ends.values())):
            for path in locate([path for path in ends if ends[path] == k], k):
                locate_exact(path, k)
        for path, k in ends.items():
            ev = path.event
            path.entry = PlanEntry(ev.trace_id, node_index, ev.f_cr_hz, path.nodes[k][0],
                                   ev.re_lambda, alpha_at(k), k, ev.re_lambda + path.shift[k].real)
        open_ = [path for path in open_ if path.entry is None]
        if not open_:
            break
        if kc == _MAX_STEPS:
            ev, path = open_[0].event, open_[0]
            raise PlanInfeasibleError(
                f"iteration cap {_MAX_STEPS} reached for trace {ev.trace_id} "
                f"(crossover starting at {ev.f_cr_hz:.6g} Hz); shortfall "
                f"{epsilon - ev.re_lambda - path.shift[kc].real:.6g} S remains "
                f"at alpha={alpha_at(kc):.6g} S")
        kn = min(kc + stride, *(path.next_after(kc) for path in open_))
        missing = locate(open_, kn)
        if missing and kn - kc == 1:
            raise lost(missing[0], kn)
        interpolated = [] if missing else [path.interpolate(kc, kn, dalpha) for path in open_]
        worst = max((error for *_, error in interpolated), default=math.inf)
        if worst > _STEP_TOL:  # a crossover lost at kn, or interpolants that disagree
            stride = (kn - kc) // 2
            continue
        for path, (values, errors, _) in zip(open_, interpolated):
            path.extend(kc, values, errors, dalpha)
        if worst <= _STEP_TOL / 32:  # the estimate grows about as H^5
            stride = min(2 * stride, _MAX_STRIDE)
        kc = kn

    entries = tuple(path.entry for path in paths)
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
