"""Eigenvalue sensitivity, damper placement ranking and quantitative
damping-compensation planning.

The first-order shift of eigenvalue k under a shunt admittance added at
node i is  d_lambda = Y * (u_{k,2i-1} w_{2i-1,k} + u_{k,2i} w_{2i,k}),
the bracket being the node's compensation coefficient K_C.  Planning
starts from the caller's baseline analysis (traces and stability report)
and accumulates pure-conductance increments d_alpha, re-locating the
crossover at the updated conductance each step (the sensitivity drifts
with alpha): a 9-point window scan, assembled and decomposed as one
batch, then refine_crossover (Illinois regula falsi, one point per step)
on the bracket.  It stops once the real part at every critical crossover
is lifted above the margin epsilon.  Calibration then picks the smallest
damper gain k_v whose admittance covers the planned conductance over the
planned band while staying quasi-resistive.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .component_models import ADParams, ad_scalar
from .dq_core import FrequencyGrid
from .network_assembly import NetworkGraph, assemble, assemble_grid
from .stability_engine import (
    BisectionError,
    CrossoverEvent,
    EigenSample,
    EigenTrace,
    StabilityReport,
    _pick_matching_eig,
    analyze,
    eig_lr,
    eig_lr_batch,
    refine_crossover,
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
    """First-order gain from a shunt admittance at a node to one eigenvalue."""

    trace_id: int
    node_index: int
    f_cr_hz: float
    value: complex


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
    (a crossover frequency in the planning workflow).  Summed over all
    nodes of one eigenvalue it equals u_k . w_k = 1."""
    ent = sensitivity(sample, k, node_index)
    return CompensationCoefficient(trace_id, node_index, sample.f_hz, ent.dlam_dalpha)


def _left_vector_near(tr: EigenTrace, f_hz: float) -> np.ndarray:
    """The trace's left eigenvector at the first swept frequency >= f_hz
    (the last one when f_hz lies beyond the sweep)."""
    return tr.u[min(int(np.searchsorted(tr.f_hz, f_hz)), len(tr) - 1)]


def compensation_table(g: NetworkGraph, traces: Sequence[EigenTrace],
                       events: Sequence[CrossoverEvent]) -> list[CompensationCoefficient]:
    """K_C of every node for every critical crossover event.

    The matrix is re-assembled and decomposed at each crossover
    frequency; the eigenvalue is identified by overlap with the trace's
    eigenvector at the nearest swept frequency.
    """
    trace_by_id = {t.trace_id: t for t in traces}
    out: list[CompensationCoefficient] = []
    for ev in events:
        if ev.verdict != "critical":
            continue
        smp = eig_lr(assemble(g, ev.f_cr_hz), ev.f_cr_hz)
        k = _pick_matching_eig(smp, _left_vector_near(trace_by_id[ev.trace_id], ev.f_cr_hz))
        for pos in range(g.n):
            out.append(compensation_coefficient(smp, k, pos, trace_id=ev.trace_id))
    return out


@dataclass(frozen=True)
class LocationRank:
    """One candidate node with its worst-case damping efficiency.

    score is the minimum over critical eigenvalues of Re[K_C] divided by
    that eigenvalue's demanded real-part lift; with uniform demands it is
    simply the worst-case Re[K_C].
    """

    node_index: int
    score: float
    re_kc_per_trace: tuple[tuple[int, float], ...]


def rank_locations(coeffs: Sequence[CompensationCoefficient],
                   demands: dict[int, float] | None = None) -> list[LocationRank]:
    """Rank candidate nodes by worst-case damping efficiency, descending;
    ties break on node index.

    demands optionally maps trace id to the required real-part lift of
    that eigenvalue (epsilon - Re[lambda] at its crossover).  Eigenvalues
    needing more compensation then weigh more heavily, which is what
    separates otherwise near-tied locations: a node is only as good as
    its efficiency on the hungriest critical mode.
    """
    per_node: dict[int, list[CompensationCoefficient]] = {}
    for c in coeffs:
        per_node.setdefault(c.node_index, []).append(c)
    ranks = []
    for node, items in per_node.items():
        score = min(c.value.real / (demands.get(c.trace_id, 1.0) if demands else 1.0)
                    for c in items)
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


def accumulate_alpha(re_start: float, epsilon: float, dalpha: float,
                     kc_at, max_iter: int = 10000) -> tuple[float, int, complex]:
    """Core conductance accumulation loop.

    kc_at(alpha) returns the (complex) compensation coefficient with the
    conductance alpha already installed; the loop adds dalpha and
    accumulates the predicted eigenvalue shift until
    re_start + Re[shift] >= epsilon.  Returns (alpha, iterations, shift).
    """
    alpha = 0.0
    shift = 0j
    it = 0
    while re_start + shift.real < epsilon:
        if it >= max_iter:
            raise PlanInfeasibleError(
                f"iteration cap {max_iter} reached; shortfall "
                f"{epsilon - re_start - shift.real:.6g} S remains at alpha={alpha:.6g} S")
        kc = kc_at(alpha)
        shift += dalpha * kc
        alpha += dalpha
        it += 1
    return alpha, it, shift


class _CriticalFollower:
    """Re-locates one critical eigenvalue as conductance is added at a node.

    Keeps the left eigenvector of the last confirmed point as the
    identity reference; the crossover is re-found by a local sign-change
    scan in a window around the previous f_cr (9 points, assembled and
    decomposed as one batch) and refine_crossover (Illinois regula falsi
    from the scan's Im values at the bracket ends, on the same
    _matrices_at) on the bracket nearest it, widening the window on
    failure, inside [f_lo, f_hi].
    """

    WINDOW_HZ = 50.0  # half-width of the first scan window around f_cr

    def __init__(self, g: NetworkGraph, node_index: int, f_cr: float,
                 u_ref: np.ndarray, f_lo: float, f_hi: float):
        self.g = g
        self.node_index = node_index
        self.f_cr = f_cr
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

    def locate(self, alpha: float) -> tuple[EigenSample, int]:
        """Crossover-frequency sample of the followed eigenvalue at alpha
        and the eigenvalue's index in it."""
        window = self.WINDOW_HZ
        for _ in range(8):
            found = self._scan_and_refine(alpha, window)
            if found is not None:
                smp, j = found
                self.f_cr = smp.f_hz
                self.u_ref = smp.u[j]
                return found
            window *= 2.0
        raise PlanInfeasibleError(
            f"lost the critical crossover near {self.f_cr} Hz at alpha={alpha} S")

    def _scan_and_refine(self, alpha: float, window: float):
        lo = max(self.f_bounds[0], self.f_cr - window)
        hi = min(self.f_bounds[1], self.f_cr + window)
        fs = [float(f) for f in np.linspace(lo, hi, 9)]
        ims = [smp.lam[_pick_matching_eig(smp, self.u_ref)].imag
               for smp in eig_lr_batch(self._matrices_at(fs, alpha), fs)]
        # bracket whose midpoint is nearest the previous crossover
        brackets = [i for i in range(len(fs) - 1)
                    if ims[i] == 0.0 or ims[i] * ims[i + 1] < 0]
        if not brackets:
            return None
        i = min(brackets, key=lambda i: abs(0.5 * (fs[i] + fs[i + 1]) - self.f_cr))
        try:
            return refine_crossover(lambda fs: self._matrices_at(fs, alpha),
                                    fs[i], fs[i + 1], ims[i], ims[i + 1], self.u_ref)
        except BisectionError:
            return None


def plan(g: NetworkGraph, node_id: int, traces: Sequence[EigenTrace],
         report: StabilityReport, epsilon: float, dalpha: float = 1e-3) -> CompensationPlan:
    """Conductance required at one node to lift every critical eigenvalue
    above the margin epsilon.

    traces and report are the baseline analysis of g (as returned by
    analyze); its critical crossovers are the ones planned for, and the
    crossover search stays inside the traces' frequency range.
    Per critical crossover, conductance is added in dalpha steps; after
    each step the critical eigenvalue and its (drifting) crossover
    frequency are re-identified with the step's conductance installed,
    and the first-order shift is accumulated.  The band-level requirement
    is the largest per-eigenvalue conductance over the band spanned by
    the crossover frequencies, padded outward to the nearest 100 Hz.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if dalpha <= 0:
        raise ValueError("dalpha must be > 0")
    node_index = g.node_index(node_id)
    f_lo, f_hi = float(traces[0].f_hz[0]), float(traces[0].f_hz[-1])
    criticals = [e for e in report.events if e.verdict == "critical"]

    entries: list[PlanEntry] = []
    trace_by_id = {t.trace_id: t for t in traces}
    for ev in criticals:
        u_ref = _left_vector_near(trace_by_id[ev.trace_id], ev.f_cr_hz)
        follower = _CriticalFollower(g, node_index, ev.f_cr_hz, u_ref, f_lo, f_hi)

        def kc_at(alpha: float, follower=follower) -> complex:
            smp, j = follower.locate(alpha)
            return sensitivity(smp, j, node_index).dlam_dalpha

        alpha, iters, shift = accumulate_alpha(ev.re_lambda, epsilon, dalpha, kc_at)
        entries.append(PlanEntry(
            trace_id=ev.trace_id,
            node_index=node_index,
            f_cr_start_hz=ev.f_cr_hz,
            f_cr_final_hz=follower.f_cr,
            re_lambda_start=ev.re_lambda,
            alpha_s=alpha,
            iterations=iters,
            predicted_re=ev.re_lambda + shift.real,
        ))

    if entries:
        f_all = [e.f_cr_start_hz for e in entries] + [e.f_cr_final_hz for e in entries]
        band_lo = max(1.0, math.floor(min(f_all) / 100.0) * 100.0)
        band_hi = math.ceil(max(f_all) / 100.0) * 100.0
        required = max(e.alpha_s for e in entries)
    else:
        band_lo = band_hi = 0.0
        required = 0.0

    return CompensationPlan(epsilon, dalpha, node_index, tuple(entries),
                            band_lo, band_hi, required)


# ---------------------------------------------------------------------------
# damper calibration and verification
# ---------------------------------------------------------------------------

MAX_IM_RE_RATIO = 0.1
# damper gain search: coarse-scan limit and bisection resolution
_K_V_MAX = 50.0
_K_V_RESOLUTION = 1e-3


def _band_metrics(p: ADParams, f_hz: np.ndarray, omega0: float) -> tuple[float, float]:
    y = ad_scalar(p, f_hz, omega0)
    min_re = float(np.min(y.real))
    if min_re <= 0.0:
        return min_re, float("inf")
    return min_re, float(np.max(np.abs(y.imag / y.real)))


def calibrate_ad(cplan: CompensationPlan, base: ADParams,
                 omega0: float = 2 * math.pi * 50.0, df: float = 1.0) -> ADParams:
    """Smallest damper gain k_v whose admittance meets the plan.

    Feasible means: over the plan band at df spacing, Re[Y] >= the
    band requirement and |Im/Re| <= 0.1 (quasi-resistive).  The smallest
    feasible k_v is found by coarse scan plus bisection to
    _K_V_RESOLUTION; the returned gain is the verified-feasible bisection
    endpoint.  Raises CalibrationInfeasibleError naming the binding
    constraint when no gain qualifies.
    """
    if not cplan.entries or cplan.required_re_yad_s <= 0.0:
        return replace(base, k_v=0.0)
    f = np.arange(cplan.band_lo_hz, cplan.band_hi_hz + df / 2.0, df)
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
