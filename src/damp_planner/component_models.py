"""dq-frame admittance/impedance models of the physical network elements.

Covers series RL branches (lines, transformers), pi-section cables,
grid-following inverters (analytic small-signal model or measured table),
and the shunt active damper in its proposed (current-feedforward) and
traditional variants.  All models are pure functions of (parameters,
frequency array) returning (..., 2, 2) complex dq blocks -- the damper
returns its scalar admittance Y, its block being diag(Y, Y) -- evaluated
at s = j*2*pi*f in a global dq frame rotating at omega0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dq_core import TransferElement, evaluate

_J = np.array([[0.0, -1.0], [1.0, 0.0]])  # dq rotation generator
_I2 = np.eye(2)


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RlBranchParams:
    """Series R-L branch (line or transformer winding); the one R-L rule,
    which the pi cable and the grid tie inherit."""

    r_ohm: float
    l_h: float

    def __post_init__(self):
        if self.r_ohm < 0 or self.l_h < 0:
            raise ValueError("R and L must be >= 0")
        if self.r_ohm == 0 and self.l_h == 0:
            raise ValueError("R and L cannot both be zero")


@dataclass(frozen=True)
class PiCableParams(RlBranchParams):
    """Pi-section cable: series R-L, total shunt capacitance split half per end."""

    c_f: float

    def __post_init__(self):
        super().__post_init__()
        if self.c_f <= 0:
            raise ValueError("pi cable needs C > 0 (use RlBranchParams otherwise)")


@dataclass(frozen=True)
class GridImpedanceParams(RlBranchParams):
    """Series R-L between a node and the ideal (small-signal short) source."""


@dataclass(frozen=True)
class CapacitorParams:
    """Shunt capacitor to ground."""

    c_f: float

    def __post_init__(self):
        if self.c_f <= 0:
            raise ValueError("C must be > 0")


@dataclass(frozen=True)
class InverterParams:
    """Current-controlled, SRF-PLL-synchronized grid-following inverter.

    L filter in series, shunt C at the terminal, PI current loop with
    omega0*L decoupling, computation delay exp(-1.5*s/f_s) on the
    modulation path.  v_d0 is the operating-point terminal voltage on the
    d axis (the PLL loop gain scale); i_d / i_q the operating-point
    current.
    """

    v_dc: float           # DC-link voltage [V]
    l_h: float            # filter inductance [H]
    c_f: float            # filter capacitance [F]
    i_d: float            # d-axis operating current [A]
    i_q: float            # q-axis operating current [A]
    k_pi: float           # current PI proportional gain
    k_ii: float           # current PI integral gain [1/s]
    k_p_pll: float        # PLL proportional gain
    k_i_pll: float        # PLL integral gain [1/s]
    f_s_hz: float         # sampling frequency [Hz]
    v_d0: float = 311.0   # operating-point PCC voltage, d axis [V]

    def __post_init__(self):
        if self.f_s_hz <= 0:
            raise ValueError("f_s must be > 0")
        if self.l_h <= 0:
            raise ValueError("filter inductance must be > 0")
        if self.v_d0 <= 0:
            raise ValueError("v_d0 must be > 0")


ADMode = Literal["proposed", "traditional"]


@dataclass(frozen=True)
class ADParams:
    """Shunt active damper parameters.

    The damping loop extracts the non-fundamental terminal voltage with a
    notch at omega0, phase-corrects it with a lag stage, low-passes it and
    scales by k_v.  In "proposed" mode the output-current feedforward
    reshapes the filter inductor so the closed current path behaves as a
    first-order low-pass gain_s * omega_c/(s + omega_c); "traditional"
    mode drops that feedforward.
    """

    v_dc: float           # DC-link voltage [V]
    l_f_h: float          # filter inductance [H]
    k_pi: float           # current PI proportional gain
    k_ii: float           # current PI integral gain [1/s]
    xi: float             # notch damping ratio
    tau_s: float          # lag time constant [s]
    beta: float           # lag pole/zero ratio
    omega_low_rad_s: float    # damping-path low-pass cut-off [rad/s]
    omega_c_rad_s: float      # intended current low-pass cut-off [rad/s]
    gain_s: float         # intended current low-pass gain [S]
    k_v: float            # damping compensation gain
    f_s_hz: float         # sampling frequency [Hz]
    mode: ADMode = "proposed"

    def __post_init__(self):
        positive = (self.v_dc, self.l_f_h, self.k_pi, self.k_ii, self.xi,
                    self.tau_s, self.beta, self.omega_low_rad_s,
                    self.omega_c_rad_s, self.gain_s, self.f_s_hz)
        if not all(0 < v < math.inf for v in positive):
            raise ValueError("all AD parameters except k_v must be finite and > 0")
        if not 0 <= self.k_v < math.inf:
            raise ValueError(f"k_v must be finite and >= 0, got {self.k_v}")
        if self.mode not in ("proposed", "traditional"):
            raise ValueError(f"unknown AD mode: {self.mode!r}")


# ---------------------------------------------------------------------------
# transfer-element builders
# ---------------------------------------------------------------------------

def notch(xi: float, omega0: float) -> TransferElement:
    """Band-rejection at omega0: (s^2 + w0^2) / (s^2 + 2*xi*w0*s + w0^2)."""
    return TransferElement((1.0, 0.0, omega0 ** 2),
                           (1.0, 2.0 * xi * omega0, omega0 ** 2))


def lag_compensator(tau: float, beta: float) -> TransferElement:
    """(tau*s + 1) / (beta*tau*s + 1)."""
    return TransferElement((tau, 1.0), (beta * tau, 1.0))


def lowpass(omega_c: float) -> TransferElement:
    """First-order low-pass omega_c / (s + omega_c)."""
    return TransferElement((omega_c,), (1.0, omega_c))


def current_feedforward(gain_s: float, omega_c: float, l_f: float) -> TransferElement:
    """Feedforward that makes 1/(s*L_f + H(s)) a low-pass gain*wc/(s+wc).

    H(s) = (1/(gain*wc) - L_f)*s + 1/gain, the exact solution of that
    reshaping requirement.
    """
    return TransferElement((1.0 / (gain_s * omega_c) - l_f, 1.0 / gain_s), (1.0,))


# ---------------------------------------------------------------------------
# passive stamps
# ---------------------------------------------------------------------------

def rl_block(r: float, l: float, f_hz, omega0: float) -> np.ndarray:
    """(..., 2, 2) series R-L impedance stamp at s = j*2*pi*f."""
    w = 2.0 * np.pi * np.asarray(f_hz, dtype=float)
    z = np.asarray(r + 1j * w * l)
    return z[..., None, None] * _I2 + (omega0 * l) * _J


def cap_block(c: float, f_hz, omega0: float) -> np.ndarray:
    """(..., 2, 2) shunt capacitor admittance stamp."""
    w = 2.0 * np.pi * np.asarray(f_hz, dtype=float)
    y = np.asarray(1j * w * c)
    return y[..., None, None] * _I2 + (omega0 * c) * _J


def _sampled_control(f_hz, f_s_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """(s, Gd) of a sampled control's model: s = j*2*pi*f and its
    computation delay Gd = exp(-1.5 s / f_s).  Valid only for
    0 < f < f_s/2, below the Nyquist band; raises ValueError otherwise."""
    f = np.asarray(f_hz, dtype=float)
    if np.any(f <= 0):
        raise ValueError("f must be > 0")
    if np.any(f >= f_s_hz / 2.0):
        raise ValueError(
            f"f reaches {np.max(f)} Hz, not below the sampled control's "
            f"f_s/2 = {f_s_hz / 2} Hz")
    s = 1j * 2.0 * np.pi * f
    return s, np.exp(-s * (1.5 / f_s_hz))


# ---------------------------------------------------------------------------
# grid-following inverter
# ---------------------------------------------------------------------------

def inverter_block(p: InverterParams, f_hz, omega0: float) -> np.ndarray:
    """(..., 2, 2) inverter output admittance at s = j*2*pi*f.

    Current balance in the system frame, with the control action rotated
    through the PLL's small-signal angle:

        A * dI = (I2 - [0 | b]) * dV,  Y = -dI/dV = A^-1 (I2 - [0 | b])

    A       = s*L + Gd*Gci on the diagonal, w0*L*(1 - Gd) cross terms
              (the controller's w0*L decoupling cancels the plant's
              rotation coupling up to the delay),
    b       = Gd * Tpll * [-Gci*i_q; Gci*i_d + v_d0]  (operating-point
              current and modulation voltage re-entering via the PLL
              frame rotation; the w0*L parts cancel exactly),
    Tpll    = Gpll / (s + v_d0*Gpll), the closed PLL phase transfer.

    The shunt filter capacitor adds in parallel at the terminal.  Valid
    only for 0 < f < f_s/2, below the Nyquist band of the sampled control.
    """
    s, gd = _sampled_control(f_hz, p.f_s_hz)
    gci = p.k_pi + p.k_ii / s
    gpll = p.k_p_pll + p.k_i_pll / s
    tpll = gpll / (s + p.v_d0 * gpll)

    a = np.asarray(s * p.l_h + gd * gci)[..., None, None] * _I2 \
        + np.asarray(omega0 * p.l_h * (1.0 - gd))[..., None, None] * _J
    b_d = gd * tpll * (-gci * p.i_q)
    b_q = gd * tpll * (gci * p.i_d + p.v_d0)
    rhs = np.broadcast_to(_I2, a.shape).astype(complex)
    rhs[..., 0, 1] -= b_d
    rhs[..., 1, 1] -= b_q

    y = np.linalg.solve(a, rhs)
    return y + cap_block(p.c_f, f_hz, omega0)


# ---------------------------------------------------------------------------
# tabulated admittance
# ---------------------------------------------------------------------------

_ENTRIES = ("dd", "dq", "qd", "qq")  # a block's entries, row by row
_TABLE_HEADER = ["f_hz", *(f"{part}_{e}" for e in _ENTRIES for part in ("re", "im"))]


class AdmittanceTable:
    """Measured (or pre-computed) dq admittance versus frequency.

    Interpolation is linear in log10(f), independently on the real and
    imaginary parts of each entry; queries must stay inside the tabulated
    range.
    """

    def __init__(self, f_hz, blocks):
        f = np.asarray(f_hz, dtype=float)
        y = np.asarray(blocks, dtype=complex)
        if f.ndim != 1 or len(f) < 2:
            raise ValueError("table needs at least 2 rows")
        if y.shape != (len(f), 2, 2):
            raise ValueError("blocks must have shape (n, 2, 2)")
        finite = np.isfinite(y).reshape(len(f), 4)
        bad = ~np.isfinite(f) | ~finite.all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            what = (f"frequency {f[k]}" if not np.isfinite(f[k]) else
                    f"{_ENTRIES[np.argmin(finite[k])]} entry at {f[k]} Hz")
            raise ValueError(f"table row {k}: non-finite {what}")
        if np.any(f <= 0) or np.any(np.diff(f) <= 0):
            raise ValueError("table frequencies must be positive and strictly increasing")
        self._f = f
        self._y = y
        self._logf = np.log10(f)
        self._f.flags.writeable = False
        self._y.flags.writeable = False

    @classmethod
    def from_csv(cls, path) -> "AdmittanceTable":
        """Read a table written by to_csv; a malformed file, a non-finite
        value included, raises ValueError naming the file and line."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != _TABLE_HEADER:
                raise ValueError(f"{path}:1: bad admittance table header {header}, "
                                 f"expected {','.join(_TABLE_HEADER)}")
            rows = []
            for row in reader:
                if len(row) != len(_TABLE_HEADER):
                    raise ValueError(f"{path}:{reader.line_num}: expected "
                                     f"{len(_TABLE_HEADER)} fields, got {len(row)}")
                try:
                    vals = [float(v) for v in row]
                except ValueError as e:
                    raise ValueError(f"{path}:{reader.line_num}: {e}") from None
                for name, v in zip(_TABLE_HEADER, vals):
                    if not math.isfinite(v):
                        raise ValueError(f"{path}:{reader.line_num}: {name} = {v} is not finite")
                rows.append(vals)
        v = np.array(rows).reshape(-1, len(_TABLE_HEADER))
        return cls(v[:, 0], (v[:, 1::2] + 1j * v[:, 2::2]).reshape(-1, 2, 2))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_TABLE_HEADER)
            for f, y in zip(self._f, self._y):
                parts = [x for v in y.ravel() for x in (v.real, v.imag)]
                writer.writerow([format(x, ".9g") for x in (f, *parts)])

    def query(self, f_hz) -> np.ndarray:
        f = np.asarray(f_hz, dtype=float)
        outside = (f < self._f[0]) | (f > self._f[-1])
        if np.any(outside):
            raise ValueError(f"query at {float(f[outside].flat[0])} Hz outside tabulated "
                             f"range [{float(self._f[0])}, {float(self._f[-1])}] Hz")
        x = np.log10(f)
        out = np.empty(f.shape + (2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                out[..., i, j] = (np.interp(x, self._logf, self._y[:, i, j].real)
                                  + 1j * np.interp(x, self._logf, self._y[:, i, j].imag))
        return out


# ---------------------------------------------------------------------------
# active damper
# ---------------------------------------------------------------------------

def ad_scalar(p: ADParams, f_hz, omega0: float) -> np.ndarray:
    """Scalar damper admittance Y; the dq block is diag(Y, Y), d and q
    being decoupled and identical.

    The damping loop acts on the non-fundamental voltage seen in the
    stationary frame, so its notch * lag * low-pass chain is evaluated at
    s + j*omega0.  Valid only for 0 < f < f_s/2, below the Nyquist band
    of the sampled control.
    """
    s, gd = _sampled_control(f_hz, p.f_s_hz)
    s_stat = s + 1j * omega0
    g_low = evaluate(lowpass(p.omega_low_rad_s), s)
    g_i = p.k_pi + p.k_ii / s
    g_v = (evaluate(notch(p.xi, omega0), s_stat)
           * evaluate(lag_compensator(p.tau_s, p.beta), s_stat)
           * evaluate(lowpass(p.omega_low_rad_s), s_stat))
    num = 1.0 + p.k_v * g_v * gd
    den = s * p.l_f_h + g_i * gd
    if p.mode == "proposed":
        h_i = evaluate(current_feedforward(p.gain_s, p.omega_c_rad_s, p.l_f_h), s)
        den = den + h_i * g_low * gd
    return num / den
