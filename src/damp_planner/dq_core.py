"""Frequency-response primitives for dq-frame network analysis.

Transfer elements are rational functions of s (polynomial coefficients in
descending powers), evaluated at any complex s in rad/s, on or off the
imaginary axis.  A frequency shift is an evaluation at s + j*omega0.  The
2x2 dq blocks themselves are plain (..., 2, 2) complex ndarrays built by
the component models, which take the computation delay exp(-1.5 s/f_s),
exactly, from one shared sampled-control guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# |den(s)| below this is treated as a pole hit
_SINGULAR_ABS_TOL = 1e-300


class PoleHitError(ArithmeticError):
    """Rational-part denominator vanished at the evaluation point."""


def _as_coeff_tuple(coeffs) -> tuple[complex, ...]:
    out = tuple(complex(c) for c in coeffs)
    if not out:
        raise ValueError("empty coefficient list")
    # strip leading zeros but keep at least one coefficient
    k = 0
    while k < len(out) - 1 and out[k] == 0:
        k += 1
    return out[k:]


@dataclass(frozen=True)
class TransferElement:
    """Rational transfer element num(s)/den(s).

    Coefficients are in descending powers of s and may be complex.
    """

    num: tuple[complex, ...]
    den: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "num", _as_coeff_tuple(self.num))
        object.__setattr__(self, "den", _as_coeff_tuple(self.den))
        if all(c == 0 for c in self.den):
            raise ValueError("denominator is identically zero")


def evaluate(tf: TransferElement, s):
    """Evaluate tf at complex s (rad/s). s may be a scalar or ndarray.

    Raises PoleHitError if the denominator magnitude falls below the
    singularity threshold anywhere.
    """
    s = np.asarray(s, dtype=complex)
    den = np.polyval(tf.den, s)
    if np.min(np.abs(den)) < _SINGULAR_ABS_TOL:
        raise PoleHitError(f"denominator ~ 0 at s={s[np.argmin(np.abs(den))] if s.ndim else s}")
    out = np.polyval(tf.num, s) / den
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing, positive, finite sweep frequencies [Hz].

    A grid holds frequencies only; the fundamental belongs to the network
    (NetworkGraph.omega0, from the network file's fundamental_hz).
    """

    frequencies: tuple[float, ...]

    def __post_init__(self):
        f = np.array(self.frequencies, dtype=float)
        object.__setattr__(self, "frequencies", tuple(f.tolist()))
        if not len(f):
            raise ValueError("empty frequency grid")
        if not np.all(np.isfinite(f)):
            raise ValueError(f"frequencies must be finite, got {f[~np.isfinite(f)][0]}")
        if f[0] <= 0:
            raise ValueError("frequencies must be > 0")
        if np.any(f[1:] <= f[:-1]):
            raise ValueError("frequencies must be strictly increasing")

    @classmethod
    def regular(cls, fmin: float, fmax: float, df: float) -> "FrequencyGrid":
        if not (0 < fmin <= fmax < math.inf and 0 < df < math.inf):
            raise ValueError(f"need finite 0 < fmin <= fmax and df > 0, "
                             f"got fmin={fmin}, fmax={fmax}, df={df}")
        # the relative slack keeps the end of a whole span whose step count
        # the division puts just below an integer (0.1..0.3 by 0.1 gives
        # 1.999...); the clamp keeps that end at or below fmax, where
        # fmin + k df rounds past it (0.1 + 2 * 0.1 = 0.30000000000000004)
        n = math.floor((fmax - fmin) / df * (1.0 + 1e-9)) + 1
        return cls(np.minimum(fmin + np.arange(n) * df, fmax))

    @cached_property
    def hz(self) -> np.ndarray:
        hz = np.array(self.frequencies)
        hz.flags.writeable = False  # one array per grid, shared by every caller
        return hz

    def __len__(self) -> int:
        return len(self.frequencies)
