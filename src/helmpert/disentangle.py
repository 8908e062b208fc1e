"""Algebraic recovery of interior energies from four-amplitude data.

A probe datum at amplitude lam follows the model

    D(lam) = F * f(a*lam) + G * (b*lam - 1)

with F the gradient energy, G the (negated, frequency-scaled) mass energy,
and (a, b) the material contrast ratios inside the probe. The affine G-term
is annihilated by the second-order divided-difference d, which factors as
F times a rational function Q of the amplitudes and a alone. Because
f(x) = (x-1)^2/(x+1) = x - 3 + 4/(x+1), the ratio of two such d values is
a Moebius function of a, so a has a closed form, after which F, G, b follow
by exact elimination. Four distinct amplitudes are exactly enough.
"""

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .forward import InternalData
from .mesh import TriangleMesh

# contrast ratios a the recovery accepts; a fit outside is NoRoot
CONTRAST_RANGE = (1e-3, 1e3)
# |d| at or below this times max|D| means the gradient channel is invisible
DEGENERACY_RTOL = 1e-12


class DegenerateData(Exception):
    """The divided differences vanish: no gradient-channel signal.

    ``recover`` never raises it (it returns the F = 0 fit instead); callers
    still list it among the recovery outcomes they catch.
    """


class NoRoot(Exception):
    """No contrast ratio in CONTRAST_RANGE fits the data."""


@dataclass(frozen=True)
class AmplitudeQuad:
    """Four distinct positive probe amplitudes."""

    lam1: float = 0.5
    lam2: float = 1.5
    lam3: float = 2.0
    lam4: float = 3.0

    def __post_init__(self):
        lams = self.as_tuple()
        if any(l <= 0 for l in lams):
            raise ValueError("amplitudes must be positive")
        if len(set(lams)) != 4:
            raise ValueError("amplitudes must be pairwise distinct")

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.lam1, self.lam2, self.lam3, self.lam4)


@dataclass
class RecoveredPoint:
    """Model parameters fitted to one probe location."""

    F: float
    G: float
    a: float
    b: float
    residual: float

    def __post_init__(self):
        if self.F < 0:
            raise ValueError("gradient energy F cannot be negative")
        if not math.isnan(self.a) and self.a <= 0:
            raise ValueError("contrast ratio a must be positive (or nan when F = 0)")


def f_contrast(x: float) -> float:
    """Rational contrast factor (x-1)^2 / (x+1) of the gradient channel."""
    if x == -1.0:
        raise ValueError("contrast factor has a pole at -1")
    return (x - 1.0) ** 2 / (x + 1.0)


def d_triple(pairs: Sequence[Tuple[float, float]]) -> float:
    """Residual of D at lam3 against the affine interpolant through lam1, lam2.

    Annihilates anything affine in lam, so only the gradient channel
    survives.
    """
    (x1, d1), (x2, d2), (x3, d3) = pairs
    if x1 == x2:
        raise ValueError("first two amplitudes must differ")
    return d3 - (d1 * (x2 - x3) + d2 * (x3 - x1)) / (x2 - x1)


def q_rational(x1: float, x2: float, x3: float, a: float) -> float:
    """The amplitude-only factor Q with d = F * Q; symmetric in x1, x2."""
    return (4.0 * a * a * (x3 - x1) * (x3 - x2)
            / ((a * x1 + 1.0) * (a * x2 + 1.0) * (a * x3 + 1.0)))


def _fit(pairs, F: float, a: float) -> RecoveredPoint:
    """(G, b) and the residual from what the gradient channel leaves over.

    The remainder F*f(a*lam) - D is affine in lam, G - G*b*lam; the widest
    amplitude pair fixes it with the least error amplification in the slope.
    """
    # F = 0 comes with a = nan: no gradient channel to subtract
    rest = [(lam, (F * f_contrast(a * lam) if F else 0.0) - d)
            for lam, d in pairs]
    (x1, n1), (x4, n4) = rest[0], rest[-1]
    slope = (n4 - n1) / (x4 - x1)
    G = n1 - slope * x1
    b = -slope / G if G != 0.0 else math.nan
    residual = max(abs(n - slope * lam - G) for lam, n in rest)
    return RecoveredPoint(F=F, G=G, a=a, b=b, residual=residual)


def recover(measurements: Sequence[Tuple[float, float]]) -> RecoveredPoint:
    """Invert four (amplitude, datum) pairs into (F, G, a, b).

    With amplitudes x1 < x2 < x3 < x4, the ratio r = d3/d4 of the two
    canonical divided differences is c*(a*x4 + 1)/(a*x3 + 1), where
    c = (x3-x1)(x3-x2) / ((x4-x1)(x4-x2)); so a = (c - r)/(r*x3 - c*x4).
    F follows from the factorization of d3, and (G, b) from the affine
    remainder. When the divided differences vanish (no gradient-channel
    signal) the affine-only fit returns F = 0 with a undefined instead of
    raising. NoRoot is raised when a is not finite or lies outside
    CONTRAST_RANGE, ValueError when the fit has a negative F.
    """
    pairs = sorted((float(l), float(d)) for l, d in measurements)
    if len(pairs) != 4:
        raise ValueError("exactly four measurements are required")
    lams = [l for l, _ in pairs]
    if len(set(lams)) != 4:
        raise ValueError("amplitudes must be pairwise distinct")
    if lams[0] <= 0:
        raise ValueError("amplitudes must be positive")

    d3 = d_triple(pairs[:3])
    d4 = d_triple([pairs[0], pairs[1], pairs[3]])
    scale = max(abs(d) for _, d in pairs)
    if abs(d3) <= DEGENERACY_RTOL * scale or abs(d4) <= DEGENERACY_RTOL * scale:
        # pure-q point (or all-zero data): the model degenerates to the
        # affine term
        return _fit(pairs, 0.0, math.nan)

    x1, x2, x3, x4 = lams
    r = d3 / d4
    c = (x3 - x1) * (x3 - x2) / ((x4 - x1) * (x4 - x2))
    den = r * x3 - c * x4
    a = (c - r) / den if den != 0.0 else math.inf
    lo, hi = CONTRAST_RANGE
    if not lo <= a <= hi:  # also catches nan
        raise NoRoot(f"no contrast ratio in {CONTRAST_RANGE} fits the data "
                     f"(closed form gives a = {a:g})")
    return _fit(pairs, d3 / q_rational(x1, x2, x3, a), a)


def recover_internal_data(mesh: TriangleMesh,
                          point_recoveries: Dict[int, RecoveredPoint],
                          k: float) -> InternalData:
    """Nodal internal-data maps from per-node recoveries: J = F, j = -G/k^2."""
    if k <= 0:
        raise ValueError("a positive frequency is needed to unscale the mass energy")
    J = np.zeros(mesh.n_nodes)
    j = np.zeros(mesh.n_nodes)
    for node, rec in point_recoveries.items():
        J[node] = rec.F
        j[node] = -rec.G / k ** 2
    return InternalData(mesh=mesh, J=J, j=j, k=k)
