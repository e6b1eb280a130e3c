"""Reduction of measured spatial distances to the ellipsoid and the map plane.

The pipeline from a slope distance Dp between two monument altitudes is:
wave-curvature correction (EDM ray bending), reduction to the horizontal,
reduction to sea level, chord-to-arc correction, then the projection scale.
A closed one-step formula for the sea-level chord is also provided.  Each
formula takes floats or numpy columns alike (see reduce_columns).  An
overflowing correction is infinite; a non-finite distance raises OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EARTH_RADIUS, all_finite, np, npmath, quiet

# EDM ray curvature radius: 8R for light waves, 4R for microwaves
WAVE_CURVATURE_FACTOR = {"light": 8.0, "micro": 4.0}


@dataclass(frozen=True)
class DistanceObservation:
    """A slope distance with endpoint altitudes.

    dp: measured slope distance, m; ha/hb endpoint altitudes, m;
    wave: None, 'light' or 'micro' (enables the ray-curvature correction);
    radius: earth radius used by the reductions.
    """

    dp: float
    ha: float
    hb: float
    wave: str | None = None
    radius: float = EARTH_RADIUS

    def __post_init__(self):
        if self.wave is not None and self.wave not in WAVE_CURVATURE_FACTOR:
            raise ValueError("wave must be None, 'light' or 'micro'")
        if type(self.dp) is not float and type(self.dp) is np.ndarray:
            return  # columns, whose rows reduce_columns checks
        if not all(map(math.isfinite, (self.dp, self.ha, self.hb, self.radius))):
            raise ValueError("non-finite distance, altitude or radius")
        if self.dp <= 0:
            raise ValueError("slope distance must be > 0")
        if self.dp <= abs(self.hb - self.ha):
            raise ValueError("slope distance shorter than the height difference")

    @property
    def mean_altitude(self) -> float:
        return 0.5 * (self.ha + self.hb)

    @property
    def dh(self) -> float:
        return self.hb - self.ha


def correction_curvature(obs: DistanceObservation) -> float:
    """C1 = -D^3/(24 rho^2): measured ray arc to its chord.  Zero when no wave set."""
    if obs.wave is None:
        return 0.0
    rho = WAVE_CURVATURE_FACTOR[obs.wave] * obs.radius
    return -obs.dp * obs.dp * obs.dp / (24.0 * rho * rho)


def correction_horizontal(obs: DistanceObservation) -> float:
    """C2 = -dH^2/(2 Dp): slope chord to the horizontal at mean altitude."""
    return -obs.dh * obs.dh / (2.0 * obs.dp)


def correction_sea_level(dh_dist: float, h_mean: float, radius: float = EARTH_RADIUS) -> float:
    """C3 = -D_H * H_m / R: horizontal distance down to the reference surface."""
    return -dh_dist * h_mean / radius


def correction_chord_to_arc(d0: float, radius: float = EARTH_RADIUS) -> float:
    """C4 = D0^3/(24 R^2): sea-level chord to the ellipsoidal arc."""
    return d0 * d0 * d0 / (24.0 * radius * radius)


def reduce_to_plane(de: float, scale_m: float) -> float:
    """Distance in the projection plane, Dr = m * De."""
    dr = scale_m * de
    if (type(dr) is float or type(dr) is not np.ndarray) and math.isinf(dr):
        raise OverflowError("plane distance overflows")
    return dr


def plane_correction(de: float, scale_m: float) -> float:
    """C5 = (m - 1) De."""
    return (scale_m - 1.0) * de


def rigorous_sea_level(obs: DistanceObservation) -> float:
    """Closed formula for the sea-level chord D0 from the slope distance.

    D0 = Dp sqrt((1 - dH^2/Dp^2) / ((1 + Ha/R)(1 + Hb/R))), undefined (NaN
    in a column) unless both parentheses are > 0.
    """
    ratio = obs.dh / obs.dp
    denom = (1.0 + obs.ha / obs.radius) * (1.0 + obs.hb / obs.radius)
    num = 1.0 - ratio * ratio
    xp = npmath if type(num) is not float and type(num) is np.ndarray else math
    if xp is math and (num <= 0 or denom <= 0):
        raise ValueError("near-vertical line: rigorous reduction undefined")
    d0 = obs.dp * xp.sqrt(num / denom)
    return d0 if xp is math else np.where((num > 0) & (denom > 0), d0, np.nan)


def reduce_to_ellipsoid(obs: DistanceObservation, rigorous: bool = False) -> float:
    """Ellipsoidal arc De from a slope observation.

    The stepwise path applies C1 (if a wave type is declared), C2, C3 and
    C4 in sequence; the rigorous path uses the closed sea-level formula
    followed by C4.
    """
    if rigorous:
        d0 = rigorous_sea_level(obs)
    else:
        dp = obs.dp + correction_curvature(obs)
        dh = dp + correction_horizontal(obs)
        d0 = dh + correction_sea_level(dh, obs.mean_altitude, obs.radius)
    de = d0 + correction_chord_to_arc(d0, obs.radius)
    if (type(de) is float or type(de) is not np.ndarray) and not math.isfinite(de):
        raise OverflowError("ellipsoidal distance overflows")
    return de


@quiet
def reduce_columns(dp, ha, hb, scale_m: float, wave: str | None = None,
                   rigorous: bool = False) -> tuple:
    """Array form of reduce_to_ellipsoid and reduce_to_plane over columns:
    (de, dr, failed), failed marking the rows where DistanceObservation or
    either reduction raises (dp > |dh| implies dp > 0)."""
    obs = DistanceObservation(dp, ha, hb, wave)
    de = reduce_to_ellipsoid(obs, rigorous)
    dr = reduce_to_plane(de, scale_m)
    return de, dr, ~(all_finite(dp, ha, hb, de, dr) & (dp > np.abs(obs.dh)))
