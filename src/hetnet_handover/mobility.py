"""Modified random-waypoint (MRWP) mobility.

A classic random-waypoint user draws a Rayleigh-distributed transition length
and a uniform direction for each movement.  The modification adds, with
probability ``p_z``, an independent Rayleigh extension to the drawn length,
which pushes more waypoints toward the region border and counteracts the
center-concentration (density-wave) artifact of the plain model.

Transition length of movement k:

    L'_k = L_k + mu_k * Z_k,
    L_k ~ Rayleigh(sigma_rwp),  mu_k ~ Bernoulli(p_z),  Z_k ~ Rayleigh(sigma_z)

so E[L'] = sqrt(pi/2) * (sigma_rwp + p_z * sigma_z) exactly.

Candidates that would leave the region are clamped to the ray-boundary
intersection: the user walks in the drawn direction until hitting the edge.
Zero-length moves (possible only from a boundary point heading outward, or a
measure-zero zero draw) are redrawn so segments are always non-degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Region

_MIN_SEGMENT = 1e-9  # meters; below this a candidate move is redrawn
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MobilityConfig:
    sigma_rwp: float  # Rayleigh scale of the base transition length, m
    p_z: float  # probability that a movement gets the Rayleigh extension
    sigma_z: float  # Rayleigh scale of the extension, m
    velocity: float  # constant user speed, m/s
    pause: float  # constant pause after each movement, s

    def __post_init__(self) -> None:
        if self.sigma_rwp <= 0:
            raise ValueError(f"sigma_rwp must be positive, got {self.sigma_rwp}")
        if not (0.0 <= self.p_z <= 1.0):
            raise ValueError(f"p_z must lie in [0, 1], got {self.p_z}")
        if self.sigma_z <= 0:
            raise ValueError(f"sigma_z must be positive, got {self.sigma_z}")
        if self.velocity <= 0:
            raise ValueError(f"velocity must be positive, got {self.velocity}")
        if self.pause < 0:
            raise ValueError(f"pause must be non-negative, got {self.pause}")


@dataclass
class Trajectory:
    """An ordered waypoint sequence with the (constant) motion parameters."""

    waypoints: np.ndarray  # (n_moves + 1, 2)
    velocity: float
    pause: float

    def __post_init__(self) -> None:
        w = np.asarray(self.waypoints, dtype=float)
        if w.ndim != 2 or w.shape[1] != 2 or len(w) < 2:
            raise ValueError("a trajectory needs at least two (x, y) waypoints")
        self.waypoints = w


def mean_transition_length(cfg: MobilityConfig) -> float:
    """Exact E[L'] = sqrt(pi/2) * (sigma_rwp + p_z * sigma_z)."""
    return math.sqrt(math.pi / 2.0) * (cfg.sigma_rwp + cfg.p_z * cfg.sigma_z)


def generate_trajectory(
    start: np.ndarray,
    n_moves: int,
    region: Region,
    cfg: MobilityConfig,
    rng: np.random.Generator,
) -> Trajectory:
    """A trajectory of ``n_moves`` movements from ``start``.

    Each movement draws a length L' (one Rayleigh draw, then a uniform coin
    and a second Rayleigh draw when ``p_z > 0``) and a direction
    ``2 pi U``, clamps the move to the region boundary along the ray, and
    redraws whenever the resulting segment would be degenerate.  Every
    waypoint lies inside the closed region and differs from the one before.
    """
    if n_moves < 1:
        raise ValueError(f"n_moves must be >= 1, got {n_moves}")
    start_arr = np.asarray(start, dtype=float)
    if not bool(region.contains(start_arr)[0]):
        raise ValueError(f"start {start_arr} is outside the region")
    x, y = float(start_arr[0]), float(start_arr[1])
    x_min, x_max, y_min, y_max = region.x_min, region.x_max, region.y_min, region.y_max
    rayleigh, random, cos, sin = rng.rayleigh, rng.random, math.cos, math.sin
    sigma_rwp, p_z, sigma_z = cfg.sigma_rwp, cfg.p_z, cfg.sigma_z
    mixed = p_z > 0
    coords = [x, y]
    # Only the start is checked: every waypoint drawn below lies inside.
    for _ in range(n_moves):
        while True:
            step = rayleigh(sigma_rwp)
            if mixed and random() < p_z:
                step += rayleigh(sigma_z)
            # Bit-identical to rng.uniform(0, 2 pi), which computes
            # low + (high - low) * random() with low = 0, at a quarter of the cost.
            theta = _TWO_PI * random()
            dx, dy = cos(theta), sin(theta)
            # Slab clamp: walk along the ray no further than the first wall.
            # From a boundary point heading outward the step is <= 0.
            if dx > 1e-300:
                wall = (x_max - x) / dx
                if wall < step:
                    step = wall
            elif dx < -1e-300:
                wall = (x_min - x) / dx
                if wall < step:
                    step = wall
            if dy > 1e-300:
                wall = (y_max - y) / dy
                if wall < step:
                    step = wall
            elif dy < -1e-300:
                wall = (y_min - y) / dy
                if wall < step:
                    step = wall
            if step > _MIN_SEGMENT:
                break
        # The clamp is exact up to rounding; snap the last few ulps so the
        # waypoint is inside the closed region by construction.
        x += step * dx
        if x < x_min:
            x = x_min
        elif x > x_max:
            x = x_max
        y += step * dy
        if y < y_min:
            y = y_min
        elif y > y_max:
            y = y_max
        coords += (x, y)
    waypoints = np.array(coords).reshape(-1, 2)
    return Trajectory(waypoints=waypoints, velocity=cfg.velocity, pause=cfg.pause)

