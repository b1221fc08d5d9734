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
A move within a few ulps of the coordinates (out of a wall, a rounding
residue at one, or a tiny draw) is redrawn, so consecutive waypoints differ.
`generate_trajectory` draws a walk's moves as arrays; its docstring gives the
draw order and the redraw rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Region

#: A move no longer than this many ulps of the region's largest |coordinate|
#: is redrawn: wall residues reach ~2 ulps, drawn moves are far longer.
_MIN_SEGMENT_ULPS = 64
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
    """An ordered waypoint sequence; the speed and pause along it are the
    `MobilityConfig`'s."""

    waypoints: np.ndarray  # (n_moves + 1, 2)

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

    Draw order: the base lengths ``rayleigh(sigma_rwp, n_moves)``; when
    ``p_z > 0``, the coins ``random(n_moves)`` and ``rayleigh(sigma_z, k)``
    for the ``k`` moves whose coin is below ``p_z``, in move order; the turns
    ``random(n_moves)``, directions ``2 pi U``.  Each move is clamped to the
    region boundary along its ray; a degenerate one is redrawn by scalar
    draws in the same order.  Every waypoint lies inside the closed region
    and more than the shortest move, ``_MIN_SEGMENT_ULPS`` ulps of the
    region's largest |coordinate|, from the one before.  A walk is refused
    where ``sigma_rwp`` or half a side is not above that move; otherwise each
    direction facing the farthest corner reaches a wall beyond it, and a
    redraw ends the loop with probability above ``exp(-1/2) / 4``.
    """
    if n_moves < 1:
        raise ValueError(f"n_moves must be >= 1, got {n_moves}")
    x_min, x_max, y_min, y_max = region.x_min, region.x_max, region.y_min, region.y_max
    shortest = _MIN_SEGMENT_ULPS * math.ulp(max(map(abs, (x_min, x_max, y_min, y_max))))
    if min(cfg.sigma_rwp, 0.5 * region.width, 0.5 * region.height) <= shortest:
        raise ValueError(
            f"[mobility] sigma_rwp_m = {cfg.sigma_rwp!r} and [region] x [{x_min}, {x_max}], "
            f"y [{y_min}, {y_max}]: sigma_rwp_m and half of each side must exceed the shortest "
            f"move, {shortest!r} m ({_MIN_SEGMENT_ULPS} ulps of the largest coordinate)"
        )
    start_arr = np.asarray(start, dtype=float)
    if not bool(region.contains(start_arr)[0]):
        raise ValueError(f"start {start_arr} is outside the region")
    sigma_rwp, p_z, sigma_z = cfg.sigma_rwp, cfg.p_z, cfg.sigma_z
    mixed = p_z > 0
    steps = rng.rayleigh(sigma_rwp, n_moves)
    if mixed:
        extended = rng.random(n_moves) < p_z
        steps[extended] += rng.rayleigh(sigma_z, np.count_nonzero(extended))
    theta = _TWO_PI * rng.random(n_moves)
    x, y = float(start_arr[0]), float(start_arr[1])
    coords = [x, y]
    # Only the start is checked: every waypoint drawn below lies inside.
    for step, dx, dy in zip(steps.tolist(), np.cos(theta).tolist(), np.sin(theta).tolist()):
        while True:
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
            if step > shortest:
                break
            step = rng.rayleigh(sigma_rwp)
            if mixed and rng.random() < p_z:
                step += rng.rayleigh(sigma_z)
            turn = _TWO_PI * rng.random()
            dx, dy = math.cos(turn), math.sin(turn)
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
    return Trajectory(waypoints=waypoints)
