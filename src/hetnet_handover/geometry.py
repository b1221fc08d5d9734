"""Spatial deployment sampling for a three-tier cellular layout.

A deployment is plain ``(N, 2)`` coordinate arrays in meters, one per tier:

* homogeneous Poisson point processes (PPP) for the macro tier and the
  uniformly deployed small-cell tier (`sample_ppp`);
* a Thomas cluster process for the hotspot small-cell tier (`sample_tcp`):
  Poisson parents, a Poisson number of offspring per parent, and isotropic
  Gaussian scattering of each offspring around its parent.

All sampling functions are pure given an explicit ``numpy.random.Generator``;
there is no module-level random state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangular deployment / roaming region, in meters."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError(
                f"degenerate region: x [{self.x_min}, {self.x_max}], "
                f"y [{self.y_min}, {self.y_max}]"
            )
        if not math.isfinite(self.area):
            raise ValueError(f"area must be finite, got {self.area}")
        if self.area <= 0.0:  # the product of two tiny sides underflows
            raise ValueError(f"area must be positive, got {self.area}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an (N, 2) array (inclusive edges)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (
            (pts[:, 0] >= self.x_min)
            & (pts[:, 0] <= self.x_max)
            & (pts[:, 1] >= self.y_min)
            & (pts[:, 1] <= self.y_max)
        )

    def sample_uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        xs = rng.uniform(self.x_min, self.x_max, size=n)
        ys = rng.uniform(self.y_min, self.y_max, size=n)
        return np.column_stack([xs, ys])


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of the hotspot (Thomas) cluster process.

    ``lambda_p`` is the parent density per m^2, ``sigma`` the standard
    deviation (meters) of the isotropic Gaussian offspring displacement, and
    ``mean_offspring`` the mean number of offspring per parent.  The implied
    deployment density of the hotspot tier is ``lambda_p * mean_offspring``.
    """

    lambda_p: float
    sigma: float
    mean_offspring: float = 5.0

    def __post_init__(self) -> None:
        if self.lambda_p <= 0:
            raise ValueError(f"lambda_p must be positive, got {self.lambda_p}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.mean_offspring <= 0:
            raise ValueError(
                f"mean_offspring must be positive, got {self.mean_offspring}"
            )

    @property
    def implied_density(self) -> float:
        return self.lambda_p * self.mean_offspring


def sample_ppp(region: Region, density: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one realization of a homogeneous PPP over ``region``: an
    ``(N, 2)`` array.

    The count is Poisson(density * area) and positions are i.i.d. uniform,
    which together are an exact PPP sampler on a rectangle.
    """
    if density <= 0:
        raise ValueError(f"density must be positive, got {density}")
    n = int(rng.poisson(density * region.area))
    return region.sample_uniform(n, rng)


def sample_tcp(
    region: Region,
    cfg: ClusterConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one Thomas-cluster realization: ``(parents, offspring,
    parent_index)``.

    Parents form a PPP(``cfg.lambda_p``) inside ``region``.  Each parent
    spawns a Poisson(``cfg.mean_offspring``) number of children, displaced by
    i.i.d. N(0, sigma^2 I); ``parent_index[i]`` is the row of ``parents``
    that spawned offspring ``i``.  Children falling outside the region are
    kept: clipping would distort the radial displacement law, and downstream
    geometry needs true positions.
    """
    parents = sample_ppp(region, cfg.lambda_p, rng)
    counts = rng.poisson(cfg.mean_offspring, size=len(parents))
    parent_index = np.repeat(np.arange(len(parents)), counts)
    offsets = cfg.sigma * rng.standard_normal((len(parent_index), 2))
    return parents, parents[parent_index] + offsets, parent_index
