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


#: Rounding allowance of a grid search, in ulps of the largest coordinate.
_GRID_ULPS = 32.0 * np.finfo(float).eps

#: Point sets no larger than this are one cell: scanning every point costs
#: less than a block of cells and its certification (the two cross between
#: 64 and 96 points at 2 000 queries).
_ONE_CELL = 64

#: Candidate slots a grid scan holds at once; a larger query batch is split.
_SCAN_SLOTS = 1 << 13


class GridIndex:
    """Exact nearest-point queries against a fixed non-empty ``(n, 2)``
    point set, through a uniform grid of about one point per cell (Bentley,
    Weide & Yao, ACM TOMS 1980).

    The cell side comes from the points' bounding box and count, so the grid
    has at most ``3 n + 1`` cells whatever the spread; a set of at most
    `_ONE_CELL` points is one cell.  A query scans the 3 x 3 block of cells
    around its own, then blocks of twice the reach only while a point
    outside could still be nearer.  Distances are ``sqrt(dx*dx + dy*dy)``
    with ``dx = qx - px``, as ``scipy.spatial.cKDTree`` computes them; equal
    distances go to the lowest index.
    """

    def __init__(self, xy) -> None:
        xy = np.asarray(xy, dtype=float)
        self.n = n = len(xy)
        x, y = xy[:, 0], xy[:, 1]
        self._x0, self._y0 = x0, y0 = float(x.min()), float(y.min())
        width, height = float(x.max()) - x0, float(y.max()) - y0
        # ~n cells over the box; a thin box gets a strip of at most n + 1.
        side = max(math.sqrt(width) * math.sqrt(height / n), max(width, height) / n)
        if n <= _ONE_CELL or not side > 0.0:
            side = 2.0 * max(width, height) or 1.0
        self._side = side
        self._last_col, self._last_row = math.floor(width / side), math.floor(height / side)
        self._cols = self._last_col + 1
        self.cells = self._cols * (self._last_row + 1)
        flat = self._cell(y, y0, self._last_row) * self._cols + self._cell(x, x0, self._last_col)
        order = np.argsort(flat)
        # Cell-sorted points, then a sentinel at infinity that no query picks.
        self._px = np.append(x[order], np.inf)
        self._py = np.append(y[order], np.inf)
        self._idx = np.append(order, n)
        self._start = np.zeros(self.cells + 1, dtype=np.intp)
        np.cumsum(np.bincount(flat, minlength=self.cells), out=self._start[1:])
        self._tol = _GRID_ULPS * max(abs(x0), abs(y0), abs(x0 + width), abs(y0 + height))

    def _cell(self, v: np.ndarray, v0: float, last: int) -> np.ndarray:
        """Grid column (or row) of each coordinate ``v``, clipped into the grid."""
        t = (v - v0) / self._side
        return np.minimum(np.maximum(t, 0.0, out=t), last, out=t).astype(np.intp)

    def query(self, xy) -> tuple:
        """``(distance, index)`` of the nearest point to each row of ``xy``
        (shape ``(k, 2)``)."""
        xy = np.asarray(xy, dtype=float)
        qx, qy = xy[:, 0].copy(), xy[:, 1].copy()
        d2, idx = np.empty(len(xy)), np.empty(len(xy), dtype=np.intp)
        col, row = self._cell(qx, self._x0, self._last_col), self._cell(qy, self._y0, self._last_row)
        todo, reach = np.arange(len(xy)), 1
        while len(todo):
            x, y, c, r = qx[todo], qy[todo], col[todo], row[todo]
            c0, c1 = np.maximum(c - reach, 0), np.minimum(c + reach, self._last_col)
            r0, r1 = np.maximum(r - reach, 0), np.minimum(r + reach, self._last_row)
            # Each row of a block is one run of the cell-sorted points.  The
            # runs are padded to the longest; a padding slot reads the points
            # past its run, or the sentinel, so the least distance still
            # covers the block and is never below the true nearest.
            rows = np.minimum(r0 + np.arange((r1 - r0).max() + 1)[:, None], r1) * self._cols
            begin = self._start[rows + c0]
            count = self._start[rows + c1 + 1] - begin

            def runs(part):
                pos = begin[:, None, part] + np.arange(max(int(count[:, part].max()), 1))[:, None]
                return np.minimum(pos, self.n, out=pos).reshape(-1, pos.shape[2])

            best, idx[todo] = self._nearest(x, y, len(rows) * max(int(count.max()), 1), runs)
            d2[todo] = best
            # A point outside the block lies beyond the nearest block edge
            # that has grid cells past it, give or take the rounding of the
            # edges and of the binning: a few ulps of the largest coordinate.
            gap = np.minimum.reduce([
                np.where(c0 > 0, x - (self._x0 + c0 * self._side), np.inf),
                np.where(c1 < self._last_col, self._x0 + (c1 + 1) * self._side - x, np.inf),
                np.where(r0 > 0, y - (self._y0 + r0 * self._side), np.inf),
                np.where(r1 < self._last_row, self._y0 + (r1 + 1) * self._side - y, np.inf),
            ])
            gap -= self._tol + _GRID_ULPS * np.maximum(np.abs(x), np.abs(y))
            todo = todo[(gap < np.inf) & ~(best < gap * np.abs(gap) * (1.0 - 1e-9))]
            reach *= 2
        return np.sqrt(d2), idx

    def _nearest(self, x, y, slots: int, candidates) -> tuple:
        """Least squared distance from each query ``(x, y)`` to the sorted
        points at ``candidates(part)`` (at most ``slots`` rows, a column per
        query of the slice ``part``), and the lowest index at that distance.
        The queries go in parts of at most `_SCAN_SLOTS` candidates."""
        best, arg = np.empty(len(x)), np.empty(len(x), dtype=np.intp)
        step = max(1, _SCAN_SLOTS // slots)
        for lo in range(0, len(x), step):
            part = slice(lo, lo + step)
            pos = candidates(part)
            dx = x[part] - self._px[pos]
            dy = y[part] - self._py[pos]
            dx *= dx
            dy *= dy
            dx += dy
            best[part] = low = dx.min(axis=0)
            arg[part] = np.where(dx == low, self._idx[pos], self.n).min(axis=0)
        return best, arg
