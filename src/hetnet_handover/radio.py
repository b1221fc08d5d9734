"""Received-signal-strength model and the circular boundary approximation.

Association and handover decisions are driven by the long-term downlink RSS

    RSS_i(r) = B_i * P_i * G_i * C_i * r^(-alpha_i)

(all factors linear; ``C_i`` is the path-gain intercept at 1 m).  Between a
serving BS i (placed at the origin of the pair frame) and a target BS j at
position X, the locus RSS_i = RSS_j is a circle exactly when
``alpha_i == alpha_j`` (the classical Apollonius circle) and is approximated
by a circle otherwise.  With

    xi      = (B_j P_j G_j C_j / (B_i P_i G_i C_i))^(2/alpha_j)
    lam     = |X|^(2 (alpha_i/alpha_j - 1))        # power-law flattening factor
    u       = lam * xi

the approximating circle is

    center = X / (1 - u),      radius = sqrt(u) * |X| / |1 - u|.

``u == 1`` means the boundary degenerates to the perpendicular bisector (no
circle exists) and is treated as a hard error.  ``u > 1`` (target effectively
stronger than serving) yields a circle that encloses the *serving* BS; the
``encloses_serving`` flag records that orientation.

`erb_pair_arrays` builds the circles of many pairs at once, as the simulator
needs them; `make_erb_pair` gives the closed forms the boundary factors of
one pair.

The handover-failure boundary is the same construction with
``xi_f = xi * q_out^(2/alpha_j)`` for the outage offset ``q_out < 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: |1 - lam*xi| below this is treated as the degenerate (bisector) case.
DEGENERACY_TOL = 1e-12


class DegenerateBoundaryError(ValueError):
    """The equal-RSS locus is a straight line, not a circle (lam * xi == 1)."""


_DEGENERATE_MESSAGE = (
    "equal-RSS boundary is a perpendicular bisector (lam*xi == 1); "
    "no circular approximation exists"
)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return db_to_linear(dbm - 30.0)


@dataclass(frozen=True)
class TierRadioParams:
    """Per-tier radio constants.

    ``tx_power`` is in dBm, ``antenna_gain`` in dBi, ``bias`` in dB;
    ``pathloss_intercept`` is the *linear* path gain at 1 m and
    ``pathloss_exponent`` the power-law exponent.  The dB quantities are
    converted to linear exactly once, when the instance is created, and the
    combined prefactor ``B*P*G*C`` is cached for RSS evaluation.
    """

    tx_power: float
    antenna_gain: float
    bias: float
    pathloss_intercept: float
    pathloss_exponent: float
    linear_prefactor: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.pathloss_exponent <= 2:
            raise ValueError(
                f"pathloss_exponent must exceed 2, got {self.pathloss_exponent}"
            )
        if self.pathloss_intercept <= 0:
            raise ValueError(
                f"pathloss_intercept must be positive, got {self.pathloss_intercept}"
            )
        prefactor = (
            db_to_linear(self.bias)
            * dbm_to_watts(self.tx_power)
            * db_to_linear(self.antenna_gain)
            * self.pathloss_intercept
        )
        object.__setattr__(self, "linear_prefactor", prefactor)


def xi_factor(serving: TierRadioParams, target: TierRadioParams) -> float:
    """Power-ratio factor of the (serving, target) pair.

    ``(B_t P_t G_t C_t / (B_s P_s G_s C_s)) ** (2 / alpha_target)`` — the
    exponent always uses the *target* tier's path-loss exponent.
    """
    ratio = target.linear_prefactor / serving.linear_prefactor
    return ratio ** (2.0 / target.pathloss_exponent)


def xi_failure_factor(
    xi: float, q_out_linear: float, target_alpha: float
) -> float:
    """Failure-boundary analogue: ``xi * q_out ** (2 / alpha_target)``."""
    if q_out_linear <= 0:
        raise ValueError(f"q_out must be a positive linear ratio, got {q_out_linear}")
    return xi * q_out_linear ** (2.0 / target_alpha)


def lambda_star_array(tx: np.ndarray, ty: np.ndarray, alpha_ratio: float) -> np.ndarray:
    """Distance-dependent flattening factor ``(x^2 + y^2)^(alpha_ratio - 1)``
    for many targets at ``(tx, ty)`` (meters, serving-BS frames).

    ``alpha_ratio`` is alpha_serving / alpha_target; equal exponents give 1
    for every target position.
    """
    r2 = tx * tx + ty * ty
    if np.any(r2 == 0.0):
        raise ValueError("target must not sit on the serving BS (origin)")
    return r2 ** (alpha_ratio - 1.0)


class CircleArrays(NamedTuple):
    """Boundary circles of many pairs, centres in their serving-BS frames.

    Entries flagged ``degenerate`` (``|1 - lam*xi| < DEGENERACY_TOL``) have
    no circle and hold meaningless values.
    """

    cx: np.ndarray
    cy: np.ndarray
    radius: np.ndarray
    degenerate: np.ndarray
    encloses_serving: np.ndarray


def erb_circle_arrays(
    tx: np.ndarray, ty: np.ndarray, norm: np.ndarray, xi: float, lam_star: np.ndarray
) -> CircleArrays:
    """The circular boundary approximation for targets at ``(tx, ty)``,
    whose norm ``np.hypot(tx, ty)`` is ``norm``.

    ``center = X / (1 - u)`` and ``radius = sqrt(u) |X| / |1 - u|`` with
    ``u = lam_star * xi``.  This is the one implementation of the formula.
    """
    u = lam_star * xi
    denom = 1.0 - u
    degenerate, encloses_serving = _boundary_flags(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        return CircleArrays(
            cx=tx / denom,
            cy=ty / denom,
            radius=np.sqrt(u) * norm / np.abs(denom),
            degenerate=degenerate,
            encloses_serving=encloses_serving,
        )


def _boundary_flags(u):
    """``(degenerate, encloses_serving)`` of the boundary with
    ``u = lam_star * xi``, for Python floats and NumPy arrays alike."""
    return abs(1.0 - u) < DEGENERACY_TOL, u > 1.0


@dataclass(frozen=True)
class ErbPair:
    """The boundary factors of one (serving, target) pair, as Python floats,
    and ``encloses_serving``, the orientation of the handover circle: what
    the closed forms read.  The circles themselves are built by
    :func:`erb_pair_arrays`.
    """

    xi: float
    xi_f: float
    lam_star: float
    encloses_serving: bool

    @property
    def lam_xi(self) -> float:
        return self.lam_star * self.xi

    @property
    def lam_xi_f(self) -> float:
        return self.lam_star * self.xi_f


def erb_pair_arrays(
    serving: TierRadioParams,
    target: TierRadioParams,
    tx: np.ndarray,
    ty: np.ndarray,
    q_out_linear: float,
) -> tuple:
    """``(handover circles, failure circles)`` for targets at ``(tx, ty)``,
    each in its serving-BS frame."""
    xi = xi_factor(serving, target)
    xi_f = xi_failure_factor(xi, q_out_linear, target.pathloss_exponent)
    lam = lambda_star_array(
        tx, ty, serving.pathloss_exponent / target.pathloss_exponent
    )
    norm = np.hypot(tx, ty)
    return (
        erb_circle_arrays(tx, ty, norm, xi, lam),
        erb_circle_arrays(tx, ty, norm, xi_f, lam),
    )


def make_erb_pair(
    serving: TierRadioParams,
    target: TierRadioParams,
    target_position: np.ndarray,
    q_out_linear: float,
) -> ErbPair:
    """The boundary factors for a target BS at ``target_position``
    (serving-BS frame).

    Raises :class:`DegenerateBoundaryError` when either boundary is a
    bisector.  Everything but ``lam_star`` is computed in Python floats:
    ``lam_star`` keeps the NumPy array power of :func:`lambda_star_array`,
    which the simulator's circles use too.
    """
    t = np.asarray(target_position, dtype=float)
    xi = xi_factor(serving, target)
    xi_f = xi_failure_factor(xi, q_out_linear, target.pathloss_exponent)
    ratio = serving.pathloss_exponent / target.pathloss_exponent
    lam = float(lambda_star_array(t[:1], t[1:2], ratio)[0])
    degenerate, encloses_serving = _boundary_flags(lam * xi)
    if degenerate or _boundary_flags(lam * xi_f)[0]:
        raise DegenerateBoundaryError(_DEGENERATE_MESSAGE)
    return ErbPair(xi=xi, xi_f=xi_f, lam_star=lam, encloses_serving=encloses_serving)
