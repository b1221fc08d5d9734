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
circle exists).  ``u > 1`` (target effectively stronger than serving) yields a
circle that encloses the *serving* BS, so the target area is not its interior.

The handover-failure boundary is the same construction with
``u_f = lam * xi_f``, ``xi_f = xi * q_out^(2/alpha_j)`` for the outage offset
``q_out < 1``.

`boundary_factors` is the one computation of ``u`` and ``u_f``, for many
targets at once, and `boundary_domain` the one rule that sets a pair aside
(degenerate or enclosing) before either route uses it: the simulator builds
`erb_circle_arrays` only for the pairs it keeps, and `make_erb_pair` gives
the closed forms ``(u, u_f)`` of one pair as Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: |1 - u| below this is treated as the degenerate (bisector) case.
DEGENERACY_TOL = 1e-12


class DegenerateBoundaryError(ValueError):
    """The equal-RSS locus is a straight line, not a circle (lam * xi == 1)."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


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
        try:
            prefactor = (
                db_to_linear(self.bias)
                * db_to_linear(self.tx_power - 30.0)
                * db_to_linear(self.antenna_gain)
                * self.pathloss_intercept
            )
        except OverflowError:
            prefactor = math.inf
        if not 0.0 < prefactor < math.inf:
            raise ValueError(
                "the linear prefactor of tx_power, antenna_gain, bias and "
                f"pathloss_intercept must be positive and finite, got {prefactor}"
            )
        object.__setattr__(self, "linear_prefactor", prefactor)


def boundary_factors(
    serving: TierRadioParams,
    target: TierRadioParams,
    tx: np.ndarray,
    ty: np.ndarray,
    q_out_linear: float,
) -> tuple:
    """``(u, u_f)``: the handover and failure boundary factors
    ``lam * xi`` and ``lam * xi_f`` of targets at ``(tx, ty)`` (meters,
    serving-BS frames), as arrays.

    ``xi`` is the prefactor ratio to the power ``2 / alpha_target``,
    ``xi_f = xi * q_out ** (2 / alpha_target)``, and the flattening factor
    ``lam = (x^2 + y^2) ** (alpha_serving / alpha_target - 1)`` is 1 for
    equal exponents.  This is the one computation of the three factors.
    """
    if q_out_linear <= 0:
        raise ValueError(f"q_out must be a positive linear ratio, got {q_out_linear}")
    r2 = tx * tx + ty * ty
    if np.any(r2 == 0.0):
        raise ValueError("target must not sit on the serving BS (origin)")
    power = 2.0 / target.pathloss_exponent
    xi = (target.linear_prefactor / serving.linear_prefactor) ** power
    xi_f = xi * q_out_linear ** power
    lam = r2 ** (serving.pathloss_exponent / target.pathloss_exponent - 1.0)
    return lam * xi, lam * xi_f


def boundary_domain(u, u_f) -> tuple:
    """``(degenerate, encloses)`` of the boundaries of factors ``u`` and
    ``u_f`` (floats or arrays): the one rule that sets a pair aside.

    A pair is ``degenerate`` where either boundary is a bisector
    (``|1 - u| < DEGENERACY_TOL``); otherwise it ``encloses`` the serving BS
    where either factor exceeds 1.  Neither kind has a circle around the
    target.
    """
    degenerate = (abs(1.0 - u) < DEGENERACY_TOL) | (abs(1.0 - u_f) < DEGENERACY_TOL)
    # ``^ True`` negates a bool and a bool array alike.
    return degenerate, (degenerate ^ True) & ((u > 1.0) | (u_f > 1.0))


class CircleArrays(NamedTuple):
    """Boundary circles of many pairs, centres in their serving-BS frames."""

    cx: np.ndarray
    cy: np.ndarray
    radius: np.ndarray


def erb_circle_arrays(
    tx: np.ndarray, ty: np.ndarray, norm: np.ndarray, u: np.ndarray
) -> CircleArrays:
    """The circular boundary approximation for targets at ``(tx, ty)``,
    whose norm ``np.hypot(tx, ty)`` is ``norm``, with boundary factors ``u``
    that are not degenerate.

    ``center = X / (1 - u)`` and ``radius = sqrt(u) |X| / |1 - u|``.  This
    is the one implementation of the formula.
    """
    denom = 1.0 - u
    return CircleArrays(tx / denom, ty / denom, np.sqrt(u) * norm / np.abs(denom))


def make_erb_pair(
    serving: TierRadioParams,
    target: TierRadioParams,
    target_position: np.ndarray,
    q_out_linear: float,
) -> tuple:
    """``(u, u_f)`` of :func:`boundary_factors` for one target BS at
    ``target_position`` (serving-BS frame), as Python floats: what the
    closed forms read.

    Raises :class:`DegenerateBoundaryError` where `boundary_domain` finds
    the pair degenerate.
    """
    t = np.asarray(target_position, dtype=float)
    u, u_f = boundary_factors(serving, target, t[:1], t[1:2], q_out_linear)
    u, u_f = float(u[0]), float(u_f[0])
    if boundary_domain(u, u_f)[0]:
        raise DegenerateBoundaryError(
            "equal-RSS boundary is a perpendicular bisector (lam*xi == 1); "
            "no circular approximation exists"
        )
    return u, u_f
