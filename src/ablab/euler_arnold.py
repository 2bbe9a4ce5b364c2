"""Exact algebra of the affine group of the line.

The group is the 2x2 matrices [[a, b], [0, 1]] with a > 0; its Lie algebra
is spanned by [[1, 0], [0, 0]] and [[0, 1], [0, 0]] with the Euclidean
pairing, which identifies the algebra with its dual.  With the identity
inertia operator, the geodesic (angular-momentum) equation on the dual
algebra coincides, after the coordinate swap x = M2, y = -M1, with the
planar conservative system (dx, dy) = (-x*y, x^2).  Everything here is
closed-form; verification is by exact identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class GroupElement:
    """The matrix [[a, b], [0, 1]], a > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError("a must be positive")


@dataclass(frozen=True)
class AlgebraElement:
    """The matrix [[xi1, xi2], [0, 0]], or a covector of the dual.

    The pairing is Euclidean, (xi, eta) = xi1*eta1 + xi2*eta2, which is
    what identifies the algebra with its dual.
    """

    xi1: float
    xi2: float


class MomentumState(NamedTuple):
    """Angular momentum in the body; maps to the plane by (x, y) = (m2, -m1)."""

    m1: float
    m2: float


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """Matrix product g @ h."""
    return GroupElement(g.a * h.a, g.a * h.b + g.b)


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(1.0 / g.a, -g.b / g.a)


def pair(xi: AlgebraElement, eta: AlgebraElement) -> float:
    return xi.xi1 * eta.xi1 + xi.xi2 * eta.xi2


def ad_g(g: GroupElement, eta: AlgebraElement) -> AlgebraElement:
    """Adjoint action g eta g^{-1} = (eta1, -b*eta1 + a*eta2)."""
    return AlgebraElement(eta.xi1, -g.b * eta.xi1 + g.a * eta.xi2)


def coad_g(g: GroupElement, xi: AlgebraElement) -> AlgebraElement:
    """Coadjoint action, the pairing dual of ad_g: (xi1 - b*xi2, a*xi2)."""
    return AlgebraElement(xi.xi1 - g.b * xi.xi2, g.a * xi.xi2)


def bracket(xi: AlgebraElement, eta: AlgebraElement) -> AlgebraElement:
    """Lie bracket [xi, eta] = (0, xi1*eta2 - xi2*eta1)."""
    return AlgebraElement(0.0, xi.xi1 * eta.xi2 - xi.xi2 * eta.xi1)


def coadjoint_bracket(xi: AlgebraElement,
                      zeta: AlgebraElement) -> AlgebraElement:
    """{xi, zeta} = (-xi2*zeta2, xi1*zeta2), dual to the bracket:
    ({xi, zeta}, eta) = (zeta, [xi, eta])."""
    return AlgebraElement(-xi.xi2 * zeta.xi2, xi.xi1 * zeta.xi2)


def euler_arnold_rhs(m: MomentumState) -> MomentumState:
    """dM/dt = {M, M} = (-m2^2, m1*m2) for the identity inertia operator."""
    return MomentumState(-m.m2 * m.m2, m.m1 * m.m2)


def momentum_to_plane(m: MomentumState) -> tuple[float, float]:
    return (m.m2, -m.m1)
