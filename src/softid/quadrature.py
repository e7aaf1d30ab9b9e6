"""Gauss-Legendre rules and tensor-product volume integration.

The 1-D rules are numpy's ``leggauss`` (Golub & Welsch, Math. Comp. 1969),
whose nodes and weights are exactly symmetric.  Every volume integral in the
dynamics runs over a reference domain in the stress-free material
coordinates: a box, a solid cylinder, a truncated cone, or a user-mapped box.
Curved domains integrate in cylindrical coordinates (r, phi, z) with the
exact Jacobian r, so polynomial integrands of the body maps are integrated
exactly at moderate orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

Array = np.ndarray

MIN_ORDER = 1
MAX_ORDER = 64
DEFAULT_ORDER = 8


@dataclass(frozen=True)
class QuadratureRule1D:
    """Gauss-Legendre nodes/weights on [-1, 1]."""

    order: int
    nodes: Array
    weights: Array

    def mapped(self, a: float, b: float) -> tuple[Array, Array]:
        """Nodes and weights mapped to the interval [a, b]."""
        half = 0.5 * (b - a)
        return a + half * (self.nodes + 1.0), half * self.weights


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule1D:
    """Gauss-Legendre rule of the given order (number of nodes).

    Exact for polynomials up to degree 2*order - 1.
    """
    if not MIN_ORDER <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in [{MIN_ORDER}, {MAX_ORDER}], got {order}")
    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule1D(order, nodes, weights)


def _orders3(order) -> tuple[int, int, int]:
    if np.isscalar(order):
        return (int(order),) * 3
    order = tuple(int(o) for o in order)
    if len(order) != 3:
        raise ValueError("per-axis order must have three entries")
    return order


@dataclass(frozen=True)
class ReferenceDomain:
    """3-D integration domain in material coordinates.

    kind
        One of ``box``, ``cylinder``, ``truncated_cone``, ``mapped_box``.
    params
        Geometric parameters in meters (see the factory constructors).

    Bodies extend along x3: cylinders/cones occupy x3 in [0, length] with the
    cross-section centered on the x3 axis; boxes are given by center and
    half-extents.
    """

    kind: str
    params: dict = field(default_factory=dict)

    @staticmethod
    def box(half_extents, center=(0.0, 0.0, 0.0)) -> "ReferenceDomain":
        half = np.asarray(half_extents, dtype=float)
        if half.shape != (3,) or np.any(half <= 0):
            raise ValueError("box half-extents must be three positive numbers")
        return ReferenceDomain("box", {"half": half, "center": np.asarray(center, dtype=float)})

    @staticmethod
    def cylinder(radius: float, length: float) -> "ReferenceDomain":
        if radius <= 0 or length <= 0:
            raise ValueError("cylinder radius and length must be positive")
        return ReferenceDomain("cylinder", {"radius": float(radius), "length": float(length)})

    @staticmethod
    def truncated_cone(base_radius: float, tip_radius: float, length: float) -> "ReferenceDomain":
        if base_radius <= 0 or tip_radius <= 0 or length <= 0:
            raise ValueError("cone radii and length must be positive")
        return ReferenceDomain(
            "truncated_cone",
            {"base_radius": float(base_radius), "tip_radius": float(tip_radius), "length": float(length)},
        )

    @staticmethod
    def mapped_box(half_extents, coord_map, jacobian_det, center=(0.0, 0.0, 0.0)) -> "ReferenceDomain":
        """Box domain pushed through ``coord_map`` with analytic ``jacobian_det``.

        ``coord_map(points (m,3)) -> (m,3)`` and ``jacobian_det(points (m,3)) -> (m,)``
        evaluated at the box points; the determinant must stay positive.
        """
        base = ReferenceDomain.box(half_extents, center)
        return ReferenceDomain(
            "mapped_box",
            {**base.params, "coord_map": coord_map, "jacobian_det": jacobian_det},
        )

    @property
    def length_scale(self) -> float:
        p = self.params
        if self.kind in ("box", "mapped_box"):
            return float(2.0 * np.max(p["half"]))
        if self.kind == "cylinder":
            return max(p["radius"], p["length"])
        return max(p["base_radius"], p["tip_radius"], p["length"])

    def nodes(self, order=DEFAULT_ORDER) -> tuple[Array, Array]:
        """Material-coordinate quadrature points (m, 3) and weights (m,).

        Weights include the coordinate-map Jacobian, so ``w @ f(points)``
        approximates the volume integral of ``f``.
        """
        o1, o2, o3 = _orders3(order)
        p = self.params
        if self.kind in ("box", "mapped_box"):
            half, center = p["half"], p["center"]
            axes, wts = [], []
            for k, o in enumerate((o1, o2, o3)):
                x, w = gauss_legendre(o).mapped(center[k] - half[k], center[k] + half[k])
                axes.append(x)
                wts.append(w)
            g = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([a.ravel() for a in g], axis=1)
            w = (wts[0][:, None, None] * wts[1][None, :, None] * wts[2][None, None, :]).ravel()
            if self.kind == "mapped_box":
                det = np.asarray(p["jacobian_det"](pts), dtype=float)
                if np.any(det <= 0):
                    raise ValueError("mapped_box jacobian determinant must be positive")
                w = w * det
                pts = np.asarray(p["coord_map"](pts), dtype=float)
            return pts, w
        # cylinder / truncated cone in cylindrical coordinates, jacobian r
        length = p["length"]
        r1, wr = gauss_legendre(o1).mapped(0.0, 1.0)  # unit radial coordinate
        phi, wphi = gauss_legendre(o2).mapped(0.0, 2.0 * np.pi)
        z, wz = gauss_legendre(o3).mapped(0.0, length)
        if self.kind == "cylinder":
            rad_of_z = np.full_like(z, p["radius"])
        else:
            rad_of_z = p["base_radius"] + (p["tip_radius"] - p["base_radius"]) * z / length
        # grid in (r1, phi, z); physical radius r = r1 * rad_of_z
        R1, PHI, Z = np.meshgrid(r1, phi, z, indexing="ij")
        RAD = np.broadcast_to(rad_of_z, Z.shape)
        R = R1 * RAD
        pts = np.stack([(R * np.cos(PHI)).ravel(), (R * np.sin(PHI)).ravel(), Z.ravel()], axis=1)
        w3 = (
            wr[:, None, None]
            * wphi[None, :, None]
            * wz[None, None, :]
            * R
            * RAD  # dr = rad_of_z * dr1
        )
        return pts, w3.ravel()

    def volume(self, order=DEFAULT_ORDER) -> float:
        _, w = self.nodes(order)
        return float(np.sum(w))

    def analytic_volume(self) -> float:
        p = self.params
        if self.kind == "box":
            return float(8.0 * np.prod(p["half"]))
        if self.kind == "cylinder":
            return float(np.pi * p["radius"] ** 2 * p["length"])
        if self.kind == "truncated_cone":
            rb, rt = p["base_radius"], p["tip_radius"]
            return float(np.pi * p["length"] * (rb * rb + rb * rt + rt * rt) / 3.0)
        raise ValueError(f"no analytic volume for domain kind {self.kind!r}")


def integrate_volume(domain: ReferenceDomain, integrand, order=DEFAULT_ORDER) -> Array:
    """Tensor-product Gauss-Legendre estimate of the volume integral of ``integrand``.

    ``integrand`` maps points (m, 3) to values (m,) or (m, k); the result has
    shape () or (k,).  Raises if the integrand is non-finite at any node,
    naming the offending node.
    """
    pts, w = domain.nodes(order)
    vals = np.asarray(integrand(pts), dtype=float)
    if vals.shape[0] != pts.shape[0]:
        raise ValueError("integrand must return one value (or row) per node")
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = int(np.flatnonzero(bad.reshape(vals.shape[0], -1).any(axis=1))[0])
        raise ValueError(
            f"integrand is non-finite at node {idx}, x = {np.array2string(pts[idx], precision=6)}"
        )
    return w @ vals
