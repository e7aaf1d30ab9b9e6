"""Locally volume-preserving deformation primitives and their compositions.

Each primitive is a map h(y, q) with det(dh/dy) = 1 identically, built from
triangular or area-preserving blocks, so compositions preserve volume exactly.
A body's kinematics is the composition of its primitives applied in list
order (first entry innermost); primitives share the body configuration
vector through explicit per-primitive index maps.

The modal weights follow the bending/stretch/twist/shear table of the
trimmed-helicoid robot: stretch rate (x3/L)(1 - x3/L), affine bending
curvature (qa + qb x3)/L, linear twist and shear profiles (x3/L) q, and a
quadratic source profile (x3/L)^2 q for cavity inflation.
"""

from __future__ import annotations

import numpy as np

from ..errors import BodyDomainError
from ..quadrature import DEFAULT_ORDER, ReferenceDomain, gauss_legendre
from .base import BodyModel

Array = np.ndarray

_BACKBONE_GL = 24


class LvpPrimitive:
    """One elementary volume-preserving deformation.

    ``indices`` selects this primitive's coefficients from the body
    configuration vector.
    """

    n_coeffs = 1

    def __init__(self, length: float, indices):
        self.length = float(length)
        self.indices = tuple(int(i) for i in indices)
        if len(self.indices) != self.n_coeffs:
            raise ValueError(
                f"{type(self).__name__} takes {self.n_coeffs} coefficient indices, got {len(self.indices)}"
            )

    def coeffs(self, q: Array) -> Array:
        return np.asarray(q, dtype=float)[list(self.indices)]

    def apply(self, y: Array, q: Array) -> Array:
        raise NotImplementedError

    def jac_x(self, y: Array, q: Array) -> Array:
        raise NotImplementedError

    def jac_coeffs(self, y: Array, q: Array) -> Array:
        """Derivative w.r.t. own coefficients, shape (m, 3, n_coeffs)."""
        raise NotImplementedError


class StretchPrimitive(LvpPrimitive):
    """Axial stretch with rate profile 1 + a (x3/L)(1 - x3/L).

    Cross-sections shrink by the inverse square root of the local rate, so
    the map is exactly unimodular; the rate profile vanishes at both end
    faces, which therefore move rigidly.
    """

    n_coeffs = 1

    def _parts(self, y, a):
        L = self.length
        z = y[:, 2]
        w = (z / L) * (1.0 - z / L)
        W = z * z / (2.0 * L) - z**3 / (3.0 * L * L)
        rate = 1.0 + a * w
        if np.any(rate <= 0):
            raise BodyDomainError("stretch coefficient drives the axial rate non-positive")
        return z, w, W, rate

    def apply(self, y, q):
        (a,) = self.coeffs(q)
        _, _, W, rate = self._parts(y, a)
        out = np.empty_like(y)
        scale = rate**-0.5
        out[:, 0] = y[:, 0] * scale
        out[:, 1] = y[:, 1] * scale
        out[:, 2] = y[:, 2] + a * W
        return out

    def jac_x(self, y, q):
        (a,) = self.coeffs(q)
        z, _, _, rate = self._parts(y, a)
        L = self.length
        dw = (1.0 - 2.0 * z / L) / L
        scale = rate**-0.5
        dscale = -0.5 * rate**-1.5 * a * dw
        m = y.shape[0]
        out = np.zeros((m, 3, 3))
        out[:, 0, 0] = scale
        out[:, 1, 1] = scale
        out[:, 0, 2] = y[:, 0] * dscale
        out[:, 1, 2] = y[:, 1] * dscale
        out[:, 2, 2] = rate
        return out

    def jac_coeffs(self, y, q):
        (a,) = self.coeffs(q)
        _, w, W, rate = self._parts(y, a)
        ds = -0.5 * rate**-1.5 * w
        out = np.empty((y.shape[0], 3, 1))
        out[:, 0, 0] = y[:, 0] * ds
        out[:, 1, 0] = y[:, 1] * ds
        out[:, 2, 0] = W
        return out


class BendPrimitive(LvpPrimitive):
    """Planar bending with affine curvature (qa + qb x3)/L.

    Cross-section lines rotate with the backbone tangent while an implicit
    radial reparameterization g - kappa g^2 / 2 = x_r keeps the in-plane
    area element exactly unit.  ``plane`` = 1 bends the x3 axis toward x1,
    ``plane`` = 2 toward x2.  The reparameterization has a real root only
    where 2 kappa x_r < 1, with x_r the coordinate after the preceding
    primitives; beyond that fold the map does not exist and raises
    :class:`~softid.errors.BodyDomainError`.
    """

    n_coeffs = 2

    def __init__(self, length, indices, plane: int = 1):
        super().__init__(length, indices)
        if plane not in (1, 2):
            raise ValueError("bending plane must be 1 or 2")
        self.plane = plane

    def _psi(self, z, qa, qb):
        return (qa * z + 0.5 * qb * z * z) / self.length

    def _backbone(self, z, qa, qb, dpsi=None):
        """Integrals of (sin, cos) psi from 0 to each z; optionally their q-derivatives."""
        rule = gauss_legendre(_BACKBONE_GL)
        xi = 0.5 * (rule.nodes + 1.0)  # [0, 1]
        wgt = 0.5 * rule.weights
        sig = z[:, None] * xi[None, :]
        psi = self._psi(sig, qa, qb)
        sn, cs = np.sin(psi), np.cos(psi)
        bx = z * (sn @ wgt)
        bz = z * (cs @ wgt)
        if dpsi is None:
            return bx, bz
        # dpsi: callable sigma -> dpsi/dq at sigma, vectorized
        dp = dpsi(sig)
        dbx = z * ((cs * dp) @ wgt)
        dbz = z * ((-sn * dp) @ wgt)
        return bx, bz, dbx, dbz

    def _g(self, xr, kappa):
        u = 2.0 * kappa * xr
        if np.any(u >= 1.0):
            # g - kappa g^2 / 2 = x_r has no real root: no map exists here
            raise BodyDomainError("bending curvature too large for the section width "
                                  "(needs 2 kappa x_r < 1)")
        small = np.abs(u) < 1e-8
        safe_k = np.where(small | (kappa == 0.0), 1.0, kappa)
        g_full = (1.0 - np.sqrt(1.0 - u)) / safe_k
        g_series = xr * (1.0 + 0.5 * kappa * xr + 0.5 * (kappa * xr) ** 2)
        return np.where(small, g_series, g_full)

    def _fields(self, y, q):
        qa, qb = self.coeffs(q)
        z = y[:, 2]
        xr = y[:, self.plane - 1]
        kappa = (qa + qb * z) / self.length
        psi = self._psi(z, qa, qb)
        g = self._g(xr, kappa)
        denom = 1.0 - kappa * g
        return z, xr, kappa, psi, g, denom, qa, qb

    def apply(self, y, q):
        z, xr, kappa, psi, g, denom, qa, qb = self._fields(y, q)
        bx, bz = self._backbone(z, qa, qb)
        out = np.array(y, dtype=float)
        out[:, self.plane - 1] = bx + g * np.cos(psi)
        out[:, 2] = bz - g * np.sin(psi)
        return out

    def jac_x(self, y, q):
        z, xr, kappa, psi, g, denom, qa, qb = self._fields(y, q)
        sn, cs = np.sin(psi), np.cos(psi)
        g_xr = 1.0 / denom
        g_z = (g * g / (2.0 * denom)) * (qb / self.length)
        m = y.shape[0]
        out = np.zeros((m, 3, 3))
        r = self.plane - 1
        o = 1 - r  # untouched transverse axis
        out[:, o, o] = 1.0
        out[:, r, r] = g_xr * cs
        out[:, 2, r] = -g_xr * sn
        out[:, r, 2] = sn + g_z * cs - g * kappa * sn
        out[:, 2, 2] = cs - g_z * sn - g * kappa * cs
        return out

    def jac_coeffs(self, y, q):
        z, xr, kappa, psi, g, denom, qa, qb = self._fields(y, q)
        sn, cs = np.sin(psi), np.cos(psi)
        L = self.length
        out = np.empty((y.shape[0], 3, 2))
        for j, dpsi_fn, dkap in (
            (0, lambda sig: sig / L, 1.0 / L),
            (1, lambda sig: 0.5 * sig * sig / L, z / L),
        ):
            bx, bz, dbx, dbz = self._backbone(z, qa, qb, dpsi=dpsi_fn)
            dpsi = dpsi_fn(z)
            dg = (g * g / (2.0 * denom)) * dkap
            out[:, self.plane - 1, j] = dbx + dg * cs - g * sn * dpsi
            out[:, 2, j] = dbz - dg * sn - g * cs * dpsi
            out[:, 1 - (self.plane - 1), j] = 0.0
        return out


class TwistPrimitive(LvpPrimitive):
    """Rotation of cross-sections about x3 by angle (x3/L) q."""

    n_coeffs = 1

    def apply(self, y, q):
        (a,) = self.coeffs(q)
        th = a * y[:, 2] / self.length
        cs, sn = np.cos(th), np.sin(th)
        out = np.empty_like(y)
        out[:, 0] = cs * y[:, 0] - sn * y[:, 1]
        out[:, 1] = sn * y[:, 0] + cs * y[:, 1]
        out[:, 2] = y[:, 2]
        return out

    def jac_x(self, y, q):
        (a,) = self.coeffs(q)
        th = a * y[:, 2] / self.length
        dth = a / self.length
        cs, sn = np.cos(th), np.sin(th)
        m = y.shape[0]
        out = np.zeros((m, 3, 3))
        out[:, 0, 0] = cs
        out[:, 0, 1] = -sn
        out[:, 1, 0] = sn
        out[:, 1, 1] = cs
        out[:, 0, 2] = dth * (-sn * y[:, 0] - cs * y[:, 1])
        out[:, 1, 2] = dth * (cs * y[:, 0] - sn * y[:, 1])
        out[:, 2, 2] = 1.0
        return out

    def jac_coeffs(self, y, q):
        (a,) = self.coeffs(q)
        zn = y[:, 2] / self.length
        th = a * zn
        cs, sn = np.cos(th), np.sin(th)
        out = np.empty((y.shape[0], 3, 1))
        out[:, 0, 0] = zn * (-sn * y[:, 0] - cs * y[:, 1])
        out[:, 1, 0] = zn * (cs * y[:, 0] - sn * y[:, 1])
        out[:, 2, 0] = 0.0
        return out


class ShearPrimitive(LvpPrimitive):
    """Transverse translation of cross-sections with profile (x3/L) q."""

    n_coeffs = 1

    def __init__(self, length, indices, axis: int = 1):
        super().__init__(length, indices)
        if axis not in (1, 2):
            raise ValueError("shear axis must be 1 or 2")
        self.axis = axis

    def apply(self, y, q):
        (a,) = self.coeffs(q)
        out = np.array(y, dtype=float)
        out[:, self.axis - 1] += a * y[:, 2] / self.length
        return out

    def jac_x(self, y, q):
        (a,) = self.coeffs(q)
        m = y.shape[0]
        out = np.broadcast_to(np.eye(3), (m, 3, 3)).copy()
        out[:, self.axis - 1, 2] = a / self.length
        return out

    def jac_coeffs(self, y, q):
        out = np.zeros((y.shape[0], 3, 1))
        out[:, self.axis - 1, 0] = y[:, 2] / self.length
        return out


class SourcePrimitive(LvpPrimitive):
    """Radial cavity inflation: r -> sqrt(r^2 + (x3/L)^2 q).

    Area-preserving in every cross-section; the map is singular on the axis,
    so it suits hollow or off-axis integration domains (gripper-like last
    bodies).
    """

    n_coeffs = 1

    def _parts(self, y, a):
        r2 = y[:, 0] ** 2 + y[:, 1] ** 2
        prof = (y[:, 2] / self.length) ** 2
        r2_new = r2 + a * prof
        if np.any(r2 <= 0):
            raise ValueError("source primitive needs off-axis points")
        if np.any(r2_new <= 0):
            raise BodyDomainError("source coefficient collapses the cavity: needs r^2 + a (x3/L)^2 > 0")
        return r2, prof, np.sqrt(r2), np.sqrt(r2_new)

    def apply(self, y, q):
        (a,) = self.coeffs(q)
        r2, prof, r, rn = self._parts(y, a)
        out = np.array(y, dtype=float)
        out[:, :2] *= (rn / r)[:, None]
        return out

    def jac_x(self, y, q):
        (a,) = self.coeffs(q)
        r2, prof, r, rn = self._parts(y, a)
        rho = rn / r
        # d(rho)/dr * 1/r, with r dr = x1 dx1 + x2 dx2
        drho_rr = (r / rn - rho) / r2
        dprof = 2.0 * y[:, 2] / self.length**2
        m = y.shape[0]
        out = np.zeros((m, 3, 3))
        for i in range(2):
            for j in range(2):
                out[:, i, j] = (i == j) * rho + y[:, i] * y[:, j] * drho_rr
            out[:, i, 2] = y[:, i] * a * dprof / (2.0 * rn * r)
        out[:, 2, 2] = 1.0
        return out

    def jac_coeffs(self, y, q):
        (a,) = self.coeffs(q)
        r2, prof, r, rn = self._parts(y, a)
        out = np.zeros((y.shape[0], 3, 1))
        out[:, 0, 0] = y[:, 0] * prof / (2.0 * rn * r)
        out[:, 1, 0] = y[:, 1] * prof / (2.0 * rn * r)
        return out


PRIMITIVE_KINDS = {
    "stretch_compression": StretchPrimitive,
    "planar_bending_x1": lambda L, idx: BendPrimitive(L, idx, plane=1),
    "planar_bending_x2": lambda L, idx: BendPrimitive(L, idx, plane=2),
    "twist": TwistPrimitive,
    "shear_x1": lambda L, idx: ShearPrimitive(L, idx, axis=1),
    "shear_x2": lambda L, idx: ShearPrimitive(L, idx, axis=2),
    "source": SourcePrimitive,
}


class LvpBody(BodyModel):
    """Body whose kinematics composes LVP primitives in list order."""

    def __init__(
        self,
        primitives: list[LvpPrimitive],
        n_dof: int,
        domain: ReferenceDomain,
        rho: float,
        elastic_modulus: float | None = None,
        viscosity: float | None = None,
        quadrature_order=DEFAULT_ORDER,
    ):
        used = [i for p in primitives for i in p.indices]
        if used and (min(used) < 0 or max(used) >= n_dof):
            raise ValueError("primitive coefficient indices exceed the body dof count")
        self.primitives = list(primitives)
        self.n_dof = int(n_dof)
        self.domain = domain
        self.rho = float(rho)
        self.elastic_modulus = elastic_modulus
        self.viscosity = viscosity
        self.quadrature_order = quadrature_order

    def position(self, x, q, sol=None):
        y = np.asarray(x, dtype=float)
        q = self.check_q(q)
        for p in self.primitives:
            y = p.apply(y, q)
        return y

    def jac_x(self, x, q, sol=None):
        y = np.asarray(x, dtype=float)
        q = self.check_q(q)
        m = y.shape[0]
        total = np.broadcast_to(np.eye(3), (m, 3, 3)).copy()
        for p in self.primitives:
            total = p.jac_x(y, q) @ total
            y = p.apply(y, q)
        return total

    def jac_q(self, x, q, sol=None):
        y = np.asarray(x, dtype=float)
        q = self.check_q(q)
        m = y.shape[0]
        total = np.zeros((m, 3, self.n_dof))
        for p in self.primitives:
            fp = p.jac_x(y, q)
            total = np.einsum("mab,mbj->maj", fp, total)
            own = p.jac_coeffs(y, q)
            for col, idx in enumerate(p.indices):
                total[:, :, idx] += own[:, :, col]
            y = p.apply(y, q)
        return total
