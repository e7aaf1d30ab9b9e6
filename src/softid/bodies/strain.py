"""Slender-body models built from strain parameterizations of a rod.

A strain basis maps arclength s in [0, L0] and configuration q to the local
strain 6-vector (kappa_x, kappa_y, kappa_z, sigma_x, sigma_y, lambda): two
bending curvatures, torsion, two shears, and the axial stretch.  The body
frame evolves along the backbone as

    R'(s) = R(s) skew(kappa(s)),   c'(s) = R(s) (sigma_x, sigma_y, lambda),

with R(0) = I, c(0) = 0, and cross-sections map rigidly:
f(x, q) = c(x3) + R(x3) (x1, x2, 0).

Constant-strain bases (PCC, PCS) use the closed-form solution of the frame
ODE, g(s) = exp(s xi); s-varying bases (PAC, PGC) compose fourth-order
Magnus steps on SE(3), so frames stay on SO(3) to rounding.  Both
differentiate the discrete map exactly for the configuration Jacobians.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from ..quadrature import DEFAULT_ORDER, ReferenceDomain
from ..spatial import cross
from .base import BodyModel

Array = np.ndarray

BACKBONE_STEPS = 64
# Gauss points of the fourth-order Magnus step, as fractions of the step
_GAUSS_2 = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])


# -- smooth scalar kernels of the rotation exponential ----------------------

# Below _SERIES_SWITCH the kernels are Taylor series in t^2 (13 terms reach
# double precision at the switch); above it the closed forms no longer cancel.
# Every kernel is accurate to a few ulps for all t.
_SERIES_SWITCH = 2.0
_SERIES_POWERS = np.arange(13)
_SERIES = np.array([
    [(-1.0) ** j / factorial(2 * j + 1) for j in _SERIES_POWERS],
    [(-1.0) ** j / factorial(2 * j + 2) for j in _SERIES_POWERS],
    [(-1.0) ** j / factorial(2 * j + 3) for j in _SERIES_POWERS],
    [(-1.0) ** (j + 1) * (2 * j + 2) / factorial(2 * j + 4) for j in _SERIES_POWERS],
    [(-1.0) ** (j + 1) * (2 * j + 2) / factorial(2 * j + 5) for j in _SERIES_POWERS],
])


def _so3_kernels(t) -> Array:
    """Even kernels of the SO(3) exponential at angles t (k,), stacked (5, k).

    Rows: alpha = sin(t)/t, beta = (1 - cos t)/t^2, gamma = (t - sin t)/t^3,
    beta'(t)/t and gamma'(t)/t.
    """
    t = np.abs(np.asarray(t, dtype=float))
    small = t < _SERIES_SWITCH
    if small.all():
        return _SERIES @ (t[None, :] ** (2 * _SERIES_POWERS[:, None]))
    out = np.empty((5,) + t.shape)
    if small.any():
        out[:, small] = _SERIES @ (t[small][None, :] ** (2 * _SERIES_POWERS[:, None]))
    b = t[~small]
    sn = np.sin(b)
    omc = 2.0 * np.sin(0.5 * b) ** 2  # 1 - cos(b) without cancellation
    out[:, ~small] = np.stack([
        sn / b,
        omc / b**2,
        (b - sn) / b**3,
        (b * sn - 2.0 * omc) / b**4,
        (b * omc - 3.0 * (b - sn)) / b**5,
    ])
    return out


# skew(v) = (v @ _SKEW_BASIS) reshaped to 3 x 3
_SKEW_BASIS = np.array([
    [0, 0, 0, 0, 0, -1, 0, 1, 0],
    [0, 0, 1, 0, 0, 0, -1, 0, 0],
    [0, -1, 0, 1, 0, 0, 0, 0, 0],
], dtype=float)


def _skew_batch(v: Array) -> Array:
    """Skew matrices for vectors on the last axis: (..., 3) -> (..., 3, 3)."""
    return (v @ _SKEW_BASIS).reshape(v.shape[:-1] + (3, 3))


def _se3_exp(w: Array, v: Array, d: Array):
    """Exponential of the twists (w, v) and its derivatives along d.

    w, v are (k, 3) angular and linear parts; d (k, n, 6) holds one twist
    direction (angular, linear) per coordinate.  The rotation is
    exp(w) = I + alpha W + beta W^2 and the translation J_l(w) v, with the
    left Jacobian J_l = I + beta W + gamma W^2; d exp(w) = skew(J_l dw) exp(w).
    Returns (R (k,3,3), p (k,3), dR (k,3,3,n), dp (k,3,n)).
    """
    kern = _so3_kernels(np.linalg.norm(w, axis=1))
    alpha, beta, gamma, dbeta, dgamma = kern[:, :, None, None]
    W = _skew_batch(w)
    W2 = W @ W
    V = _skew_batch(v)
    WV = W @ V
    eye = np.eye(3)[None]
    R = eye + alpha * W + beta * W2
    Jl = eye + beta * W + gamma * W2
    Wv = (W @ v[..., None])[..., 0]
    W2v = (W @ Wv[..., None])[..., 0]
    _, b_v, g_v, db_v, dg_v = kern[:, :, None]
    p = v + b_v * Wv + g_v * W2v
    # d J_l[dw] v = (w.dw) u - B dw, with the rank-one part u = beta'/t W v +
    # gamma'/t W^2 v, and B from dw x v = -V dw and skew(W v) = WV - VW
    u = db_v * Wv + dg_v * W2v
    B = beta * V + gamma * (2.0 * WV - V @ W)
    A = np.concatenate([u[:, :, None] * w[:, None, :] - B, Jl], axis=2)  # (k, 3, 6)
    dp = d @ np.swapaxes(A, 1, 2)
    dR = _skew_batch(d[..., :3] @ np.swapaxes(Jl, 1, 2)) @ R[:, None]
    return R, p, np.moveaxis(dR, 1, -1), np.moveaxis(dp, 1, -1)


def _se3_bracket(a: Array, b: Array) -> Array:
    """Lie bracket of twists (angular, linear) on the last axis."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., :3] = cross(a[..., :3], b[..., :3])
    out[..., 3:] = cross(a[..., :3], b[..., 3:]) - cross(b[..., :3], a[..., 3:])
    return out


# -- strain bases ------------------------------------------------------------

_STRAIN_OFFSET = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])


class StrainBasis:
    """Affine strain parameterization: strains(s, q) = Phi(s) q + offset.

    Phi stacks rows in strain order (kappa_x, kappa_y, kappa_z, sigma_x,
    sigma_y, lambda); the offset puts the stress-free configuration at q = 0.
    """

    def __init__(self, n_dof: int, matrix_fn, matrix_ds_fn, constant: bool, name: str):
        self.n_dof = n_dof
        self._matrix_fn = matrix_fn
        self._matrix_ds_fn = matrix_ds_fn
        self.is_constant = constant
        self.name = name

    def matrix(self, s: Array) -> Array:
        """Phi(s) for s (k,) -> (k, 6, n_dof)."""
        return self._matrix_fn(np.asarray(s, dtype=float))

    def matrix_ds(self, s: Array) -> Array:
        """dPhi/ds, same shape as :meth:`matrix`."""
        return self._matrix_ds_fn(np.asarray(s, dtype=float))

    def strains(self, s: Array, q: Array) -> Array:
        return self.matrix(s) @ q + _STRAIN_OFFSET

    def strains_ds(self, s: Array, q: Array) -> Array:
        return self.matrix_ds(s) @ q


def _const_basis(rows: Array, name: str) -> StrainBasis:
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]

    def mat(s):
        return np.broadcast_to(rows, (s.shape[0], 6, n)).copy()

    def mat_ds(s):
        return np.zeros((s.shape[0], 6, n))

    return StrainBasis(n, mat, mat_ds, constant=True, name=name)


def pcc_basis(length: float, planar: bool = False, elongation: bool = True) -> StrainBasis:
    """Constant curvature, optionally with elongation; q = (kx*L0, ky*L0[, dL]).

    ``planar`` keeps only the first curvature coordinate (the model used by
    the scaling benchmark); ``elongation=False`` drops the axial coordinate,
    which this stress law leaves unrestrained at zero curvature.
    """
    if planar:
        rows = np.zeros((6, 1))
        rows[0, 0] = 1.0 / length
        return _const_basis(rows, "pcc_planar")
    rows = np.zeros((6, 3 if elongation else 2))
    rows[0, 0] = 1.0 / length
    rows[1, 1] = 1.0 / length
    if elongation:
        rows[5, 2] = 1.0 / length
    return _const_basis(rows, "pcc" if elongation else "pcc_bend")


def pcs_basis(length: float) -> StrainBasis:
    """Constant strain on all six components; q scaled by 1/L0."""
    return _const_basis(np.eye(6) / length, "pcs")


def pac_basis(length: float) -> StrainBasis:
    """Affine curvature: kx = (-q3 - (s/L0) q4)/L0, ky = (q1 + (s/L0) q2)/L0."""

    def mat(s):
        k = s.shape[0]
        out = np.zeros((k, 6, 4))
        out[:, 0, 2] = -1.0 / length
        out[:, 0, 3] = -s / length**2
        out[:, 1, 0] = 1.0 / length
        out[:, 1, 1] = s / length**2
        return out

    def mat_ds(s):
        k = s.shape[0]
        out = np.zeros((k, 6, 4))
        out[:, 0, 3] = -1.0 / length**2
        out[:, 1, 1] = 1.0 / length**2
        return out

    return StrainBasis(4, mat, mat_ds, constant=False, name="pac")


def pgc_basis(length: float) -> StrainBasis:
    """Gaussian-modulated curvature with elongation (5 dof).

    kx = (-q3 - G(s) q4)/L0, ky = (q1 + G(s) q2)/L0, dL = q5/L0, with
    G(s) = exp(-(s - L0/2)^2), so G = 1 at mid-length.
    """

    def gauss(s):
        return np.exp(-((s - length / 2.0) ** 2))

    def mat(s):
        k = s.shape[0]
        g = gauss(s)
        out = np.zeros((k, 6, 5))
        out[:, 0, 2] = -1.0 / length
        out[:, 0, 3] = -g / length
        out[:, 1, 0] = 1.0 / length
        out[:, 1, 1] = g / length
        out[:, 5, 4] = 1.0 / length
        return out

    def mat_ds(s):
        k = s.shape[0]
        dg = gauss(s) * (-2.0 * (s - length / 2.0))
        out = np.zeros((k, 6, 5))
        out[:, 0, 3] = -dg / length
        out[:, 1, 1] = dg / length
        return out

    return StrainBasis(5, mat, mat_ds, constant=False, name="pgc")


# -- rod body ----------------------------------------------------------------

class CosseratRodBody(BodyModel):
    """Rod whose cross-sections ride rigidly on a strain-parameterized backbone."""

    def __init__(
        self,
        basis: StrainBasis,
        length: float,
        domain: ReferenceDomain,
        rho: float,
        elastic_modulus: float | None = None,
        viscosity: float | None = None,
        quadrature_order=DEFAULT_ORDER,
        backbone_steps: int = BACKBONE_STEPS,
    ):
        self.basis = basis
        self.length = float(length)
        self.domain = domain
        self.rho = float(rho)
        self.elastic_modulus = elastic_modulus
        self.viscosity = viscosity
        self.quadrature_order = quadrature_order
        self.backbone_steps = int(backbone_steps)

    @property
    def n_dof(self) -> int:
        return self.basis.n_dof

    # -- frame solution ------------------------------------------------------

    def _frames_closed_form(self, s: Array, q: Array):
        """Constant strain: the frame at s is exp(s xi), one exponential per point."""
        phi = self.basis.matrix(np.zeros(1))[0]  # (6, n), constant
        xi = phi @ q + _STRAIN_OFFSET
        return _se3_exp(s[:, None] * xi[None, :3], s[:, None] * xi[None, 3:],
                        s[:, None, None] * phi.T[None])

    def _frames_magnus(self, s_sorted: Array, q: Array):
        """s-varying strain: fourth-order Magnus steps on SE(3).

        The frame at s composes the whole steps (``backbone_steps`` per rod
        length) below s and one partial step up to s, so it depends on s
        alone.  A step of width h maps g to g exp(Omega), Omega = h/2 (xi_1 +
        xi_2) + sqrt(3) h^2/12 [xi_1, xi_2], xi_1 and xi_2 the strains at the
        step's two Gauss points, so every frame is a product of exact
        rotations.  Omega is quadratic in q, and the q-Jacobians are the exact
        derivatives of this discrete map.  All step exponentials are one
        vectorized call; only the whole steps compose in sequence.
        """
        n = self.n_dof
        h_whole = self.length / self.backbone_steps
        whole = np.floor(s_sorted / h_whole).astype(int)
        count = int(whole.max(initial=0))
        # the whole steps, then one partial step per target (width 0 on a step boundary)
        h = np.concatenate([np.full(count, h_whole), s_sorted - whole * h_whole])
        starts = np.concatenate([h_whole * np.arange(count), whole * h_whole])
        s_g = (starts[:, None] + h[:, None] * _GAUSS_2).reshape(-1)
        phi = self.basis.matrix(s_g).reshape(h.shape[0], 2, 6, n)
        xi = phi @ q + _STRAIN_OFFSET  # (steps, 2, 6)
        phi_t = np.swapaxes(phi, 2, 3)  # (steps, 2, n, 6)
        c2 = (np.sqrt(3.0) / 12.0) * h**2
        omega = (0.5 * h[:, None] * (xi[:, 0] + xi[:, 1])
                 + c2[:, None] * _se3_bracket(xi[:, 0], xi[:, 1]))
        d_omega = (0.5 * h[:, None, None] * (phi_t[:, 0] + phi_t[:, 1])
                   + c2[:, None, None] * (_se3_bracket(phi_t[:, 0], xi[:, None, 1])
                                          + _se3_bracket(xi[:, None, 0], phi_t[:, 1])))
        R_s, p_s, dR_s, dp_s = _se3_exp(omega[:, :3], omega[:, 3:], d_omega)
        # homogeneous step transforms and their q-derivatives (n leading)
        G = np.zeros((h.shape[0], 4, 4))
        G[:, :3, :3] = R_s
        G[:, :3, 3] = p_s
        G[:, 3, 3] = 1.0
        dG = np.zeros((h.shape[0], n, 4, 4))
        dG[:, :, :3, :3] = np.moveaxis(dR_s, -1, 1)
        dG[:, :, :3, 3] = np.moveaxis(dp_s, -1, 1)
        T = np.zeros((count + 1, 4, 4))
        dT = np.zeros((count + 1, n, 4, 4))
        T[0] = np.eye(4)
        for m in range(count):
            T[m + 1] = T[m] @ G[m]
            dT[m + 1] = dT[m] @ G[m] + T[m] @ dG[m]
        T, dT = T[whole] @ G[count:], dT[whole] @ G[count:, None] + T[whole][:, None] @ dG[count:]
        return (T[:, :3, :3], T[:, :3, 3],
                np.moveaxis(dT[:, :, :3, :3], 1, -1), np.moveaxis(dT[:, :, :3, 3], 1, -1))

    def solve(self, x, q):
        """Backbone frames and their q-Jacobians at the arclengths x3 of x.

        One frame solve over the distinct arclengths, spread back to the
        points: (R (m,3,3), c (m,3), dR (m,3,3,n), dc (m,3,n)).
        """
        q = self.check_q(q)
        s_unique, inv = np.unique(np.asarray(x, dtype=float)[:, 2], return_inverse=True)
        if s_unique.size and (s_unique[0] < -1e-12 or s_unique[-1] > self.length + 1e-9):
            raise ValueError("material x3 outside [0, L0]")
        s_unique = np.clip(s_unique, 0.0, self.length)
        frames = self._frames_closed_form if self.basis.is_constant else self._frames_magnus
        R, c, dR, dc = frames(s_unique, q)
        return R[inv], c[inv], dR[inv], dc[inv]

    # -- kinematic map ---------------------------------------------------------

    def cross_section(self, x: Array, q: Array) -> Array:
        """In-plane part of the material point carried by the backbone frame."""
        u = np.array(x, dtype=float)
        u[:, 2] = 0.0
        return u

    def cross_section_jac_q(self, x: Array, q: Array) -> Array | None:
        """dq-Jacobian of :meth:`cross_section`; None when independent of q."""
        return None

    def position(self, x, q, sol=None):
        x = np.asarray(x, dtype=float)
        q = self.check_q(q)
        R, c, _, _ = self.solve(x, q) if sol is None else sol
        return c + np.einsum("kab,kb->ka", R, self.cross_section(x, q))

    def jac_q(self, x, q, sol=None):
        x = np.asarray(x, dtype=float)
        q = self.check_q(q)
        R, _, dR, dc = self.solve(x, q) if sol is None else sol
        u = self.cross_section(x, q)
        out = dc + np.einsum("kabj,kb->kaj", dR, u)
        du = self.cross_section_jac_q(x, q)
        if du is not None:
            out = out + np.einsum("kab,kbj->kaj", R, du)
        return out

    def jac_x(self, x, q, sol=None):
        x = np.asarray(x, dtype=float)
        q = self.check_q(q)
        R, _, _, _ = self.solve(x, q) if sol is None else sol
        s = x[:, 2]
        xi = self.basis.strains(s, q)
        u = self.cross_section(x, q)
        # f' along s: R (sigma + kappa x u); transverse: R e1, R e2
        tangent = xi[:, 3:] + cross(xi[:, :3], u)
        out = np.empty((x.shape[0], 3, 3))
        out[:, :, 0] = R[:, :, 0]
        out[:, :, 1] = R[:, :, 1]
        out[:, :, 2] = np.einsum("kab,kb->ka", R, tangent)
        return out

    def jac_x_dq(self, x, q, sol=None):
        x = np.asarray(x, dtype=float)
        q = self.check_q(q)
        R, _, dR, _ = self.solve(x, q) if sol is None else sol
        s = x[:, 2]
        xi = self.basis.strains(s, q)
        phi = self.basis.matrix(s)  # (m, 6, n)
        u = self.cross_section(x, q)
        tangent = xi[:, 3:] + cross(xi[:, :3], u)
        d_tangent = phi[:, 3:] + cross(np.swapaxes(phi[:, :3], 1, 2), u[:, None, :]).transpose(0, 2, 1)
        out = np.empty((x.shape[0], 3, 3, self.n_dof))
        out[:, :, 0] = dR[:, :, 0]
        out[:, :, 1] = dR[:, :, 1]
        out[:, :, 2] = np.einsum("kabj,kb->kaj", dR, tangent) + R @ d_tangent
        return out

    def hess_x(self, x, q, sol=None):
        x = np.asarray(x, dtype=float)
        q = self.check_q(q)
        R, _, _, _ = self.solve(x, q) if sol is None else sol
        s = x[:, 2]
        xi = self.basis.strains(s, q)
        dxi = self.basis.strains_ds(s, q)
        kap, sig = xi[:, :3], xi[:, 3:]
        u = self.cross_section(x, q)
        out = np.zeros((x.shape[0], 3, 3, 3))
        d13 = np.einsum("kab,kb->ka", R, cross(kap, np.broadcast_to([1.0, 0, 0], kap.shape)))
        d23 = np.einsum("kab,kb->ka", R, cross(kap, np.broadcast_to([0, 1.0, 0], kap.shape)))
        d33 = np.einsum(
            "kab,kb->ka",
            R,
            cross(kap, sig + cross(kap, u)) + dxi[:, 3:] + cross(dxi[:, :3], u),
        )
        out[:, :, 0, 2] = out[:, :, 2, 0] = d13
        out[:, :, 1, 2] = out[:, :, 2, 1] = d23
        out[:, :, 2, 2] = d33
        return out


class VariableRadiusPccBody(CosseratRodBody):
    """Planar PCC rod with two pneumatic radial dofs.

    q = (kappa*L0, dL, a1, a2): the first two follow the planar PCC strain
    map with elongation; a1/a2 scale a bump-shaped radial change of the
    cross-section on the phi in [0, pi) and [pi, 2 pi) halves.  The bump
    vanishes at the end faces, so the contact areas stay rigid.
    """

    def __init__(self, length, radius, domain, rho, elastic_modulus=None, viscosity=None,
                 quadrature_order=DEFAULT_ORDER):
        rows = np.zeros((6, 4))
        rows[0, 0] = 1.0 / length
        rows[5, 1] = 1.0 / length
        basis = _const_basis(rows, "pcc_radial")
        super().__init__(basis, length, domain, rho, elastic_modulus, viscosity, quadrature_order)
        self.radius = float(radius)

    def bump(self, s: Array, phi: Array) -> Array:
        """Separable bump with open support s in (0, L0), phi in (0, pi)."""
        L = self.length
        us = L * L / 4.0 - (s - L / 2.0) ** 2
        up = np.pi**2 / 4.0 - (phi - np.pi / 2.0) ** 2
        inside = (us > 0) & (up > 0)
        out = np.zeros_like(s)
        with np.errstate(divide="ignore", over="ignore"):
            vals = np.exp(-L / np.where(inside, us, 1.0)) * np.exp(-1.0 / np.where(inside, up, 1.0))
        out[inside] = vals[inside]
        return out

    def _radial_gain(self, x: Array) -> Array:
        """Per-point weights (m, 2) multiplying (a1, a2) in delta_R."""
        s = x[:, 2]
        phi = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * np.pi)
        lower = phi < np.pi
        g = np.zeros((x.shape[0], 2))
        g[lower, 0] = self.bump(s[lower], phi[lower])
        g[~lower, 1] = self.bump(s[~lower], phi[~lower] - np.pi)
        return g

    def cross_section(self, x, q):
        g = self._radial_gain(x)
        fac = 1.0 + (g @ q[2:]) / self.radius
        u = np.array(x, dtype=float)
        u[:, :2] *= fac[:, None]
        u[:, 2] = 0.0
        return u

    def cross_section_jac_q(self, x, q):
        g = self._radial_gain(x)
        du = np.zeros((x.shape[0], 3, self.n_dof))
        du[:, 0, 2:] = x[:, 0, None] * g / self.radius
        du[:, 1, 2:] = x[:, 1, None] * g / self.radius
        return du

    def jac_x(self, x, q, sol=None):
        # radial gain varies with x; fall back to differences of the position map
        return BodyModel.jac_x(self, np.asarray(x, dtype=float), self.check_q(q))

    def jac_x_dq(self, x, q, sol=None):
        return BodyModel.jac_x_dq(self, x, q)

    def hess_x(self, x, q, sol=None):
        return BodyModel.hess_x(self, x, q)
