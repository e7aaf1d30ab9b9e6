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
differentiate the discrete map exactly for the configuration Jacobians,
and the solve at the velocities gives their time rates exactly, in the same
pass: the second directional derivatives of each exponential, composed
along s by the product rule for the Magnus steps (Renda et al., IEEE T-RO
2018; Boyer et al., IEEE T-RO 2021), plus the rate of the variable-radius
rod's cross-section, which is affine in q.

A solve serves a stack of configurations q (b, n): the closed form takes one
exponential over all b x k (row, arclength) twists, the Magnus rods one
exponential over every step of every row and compose the steps with the row
axis carried along.  Every operation either acts elementwise or on one
row's own small matrices, so a row's frames do not depend on the others.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from ..quadrature import DEFAULT_ORDER, ReferenceDomain
from ..spatial import cross, matvec, matvec3
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
_SERIES = np.array([
    [(-1.0) ** j / factorial(2 * j + 1) for j in range(13)],
    [(-1.0) ** j / factorial(2 * j + 2) for j in range(13)],
    [(-1.0) ** j / factorial(2 * j + 3) for j in range(13)],
    [(-1.0) ** (j + 1) * (2 * j + 2) / factorial(2 * j + 4) for j in range(13)],
    [(-1.0) ** (j + 1) * (2 * j + 2) / factorial(2 * j + 5) for j in range(13)],
    [(-1.0) ** j * (2 * j + 2) * (2 * j + 4) / factorial(2 * j + 6) for j in range(13)],
    [(-1.0) ** j * (2 * j + 2) * (2 * j + 4) / factorial(2 * j + 7) for j in range(13)],
])
# the coefficients of even and odd powers, zero-padded to 16 terms: (2, 8, 7, 1)
_SERIES_PAIRS = np.concatenate([_SERIES.T, np.zeros((3, 7))]).reshape(8, 2, 7, 1).swapaxes(0, 1)


def _series(t: Array) -> Array:
    """The kernels' Taylor series at angles t (k,), (7, k), by Estrin's
    scheme in t^2: elementwise, so each angle's value depends on that angle
    alone (a matrix product sums in an order that depends on k)."""
    x = t * t
    out = _SERIES_PAIRS[0] + _SERIES_PAIRS[1] * x
    while out.shape[0] > 1:
        x = x * x
        out = out[0::2] + out[1::2] * x
    return out[0]


def _so3_kernels(t) -> Array:
    """Even kernels of the SO(3) exponential at angles t (k,), stacked (7, k).

    Rows: alpha = sin(t)/t, beta = (1 - cos t)/t^2, gamma = (t - sin t)/t^3,
    beta'(t)/t, gamma'(t)/t, and the second derivatives' (beta'/t)'/t and
    (gamma'/t)'/t.
    """
    t = np.abs(np.asarray(t, dtype=float))
    small = t < _SERIES_SWITCH
    if small.all():
        return _series(t)
    out = np.empty((7,) + t.shape)
    if small.any():
        out[:, small] = _series(t[small])
    b = t[~small]
    sn = np.sin(b)
    omc = 2.0 * np.sin(0.5 * b) ** 2  # 1 - cos(b) without cancellation
    out[:, ~small] = np.stack([
        sn / b,
        omc / b**2,
        (b - sn) / b**3,
        (b * sn - 2.0 * omc) / b**4,
        (b * omc - 3.0 * (b - sn)) / b**5,
        (b * b * np.cos(b) - 5.0 * b * sn + 8.0 * omc) / b**6,
        (b * b * sn - 7.0 * b * omc + 15.0 * (b - sn)) / b**7,
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


def _se3_exp(w: Array, v: Array, d: Array, e: Array | None = None, d_dot: Array | None = None):
    """Exponential of the twists (w, v) and its derivatives along d; with the
    twist's rates e (k, 6) also theirs: the second directional derivatives
    along (d, e), plus the first along the directions' own rates d_dot.

    w, v are (k, 3) angular and linear parts; d (k, n, 6) holds one twist
    direction (angular, linear) per coordinate.  The rotation is
    exp(w) = I + alpha W + beta W^2 and the translation J_l(w) v, with the
    left Jacobian J_l = I + beta W + gamma W^2; d exp(w) = skew(J_l dw) exp(w).
    With dJ_l[c] = (w.c)(beta'/t W + gamma'/t W^2) + beta C + gamma (C W +
    W C), C = skew(c), the rates along (a, b) are (skew(dJ_l[e_w] a) +
    skew(J_l a) skew(J_l e_w)) R and d2J_l[a, e_w] v + dJ_l[a] e_v +
    dJ_l[e_w] b, whose first two terms are L a, one 3 x 3 matrix L per twist
    (a x x = -skew(x) a, (w.a) g = g w^T a).  Returns (R (k,3,3), p (k,3),
    dR (k,n,3,3), dp (k,n,3)) and with e (dR_dot, dp_dot), shaped as dR, dp.
    """
    kern = _so3_kernels(np.sqrt((w * w).sum(1)))
    alpha, beta, gamma = kern[:3, :, None, None]
    W = _skew_batch(w)
    W2 = W @ W
    V = _skew_batch(v)
    WV = W @ V
    eye = np.eye(3)[None]
    R = eye + alpha * W + beta * W2
    Jl = eye + beta * W + gamma * W2
    Wv = (W @ v[..., None])[..., 0]
    W2v = (W @ Wv[..., None])[..., 0]
    _, b_v, g_v, db_v, dg_v = kern[:5, :, None]
    p = v + b_v * Wv + g_v * W2v
    # d J_l[dw] v = (w.dw) u - B dw, with the rank-one part u = beta'/t W v +
    # gamma'/t W^2 v, and B from dw x v = -V dw and skew(W v) = WV - VW
    u = db_v * Wv + dg_v * W2v
    B = beta * V + gamma * (2.0 * WV - V @ W)
    A = np.concatenate([u[:, :, None] * w[:, None, :] - B, Jl], axis=2)  # (k, 3, 6)
    dp = d @ np.swapaxes(A, 1, 2)
    JlT = np.swapaxes(Jl, 1, 2)
    dR = _skew_batch(d[..., :3] @ JlT) @ R[:, None]
    if e is None:
        return R, p, dR, dp
    db, dg, ddb, ddg = kern[3:, :, None, None]
    ew, ev = e[:, :3], e[:, 3:]
    E, Ev = _skew_batch(ew), _skew_batch(ev)
    we = (w * ew).sum(1)[:, None, None]
    Me = we * (db * W + dg * W2) + beta * E + gamma * (E @ W + W @ E)  # dJ_l[e_w]
    # column vectors (k, 3, 1): W v, W^2 v, e x v and their kin
    Wv, W2v = Wv[..., None], W2v[..., None]
    exv, Wev = E @ v[..., None], W @ ev[..., None]
    h = db * Wv + dg * W2v
    g = we * (ddb * Wv + ddg * W2v) + db * (exv + Wev) + dg * (E @ Wv + W @ exv + W @ Wev)
    EV, WEv = E @ V, W @ Ev
    L = (g * w[:, None] + h * ew[:, None] - we * (db * V + dg * (2.0 * WV - V @ W))
         - gamma * (2.0 * EV - V @ E) - beta * Ev - gamma * (2.0 * WEv - Ev @ W))
    a, b = d[..., :3], d[..., 3:]
    dp_dot = a @ L.swapaxes(1, 2) + b @ Me.swapaxes(1, 2)
    Ja, G, Je = a @ JlT, a @ Me.swapaxes(1, 2), (Jl @ ew[..., None])[:, None]  # Je (k, 1, 3, 1)
    dR_dot = (_skew_batch(G) + Je * Ja[..., None, :] - (Ja[..., None, :] @ Je) * np.eye(3)) @ R[:, None]
    if d_dot is not None:  # the first derivatives along the directions' own rates
        dp_dot += d_dot @ np.swapaxes(A, 1, 2)
        dR_dot += _skew_batch(d_dot[..., :3] @ JlT) @ R[:, None]
    return R, p, dR, dp, dR_dot, dp_dot


def _se3_ad(a: Array) -> Array:
    """The matrices ad(a) (..., 6, 6) of the Lie brackets [a, b] = ad(a) b of the twists a (angular,
    linear) on the last axis: [[skew(a_w), 0], [skew(a_v), skew(a_w)]]."""
    S = _skew_batch(a.reshape(a.shape[:-1] + (2, 3)))
    out = np.zeros(a.shape[:-1] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = S[..., 0, :, :]
    out[..., 3:, :3] = S[..., 1, :, :]
    return out


def _along(dX: Array, qd: Array) -> Array:
    """The rates sum_j qd[r, j] dX[r, :, j] (b, k, ...) of dX (b, k, n, ...), one BLAS product per row."""
    b, k, n = dX.shape[:3]
    return (qd[:, None, None] @ dX.reshape(b, k, n, -1)).reshape((b, k) + dX.shape[3:])


def _jet(R: Array, p: Array, dR: Array, dp: Array, corner: float) -> Array:
    """The block matrix N (..., 4 (n+1), 4 (n+1)) of right products by X =
    [[R, p], [0, corner]] on row jets, J(Y X) = J(Y) N for J(Y) = [Y, dY_1,
    ..., dY_n] (4, 4 (n+1)), by the product rule with X's derivatives dX_j =
    [[dR_j, dp_j], [0, 0]] (R, p, dR, dp of shapes (..., 3, 3), (..., 3), (...,
    n, 3, 3), (..., n, 3)): X on the diagonal, [X, dX_1, ..., dX_n] the first row."""
    n = dR.shape[-3]
    N = np.zeros(R.shape[:-2] + (n + 1, 4, n + 1, 4))
    N[..., 0, :3, 1:, :3], N[..., 0, :3, 1:, 3] = np.swapaxes(dR, -3, -2), np.swapaxes(dp, -2, -1)
    for i in range(n + 1):
        N[..., i, :3, i, :3], N[..., i, :3, i, 3], N[..., i, 3, i, 3] = R, p, corner
    return N.reshape(R.shape[:-2] + (4 * n + 4,) * 2)


# -- strain bases ------------------------------------------------------------

_STRAIN_OFFSET = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])


class StrainBasis:
    """Affine strain parameterization: strains(s, q) = Phi(s) q + offset.

    Phi stacks rows in strain order (kappa_x, kappa_y, kappa_z, sigma_x,
    sigma_y, lambda); the offset puts the stress-free configuration at q = 0.
    """

    def __init__(self, n_dof: int, matrix_fn, matrix_ds_fn, constant: bool):
        self.n_dof = n_dof
        self._matrix_fn = matrix_fn
        self._matrix_ds_fn = matrix_ds_fn
        self.is_constant = constant

    def matrix(self, s: Array) -> Array:
        """Phi(s) for s (k,) -> (k, 6, n_dof)."""
        return self._matrix_fn(np.asarray(s, dtype=float))

    def matrix_ds(self, s: Array) -> Array:
        """dPhi/ds, same shape as :meth:`matrix`."""
        return self._matrix_ds_fn(np.asarray(s, dtype=float))

    def strains(self, s: Array, q: Array) -> Array:
        """Strains at the arclengths s (k,) for every row of q (b, n), (b, k, 6)."""
        return matvec(self.matrix(s), q[:, None]) + _STRAIN_OFFSET

    def strains_ds(self, s: Array, q: Array) -> Array:
        """d strains / ds, same shape as :meth:`strains`."""
        return matvec(self.matrix_ds(s), q[:, None])


def _const_basis(rows: Array) -> StrainBasis:
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]

    def mat(s):
        return np.broadcast_to(rows, (s.shape[0], 6, n)).copy()

    def mat_ds(s):
        return np.zeros((s.shape[0], 6, n))

    return StrainBasis(n, mat, mat_ds, constant=True)


def pcc_basis(length: float, planar: bool = False, elongation: bool = True) -> StrainBasis:
    """Constant curvature, optionally with elongation; q = (kx*L0, ky*L0[, dL]).

    ``planar`` keeps only the first curvature coordinate (the model used by
    the scaling benchmark); ``elongation=False`` drops the axial coordinate,
    which this stress law leaves unrestrained at zero curvature.
    """
    if planar:
        rows = np.zeros((6, 1))
        rows[0, 0] = 1.0 / length
        return _const_basis(rows)
    rows = np.zeros((6, 3 if elongation else 2))
    rows[0, 0] = 1.0 / length
    rows[1, 1] = 1.0 / length
    if elongation:
        rows[5, 2] = 1.0 / length
    return _const_basis(rows)


def pcs_basis(length: float) -> StrainBasis:
    """Constant strain on all six components; q scaled by 1/L0."""
    return _const_basis(np.eye(6) / length)


def _profile_basis(length: float, profile, profile_ds, elongation: bool) -> StrainBasis:
    """Curvature kx = -q3/L0 - p(s) q4, ky = q1/L0 + p(s) q2 with the profile
    p(s) (already divided by L0) and its s-derivative, plus dL = q5/L0 with
    ``elongation``."""
    n = 5 if elongation else 4
    rows = np.zeros((6, n))
    rows[0, 2], rows[1, 0] = -1.0 / length, 1.0 / length
    rows[5, 4:] = 1.0 / length  # the elongation column, if any

    def matrix(p, const):
        out = np.broadcast_to(const, (p.shape[0], 6, n)).copy()
        out[:, 0, 3], out[:, 1, 1] = -p, p
        return out

    return StrainBasis(n, lambda s: matrix(profile(s), rows),
                       lambda s: matrix(profile_ds(s), np.zeros((6, n))), constant=False)


def pac_basis(length: float) -> StrainBasis:
    """Affine curvature: kx = (-q3 - (s/L0) q4)/L0, ky = (q1 + (s/L0) q2)/L0."""
    return _profile_basis(length, lambda s: s / length**2,
                          lambda s: np.full(s.shape, 1.0 / length**2), elongation=False)


def pgc_basis(length: float) -> StrainBasis:
    """Gaussian-modulated curvature with elongation (5 dof).

    kx = (-q3 - G(s) q4)/L0, ky = (q1 + G(s) q2)/L0, dL = q5/L0, with
    G(s) = exp(-(s - L0/2)^2), so G = 1 at mid-length.
    """

    def gauss(s):
        return np.exp(-((s - length / 2.0) ** 2))

    return _profile_basis(length, lambda s: gauss(s) / length,
                          lambda s: gauss(s) * (-2.0 * (s - length / 2.0)) / length, elongation=True)


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
    ):
        self.basis = basis
        self.length = float(length)
        self.domain = domain
        self.rho = float(rho)
        self.elastic_modulus = elastic_modulus
        self.viscosity = viscosity
        self.quadrature_order = quadrature_order

    @property
    def n_dof(self) -> int:
        return self.basis.n_dof

    # -- frame solution ------------------------------------------------------

    def _frames_closed_form(self, s: Array, q: Array, qd: Array | None = None):
        """Constant strain: the frame at s is exp(s xi), one exponential per
        arclength and row, all in one call, with its rates at the velocities
        qd, the twists' rates s xi_dot."""
        phi = self.basis.matrix(np.zeros(1))[0]  # (6, n), constant
        (b, n), k = q.shape, s.shape[0]
        xi = (phi @ q[:, :, None])[..., 0] + _STRAIN_OFFSET  # (b, 6)
        twist = s[:, None] * xi[:, None]  # (b, k, 6)
        d = np.concatenate([s[:, None, None] * phi.T] * b)  # (b k, n, 6)
        rate = () if qd is None else ((s[:, None] * (phi @ qd[:, :, None])[..., 0][:, None]).reshape(-1, 6),)
        frames = _se3_exp(twist[..., :3].reshape(-1, 3), twist[..., 3:].reshape(-1, 3), d, *rate)
        return tuple(a.reshape((b, k) + a.shape[1:]) for a in frames)

    def _frames_magnus(self, s_sorted: Array, q: Array, qd: Array | None = None):
        """s-varying strain: fourth-order Magnus steps on SE(3).

        The frame at s composes the whole steps (``BACKBONE_STEPS`` per rod
        length) below s and one partial step up to s, so it depends on s
        alone.  A step of width h maps g to g exp(Omega), Omega = h/2 (xi_1 +
        xi_2) + sqrt(3) h^2/12 [xi_1, xi_2], xi_1 and xi_2 the strains at the
        step's two Gauss points, so every frame is a product of exact
        rotations.  Omega is quadratic in q, and the q-Jacobians are the exact
        derivatives of this discrete map.  All step exponentials of all rows
        are one vectorized call; only the whole steps compose in sequence,
        every row at once, one product per step of the row jets J(T) = [T,
        dT_1, ..., dT_n] (:func:`_jet`).  With the velocities qd, each step's
        rates follow from Omega_dot and those of dOmega/dq_j, and the jets'
        rate as K' = K N(G) + J(T) N(G_dot), after the frames' products.
        """
        b, n = q.shape
        h_whole = self.length / BACKBONE_STEPS
        whole = np.floor(s_sorted / h_whole).astype(int)
        count = int(whole.max(initial=0))
        # the whole steps, then one partial step per target (width 0 on a step boundary)
        h = np.concatenate([np.full(count, h_whole), s_sorted - whole * h_whole])
        starts = np.concatenate([h_whole * np.arange(count), whole * h_whole])
        s_g = (starts[:, None] + h[:, None] * _GAUSS_2).reshape(-1)
        steps = h.shape[0]
        phi = self.basis.matrix(s_g).reshape(steps, 2, 6, n)
        xi = (phi @ q[:, None, None, :, None])[..., 0] + _STRAIN_OFFSET  # (b, steps, 2, 6)
        ad1, ad2 = _se3_ad(xi[:, :, 0]), _se3_ad(xi[:, :, 1])
        c2 = (np.sqrt(3.0) / 12.0) * h**2

        def tangent(d1, d2):  # Omega's derivative along strain columns (b, steps, 6, k) at the Gauss points
            return 0.5 * h[:, None, None] * (d1 + d2) + c2[:, None, None] * (ad1 @ d2 - ad2 @ d1)

        omega = 0.5 * h[:, None] * (xi[:, :, 0] + xi[:, :, 1]) + c2[:, None] * (ad1 @ xi[:, :, 1, :, None])[..., 0]
        d_omega = tangent(phi[:, 0], phi[:, 1]).swapaxes(2, 3)  # (b, steps, n, 6)
        rates = ()
        if qd is not None:  # Omega_dot, and the rates of dOmega/dq_j: c2 ([Phi_1, xi_dot_2] + [xi_dot_1, Phi_2])
            xd = phi @ qd[:, None, None, :, None]  # (b, steps, 2, 6, 1)
            ad_dot = [_se3_ad(xd[:, :, i, :, 0]) for i in (0, 1)]
            d_omega_dot = c2[:, None, None] * (ad_dot[0] @ phi[:, 1] - ad_dot[1] @ phi[:, 0])
            rates = (tangent(xd[:, :, 0], xd[:, :, 1]).reshape(-1, 6), d_omega_dot.swapaxes(2, 3).reshape(-1, n, 6))
        R_s, p_s, dR_s, dp_s, *step_rates = (a.reshape((b, steps) + a.shape[1:]) for a in _se3_exp(
            omega[..., :3].reshape(-1, 3), omega[..., 3:].reshape(-1, 3), d_omega.reshape(-1, n, 6), *rates))
        NG = _jet(R_s, p_s, dR_s, dp_s, 1.0)  # the steps, as right products on row jets
        J = np.zeros((b, count + 1, 4, 4 * n + 4))  # J(T) after each whole step
        J[:, 0, :, :4] = np.eye(4)
        for m in range(count):
            J[:, m + 1] = J[:, m] @ NG[:, m]
        jets = [J[:, whole] @ NG[:, count:]]
        if qd is not None:  # the steps' rates along qd, after the frames' loop: J(T) N(G_dot) is one product
            N_dot = _jet(_along(dR_s, qd), _along(dp_s, qd), *step_rates, 0.0)
            P = J[:, np.concatenate([np.arange(count), whole])] @ N_dot
            K = np.zeros(J.shape)
            for m in range(count):
                K[:, m + 1] = K[:, m] @ NG[:, m] + P[:, m]
            jets.append(K[:, whole] @ NG[:, count:] + P[:, count:])
        blocks = [a.reshape(b, -1, 4, n + 1, 4).swapaxes(2, 3) for a in jets]  # (b, k, n + 1, 4, 4)
        blocks = [blocks[0][:, :, 0]] + [a[:, :, 1:] for a in blocks]  # T, dT and dT's rate
        return tuple(x for a in blocks for x in (a[..., :3, :3], a[..., :3, 3]))

    def solve(self, x, q, qd=None):
        """Backbone frames and their q-Jacobians at the arclengths x3 of x,
        for every row of the stack q (b, n), and their rates at the
        velocities qd (b, n).

        One frame solve over the distinct arclengths and all rows, spread
        back to the points: (R (b,m,3,3), c (b,m,3), dR (b,m,n,3,3),
        dc (b,m,n,3), dR_dot (b,m,n,3,3), dc_dot (b,m,n,3)), the coordinate
        axis before the matrix axes; without qd the rates are read-only zero
        views, which allocate nothing.
        """
        q = self.check_q(q)
        s_unique, inv = np.unique(np.asarray(x, dtype=float)[:, 2], return_inverse=True)
        if s_unique.size and (s_unique[0] < -1e-12 or s_unique[-1] > self.length + 1e-9):
            raise ValueError("material x3 outside [0, L0]")
        s_unique = np.clip(s_unique, 0.0, self.length)
        frames = self._frames_closed_form if self.basis.is_constant else self._frames_magnus
        sol = tuple(np.take(a, inv, axis=1) for a in frames(s_unique, q, None if qd is None else np.asarray(qd, float)))
        if qd is None:  # the rates, as read-only views of one zero float
            sol += tuple(np.ndarray(a.shape, buffer=bytes(8), strides=(0,) * a.ndim) for a in sol[2:])
        return sol

    def jac_q_rate(self, x, q, qd, sol=None):
        """The rates of the columns of :meth:`jac_q`, its formula on the
        solution's rates, dc_dot_j + dR_dot_j u + R_dot du_j, and for a
        cross-section affine in q the rate of u: + dR_j (du qd).  A
        solution without the velocities, whose rates are zero views, is
        solved again with them."""
        qd = np.asarray(qd, dtype=float)
        if sol is not None and qd.any() and not any(sol[4].strides):
            sol = None  # solved without the velocities: no rates
        x, q, (_, _, dR, _, dR_dot, dc_dot) = self._solved(x, q, sol, 6, qd)
        du = self.cross_section_jac_q(x, q)
        out = self._columns(x, q, None if du is None else _along(dR, qd), dR_dot, dc_dot, du)
        return out if du is None else out + matvec3(dR, matvec(du, qd[:, None])[..., None, :]).swapaxes(2, 3)

    # -- kinematic map ---------------------------------------------------------

    def cross_section(self, x: Array, q: Array) -> Array:
        """In-plane part of the material points carried by the backbone
        frame, (b, m, 3) for the stack q; a leading axis of 1 serves every
        row."""
        u = np.array(x, dtype=float)
        u[:, 2] = 0.0
        return u[None]

    def cross_section_jac_q(self, x: Array, q: Array) -> Array | None:
        """dq-Jacobian of :meth:`cross_section`, (b, m, 3, n); None when
        independent of q.  A leading axis of 1 serves every row."""
        return None

    def _solved(self, x: Array, q: Array, sol, count: int, qd: Array | None = None):
        """x and the stack q as arrays, and the first ``count`` arrays of
        ``sol`` or, where it is None, of the solution at them (with the
        velocities qd), so that a solve here frees the others at once."""
        x, q = np.asarray(x, dtype=float), self.check_q(q)
        return x, q, (self.solve(x, q, qd) if sol is None else sol)[:count]

    def position(self, x, q, sol=None):
        x, q, (R, c) = self._solved(x, q, sol, 2)
        return c + matvec3(R, self.cross_section(x, q))

    def jac_q(self, x, q, sol=None):
        x, q, (R, _, dR, dc) = self._solved(x, q, sol, 4)
        return self._columns(x, q, R, dR, dc, self.cross_section_jac_q(x, q))

    def _columns(self, x: Array, q: Array, R: Array, dR: Array, dc: Array, du: Array | None) -> Array:
        """The columns dc_j + dR_j u + R du_j (b, m, 3, n) of df/dq at the points x, from R, dR, dc and du there."""
        out = dc + matvec3(dR, self.cross_section(x, q)[..., None, :])
        return (out if du is None else out + matvec3(R[:, :, None], du.swapaxes(2, 3))).swapaxes(2, 3)

    def _section_terms(self, x: Array, q: Array):
        """Strains xi (b, m, 6), in-plane points u and the arclength
        derivative of the section point, tangent = sigma + kappa x u
        (b, m, 3), at the points x for the stack q."""
        xi = self.basis.strains(x[:, 2], q)
        u = self.cross_section(x, q)
        return xi, u, xi[..., 3:] + cross(xi[..., :3], u)

    def jac_x(self, x, q, sol=None):
        x, q, (R,) = self._solved(x, q, sol, 1)
        _, _, tangent = self._section_terms(x, q)
        # f' along s: R (sigma + kappa x u); transverse: R e1, R e2
        out = R.copy()
        out[..., 2] = matvec3(R, tangent)
        return out

    def jac_x_dq(self, x, q, sol=None):
        x, q, (R, _, dR) = self._solved(x, q, sol, 3)
        _, u, tangent = self._section_terms(x, q)
        phi = self.basis.matrix(x[:, 2])  # (m, 6, n)
        # d tangent / dq_j, one row per coordinate (b, m, n, 3)
        d_tangent = np.swapaxes(phi[:, 3:], 1, 2) + cross(np.swapaxes(phi[:, :3], 1, 2), u[..., None, :])
        out = np.empty(R.shape + (self.n_dof,))
        out[..., :2, :] = dR[..., :2].transpose(0, 1, 3, 4, 2)
        out[..., 2, :] = (matvec3(dR, tangent[..., None, :]) + matvec3(R[:, :, None], d_tangent)).swapaxes(-1, -2)
        return out

    def hess_x(self, x, q, sol=None):
        x, q, (R,) = self._solved(x, q, sol, 1)
        xi, dxi = self.basis.strains(x[:, 2], q), self.basis.strains_ds(x[:, 2], q)
        kap, sig = xi[..., :3], xi[..., 3:]
        u = self.cross_section(x, q)
        # d/dx3 of the columns f_x1, f_x2, f_x3: the only non-zero second derivatives
        columns = (cross(kap, [1.0, 0.0, 0.0]), cross(kap, [0.0, 1.0, 0.0]),
                   cross(kap, sig + cross(kap, u)) + dxi[..., 3:] + cross(dxi[..., :3], u))
        out = np.zeros(R.shape + (3,))
        for c, column in enumerate(columns):
            out[..., c, 2] = out[..., 2, c] = matvec3(R, column)
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
        basis = _const_basis(rows)
        super().__init__(basis, length, domain, rho, elastic_modulus, viscosity, quadrature_order)
        self.radius = float(radius)

    def bump(self, s: Array, phi: Array) -> Array:
        """Separable bump with open support s in (0, L0), phi in (0, pi)."""
        L = self.length
        us = L * L / 4.0 - (s - L / 2.0) ** 2
        up = np.pi**2 / 4.0 - (phi - np.pi / 2.0) ** 2
        inside = (us > 0) & (up > 0)
        out = np.zeros_like(s)
        out[inside] = np.exp(-L / us[inside]) * np.exp(-1.0 / up[inside])
        return out

    def _radial_gain(self, x: Array) -> Array:
        """Per-point weights (m, 2) multiplying (a1, a2) in delta_R: the bump
        on the point's half of the section, in the column of that half."""
        phi = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * np.pi)
        upper = phi >= np.pi
        g = np.zeros((x.shape[0], 2))
        g[np.arange(x.shape[0]), upper.astype(int)] = self.bump(x[:, 2], phi - np.pi * upper)
        return g

    def cross_section(self, x, q):
        g = self._radial_gain(x)
        fac = 1.0 + (g @ q[:, 2:, None])[..., 0] / self.radius  # (b, m)
        u = np.repeat(np.asarray(x, dtype=float)[None], q.shape[0], axis=0)
        u[..., :2] *= fac[..., None]
        u[..., 2] = 0.0
        return u

    def cross_section_jac_q(self, x, q):
        g = self._radial_gain(x)
        du = np.zeros((x.shape[0], 3, self.n_dof))
        du[:, 0, 2:] = x[:, 0, None] * g / self.radius
        du[:, 1, 2:] = x[:, 1, None] * g / self.radius
        return du[None]

    # the radial gain varies with x: the material derivatives are the defaults, differences of the position map
    jac_x, jac_x_dq, hess_x = BodyModel.jac_x, BodyModel.jac_x_dq, BodyModel.hess_x
