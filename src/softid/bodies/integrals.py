"""Quadrature evaluation of the per-body inertial integrals.

All quantities live in the body's contact frame {S_i} and split every point
as p = r + p_com with the discrete centroid property sum(w r rho) = 0 holding
to machine precision, because the center of mass is computed with the same
rule.  Velocities of material points are configuration-Jacobian contractions
r_dot = (dr/dq) qd; accelerations add the Jacobian rate, which the forward
pass frames from the body model's (``BodyModel.jac_q_rate``) with the link
Jacobians.  The forward pass hands over its own evaluation of the body and
that rate (a rigid body's handle does so once, at zero rates), so nothing
here evaluates or differences a body.  The integrals of a stack of states
are taken in one call, every array with the stack's row axis; a row's sums
run in the order of one state's, so a row equals the state alone, bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..errors import CentroidConsistencyError
from ..spatial import matvec, vee

Array = np.ndarray

CENTROID_TOL = 1e-6


@dataclass
class BodyInertialData:
    """Inertial integrals of one body at a given (q, qd, qdd).

    Shapes use n for the body dof count; Jacobian-like quantities are zero
    for rigid bodies (n = 0).  At a stack of states every array but the mass,
    the nodes and their weights has a leading row axis.
    """

    mass: float
    p_com: Array          # (3,) center of mass in {S_i}
    pdot_com: Array       # (3,)
    pddot_com: Array      # (3,)
    jac_com: Array        # (3, n) d p_com / d q
    jacdot_com: Array     # (3, n)
    inertia: Array        # (3, 3) about the CoM
    inertia_rate: Array   # (3, 3)
    mom_rd: Array         # (3,)  integral of r x r_dot dm
    mom_rdd: Array        # (3,)  integral of r x r_ddot dm
    jac_mom_rd: Array     # (3, n) integral of skew(r) dr/dq dm
    proj_rdd: Array       # (n,)  integral of (dr/dq)^T r_ddot dm
    proj_cor: Array       # (n, 3) integral of (dr/dq)^T skew(r_dot) dm
    inertia_grad: Array   # (n, 3, 3) d inertia / d q_k
    gram: Array           # (n, n) integral of (dr/dq)^T (dr/dq) dm
    # node-level arrays kept for the stress pass and diagnostics
    nodes: Array = field(repr=False, default=None)
    weights_mass: Array = field(repr=False, default=None)
    r: Array = field(repr=False, default=None)
    rdot: Array = field(repr=False, default=None)
    ev: "BodyEval" = field(repr=False, default=None)  # noqa: F821  (kinematics) framed nodes

    def take(self, rows) -> "BodyInertialData":
        """Views of the integrals at ``rows`` of a stack (an index drops the row
        axis); integrals without rows, a rigid body's, are every row's."""
        if self.p_com.ndim == 1:
            return self
        ev, cut = self.ev, lambda arrays: None if arrays is None else tuple(a[rows] for a in arrays)
        rowed = {f.name: getattr(self, f.name)[rows] for f in fields(self)
                 if f.name not in ("mass", "nodes", "weights_mass", "ev")}
        return replace(self, ev=ev._replace(sol=cut(ev.sol), frame=cut(ev.frame), points=ev.points[rows],
                                            jac=ev.jac[rows]), **rowed)


def body_integrals(handle, ev, jac_rate, qdb, qddb) -> BodyInertialData:
    """Evaluate all inertial integrals of one framed body at one state or at
    a stack of states.

    ``handle`` is the kinematics.BodyHandle, ``ev`` its evaluation at the
    body coordinates, ``jac_rate`` the time rate of the node Jacobian
    ``ev.jac``, and ``qdb``, ``qddb`` the body velocity and acceleration,
    each with the states' leading axes.
    """
    if handle.rigid is not None:
        return handle.rigid[1]
    model = handle.model
    pts, w = model.nodes()
    wm = w * model.rho
    mass = float(wm.sum())
    ip, Jp, Jp_dot = ev.points, ev.jac, jac_rate

    lead, (m, _, n) = ip.shape[:-2], Jp.shape[-3:]

    p_com = (wm @ ip) / mass
    jac_com, jacdot_com = ((wm @ J.reshape(lead + (m, 3 * n))).reshape(lead + (3, n)) / mass for J in (Jp, Jp_dot))
    # component-major, the nodes innermost (where the centre's part is one number): r (..., 3, m), dr/dq (..., 3 m, n)
    rT = np.subtract(ip.swapaxes(-1, -2), p_com[..., None], order="C")
    Jr, Jr_dot = (np.subtract(np.moveaxis(J, -3, -2), J_com[..., None, :], order="C").reshape(lead + (3 * m, n))
                  for J, J_com in ((Jp, jac_com), (Jp_dot, jacdot_com)))

    pdot_com = matvec(jac_com, qdb)
    pddot_com = matvec(jac_com, qddb) + matvec(jacdot_com, qdb)
    rates = Jr @ np.stack([qdb, qddb], -1)  # (..., 3 m, 2)
    rdT, rddT = rates[..., 0].reshape(rT.shape), (rates[..., 1] + matvec(Jr_dot, qdb)).reshape(rT.shape)

    scale = mass * max(model.domain.length_scale, 1e-12)
    rate_scale = scale * np.maximum(1.0, np.sqrt((qdb * qdb).sum(-1)))
    res_r, res_rd = (np.sqrt((c * c).sum(-1)) for c in (rT @ wm, rdT @ wm))
    # a non-finite residual compares false as well
    ok = np.reshape((res_r <= CENTROID_TOL * scale) & (res_rd <= CENTROID_TOL * rate_scale), -1)
    if not ok.all():
        raise CentroidConsistencyError(
            f"centroid integrals violated: |int r dm| = {np.max(res_r):.3e}, "
            f"|int r_dot dm| = {np.max(res_rd):.3e} (limit {CENTROID_TOL * scale:.3e}); "
            "quadrature rule too coarse or body map returned non-finite values", int(np.flatnonzero(~ok)[0])
        )

    # one BLAS product per row over the mass-weighted node vectors x = r, r_dot, r_ddot: int x r^T dm, int
    # (dr/dq)^T x dm and int x (dr/dq_k)^T dm (..., n, 3, 3), whose axial vectors are the cross-product integrals
    r, W = rT.swapaxes(-1, -2), np.stack([rT, rdT, rddT], -3) * wm  # W (..., 3, 3, m)
    Wt = W.reshape(lead + (9, m))
    rr, r_rd, r_rdd = np.moveaxis((Wt @ r).reshape(lead + (3, 3, 3)), -3, 0)  # int x r^T dm
    ur, _, proj_rdd = np.moveaxis(W.reshape(lead + (3, 3 * m)) @ Jr, -2, 0)  # int (dr/dq)^T x dm
    xu = Wt[..., :6, :] @ np.moveaxis(Jr.reshape(lead + (3, m, n)), -3, -2).reshape(lead + (m, 3 * n))
    r_uk, rd_uk = (np.moveaxis(xu.reshape(lead + (2, 3, 3, n))[..., k, :, :, :], -1, -3) for k in (0, 1))

    eye = np.eye(3)
    inertia = np.trace(rr, axis1=-2, axis2=-1)[..., None, None] * eye - rr
    inertia_rate = (2.0 * np.trace(r_rd, axis1=-2, axis2=-1)[..., None, None] * eye
                    - r_rd - r_rd.swapaxes(-1, -2))
    mom_rd, mom_rdd = 2.0 * vee(r_rd), 2.0 * vee(r_rdd)
    jac_mom_rd, proj_cor = -2.0 * vee(r_uk).swapaxes(-1, -2), 2.0 * vee(rd_uk)

    # d inertia / d q_k = int 2 (u_k . r) I - r u_k^T - u_k r^T dm
    inertia_grad = 2.0 * ur[..., None, None] * eye - r_uk - r_uk.swapaxes(-1, -2)
    gram = (Jr * np.tile(wm, 3)[:, None]).swapaxes(-1, -2) @ Jr

    return BodyInertialData(
        mass=mass,
        p_com=p_com, pdot_com=pdot_com, pddot_com=pddot_com,
        jac_com=jac_com, jacdot_com=jacdot_com,
        inertia=inertia, inertia_rate=inertia_rate,
        mom_rd=mom_rd, mom_rdd=mom_rdd, jac_mom_rd=jac_mom_rd,
        proj_rdd=proj_rdd, proj_cor=proj_cor,
        inertia_grad=inertia_grad, gram=gram,
        nodes=pts, weights_mass=wm, r=r, rdot=rdT.swapaxes(-1, -2), ev=ev,
    )
