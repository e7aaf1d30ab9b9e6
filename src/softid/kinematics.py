"""Chain assembly and the forward differential-kinematics pass.

A chain is an ordered list of (joint, body) links hanging from a fixed base.
Each body carries three anchor points in its reference configuration: the
pivot x_j of the successor joint and two contact-area points x_a, x_b whose
offsets from x_j are orthogonal.  The images of the anchors under the body
map define the contact frame {S_i}; the joint transform and the contact
frame compose into the link transform, and the body-frame velocities and
accelerations follow by the standard forward recursion seeded at the base.

Relative velocities and accelerations come from configuration Jacobians of
the link transform: analytic Jacobians assembled from the body model's
derivative supply, and their time rates by central differencing of the
Jacobian map along the velocity direction.  Every configuration visited is
one solve of the body map (:meth:`BodyHandle.evaluate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bodies import integrals  # called through the module, so wrappers on it see the calls
from .errors import DegenerateContactError
from .spatial import Transform, cross, rodrigues, skew, vee

Array = np.ndarray

ANCHOR_ORTHO_TOL = 1e-12
DEGENERATE_TOL = 1e-12
JAC_RATE_STEP = 1e-6


@dataclass(frozen=True)
class Joint:
    """Joint between consecutive bodies; the transform depends only on its kind."""

    kind: str  # fixed | revolute | prismatic | rotated_base
    axis: Array | None = None
    rotation: Array = field(default_factory=lambda: np.eye(3))
    translation: Array = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.kind not in ("fixed", "revolute", "prismatic", "rotated_base"):
            raise ValueError(f"unknown joint kind {self.kind!r}")
        if self.kind in ("revolute", "prismatic"):
            axis = np.asarray(self.axis, dtype=float)
            n = np.linalg.norm(axis)
            if n == 0.0:
                raise ValueError("joint axis must be non-zero")
            object.__setattr__(self, "axis", axis / n)
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))

    @property
    def n_dof(self) -> int:
        return 1 if self.kind in ("revolute", "prismatic") else 0

    def transform(self, qj: Array) -> tuple[Array, Array]:
        """Rotation and translation of the joint frame for joint coordinates qj."""
        if self.kind == "revolute":
            return rodrigues(self.axis, float(qj[0])), np.zeros(3)
        if self.kind == "prismatic":
            return np.eye(3), self.axis * float(qj[0])
        return self.rotation, self.translation


def fixed_joint() -> Joint:
    return Joint("fixed")


def revolute_joint(axis) -> Joint:
    return Joint("revolute", axis=np.asarray(axis, dtype=float))


def prismatic_joint(axis) -> Joint:
    return Joint("prismatic", axis=np.asarray(axis, dtype=float))


def rotated_base_joint(rotation, translation=(0.0, 0.0, 0.0)) -> Joint:
    return Joint("rotated_base", rotation=np.asarray(rotation, dtype=float),
                 translation=np.asarray(translation, dtype=float))


class BodyEval(NamedTuple):
    """One body-map solve at one configuration: the model's solution on the
    handle's points, the contact-frame data, and the nodes in {S_i} with
    their configuration Jacobian."""

    sol: object
    frame: tuple
    points: Array
    jac: Array


class BodyHandle:
    """A body model plus the anchor points that define its contact frame.

    ``free_tip`` marks gripper-like last bodies whose distal area may deform:
    the contact frame degenerates to the identity and the anchor
    orthogonality check is skipped.  ``points`` stacks the anchors (none for
    a free tip) over the quadrature nodes.  A rigid body depends on no
    configuration, so its evaluation and integrals are computed here, once.
    """

    def __init__(self, model, x_j=None, x_a=None, x_b=None, free_tip: bool = False):
        self.model = model
        self.free_tip = bool(free_tip)
        if self.free_tip:
            self.x_j = self.x_a = self.x_b = None
            anchors = np.zeros((0, 3))
        else:
            if x_j is None or x_a is None or x_b is None:
                raise ValueError("non-free-tip bodies need anchor points x_j, x_a, x_b")
            self.x_j = np.asarray(x_j, dtype=float)
            self.x_a = np.asarray(x_a, dtype=float)
            self.x_b = np.asarray(x_b, dtype=float)
            da = self.x_a - self.x_j
            db = self.x_b - self.x_j
            la, lb = np.linalg.norm(da), np.linalg.norm(db)
            if la <= 0.0 or lb <= 0.0:
                raise ValueError("anchor points must not coincide with the joint pivot")
            if abs(da @ db) > ANCHOR_ORTHO_TOL * max(1.0, la * lb) * 10:
                raise ValueError(
                    "anchor offsets are not orthogonal: contact-area construction "
                    f"requires (x_a - x_j) . (x_b - x_j) = 0, got {da @ db:.3e}"
                )
            anchors = np.stack([self.x_j, self.x_a, self.x_b])
        self.n_anchors = anchors.shape[0]
        self.points = np.concatenate([anchors, model.nodes()[0]])
        self.rigid = None
        if model.n_dof == 0:
            ev = self.evaluate(np.zeros(0))
            self.rigid = (ev, integrals.body_integrals(self, np.zeros(0), ev=ev))

    @property
    def n_dof(self) -> int:
        return self.model.n_dof

    def place(self, qb: Array, x: Array):
        """One solve of the body map at the anchors and x (m, 3) together.

        Returns the model's solution, the contact-frame data, f(x, qb) and df/dq at x.
        """
        k = self.n_anchors
        xs = np.concatenate([self.points[:k], x])
        sol = self.model.solve(xs, qb)
        f, jq = self.model.position(xs, qb, sol), self.model.jac_q(xs, qb, sol)
        return sol, self.contact_frame_data(f[:k], jq[:k]), f[k:], jq[k:]

    def evaluate(self, qb: Array) -> BodyEval:
        """One solve of the body map at qb on :attr:`points`."""
        if self.rigid is not None:
            return self.rigid[0]
        sol, frame, f, jq = self.place(qb, self.points[self.n_anchors:])
        return BodyEval(sol, frame, *self.framed_jacobian(f, jq, frame))

    def frame(self, qb: Array):
        """Contact-frame data at qb from a solve at the anchors alone."""
        return self.place(qb, np.zeros((0, 3)))[1]

    # -- contact frame -------------------------------------------------------

    def contact_frame_data(self, f: Array, jq: Array):
        """Contact frame (R_c, t_c, dR_c (n,3,3), dt_c (3,n)) from the anchor
        images f (3, 3) and their q-Jacobian jq (3, 3, n); none for a free tip."""
        n = self.n_dof
        if self.free_tip:
            return np.eye(3), np.zeros(3), np.zeros((n, 3, 3)), np.zeros((3, n))
        da = f[1] - f[0]
        db = f[2] - f[0]
        la, lb = np.linalg.norm(da), np.linalg.norm(db)
        if la < DEGENERATE_TOL or lb < DEGENERATE_TOL:
            raise DegenerateContactError(
                "contact frame collapsed: anchor image coincides with the pivot image "
                "(deformed contact area violates the rigid-contact assumption)"
            )
        n1, n2 = da / la, db / lb
        n3 = cross(n1, n2)
        R = np.stack([n1, n2, n3], axis=1)
        d_da = jq[1] - jq[0]  # (3, n)
        d_db = jq[2] - jq[0]
        # unit-vector derivatives: d(u/|u|) = (I - nn^T)/|u| du
        dn1 = (np.eye(3) - np.outer(n1, n1)) @ d_da / la
        dn2 = (np.eye(3) - np.outer(n2, n2)) @ d_db / lb
        dn3 = cross(dn1.T, n2) + cross(n1, dn2.T)
        return R, f[0], np.stack([dn1.T, dn2.T, dn3], axis=2), jq[0]

    # -- body points in the contact frame -------------------------------------

    def framed_jacobian(self, f: Array, jq: Array, frame):
        """Body points in {S_i}, R_c^T (f - t_c), and their q-Jacobian, from
        the images f (m, 3), their q-Jacobian jq (m, 3, n) and the frame."""
        R, t, dR, dt = frame
        ip = (f - t) @ R
        jac = np.einsum("maj,ab->mbj", jq - dt[None, :, :], R)
        if not self.free_tip:
            jac = jac + np.einsum("ma,jab->mbj", f - t, dR)
        return ip, jac


@dataclass
class Link:
    joint: Joint
    body: BodyHandle

    @property
    def n_dof(self) -> int:
        return self.joint.n_dof + self.body.n_dof


class ChainModel:
    """Serial chain: base pose, gravity, and the ordered (joint, body) links.

    Configuration slicing is a partition: body i owns the contiguous block
    (q_joint_i; q_body_i) of the stacked coordinate vector.
    """

    def __init__(self, links, gravity=(0.0, 0.0, -9.81), base: Transform | None = None):
        self.links = [lk if isinstance(lk, Link) else Link(*lk) for lk in links]
        if not self.links:
            raise ValueError("chain needs at least one link")
        self.gravity = np.asarray(gravity, dtype=float)
        self.base = base if base is not None else Transform.identity()
        offsets = np.cumsum([0] + [lk.n_dof for lk in self.links])
        self._offsets = offsets
        self.n = int(offsets[-1])

    def __len__(self) -> int:
        return len(self.links)

    def slice(self, i: int) -> slice:
        return slice(int(self._offsets[i]), int(self._offsets[i + 1]))

    def split(self, i: int, q: Array) -> tuple[Array, Array]:
        """(joint, body) sub-vectors of body i's coordinate block."""
        qi = q[self.slice(i)]
        nj = self.links[i].joint.n_dof
        return qi[:nj], qi[nj:]

    def check_state(self, *vectors) -> list[Array]:
        out = []
        for v in vectors:
            v = np.zeros(self.n) if v is None else np.asarray(v, dtype=float).reshape(-1)
            if v.shape != (self.n,):
                raise ValueError(f"state vector must have length {self.n}, got {v.shape[0]}")
            if not np.all(np.isfinite(v)):
                raise ValueError("state vectors must be finite")
            out.append(v)
        return out


# -- single-link transforms ---------------------------------------------------

def contact_frame(body: BodyHandle, qb: Array) -> Transform:
    """Transform from {S_i} to {S_J_i} built from the deformed anchor images."""
    R, t, _, _ = body.frame(np.asarray(qb, dtype=float))
    return Transform(R, t)


def link_transform(joint: Joint, body: BodyHandle, qi: Array) -> Transform:
    """Transform from {S_i} to {S_{i-1}}: joint transform then contact frame."""
    qi = np.asarray(qi, dtype=float)
    nj = joint.n_dof
    Rj, tj = joint.transform(qi[:nj])
    return Transform(Rj, tj).compose(contact_frame(body, qi[nj:]))


def link_jacobians(joint: Joint, frame, qi: Array):
    """Link transform with its translation and angular-velocity Jacobians.

    ``frame`` is the body's contact-frame data (R_c, t_c, dR_c, dt_c) at the
    body part of qi.  Returns (R_rel, t_rel, Jt (3,n_i), Jw (3,n_i)); columns
    are ordered joint coordinates first, then body coordinates.  Jw maps q̇_i
    to the relative angular velocity expressed in the parent frame {S_{i-1}}.
    """
    qi = np.asarray(qi, dtype=float)
    Rc, tc, dRc, dtc = frame
    nj, nb = joint.n_dof, dRc.shape[0]
    n = nj + nb
    Rj, tj = joint.transform(qi[:nj])
    R_rel = Rj @ Rc
    t_rel = tj + Rj @ tc
    Jt = np.zeros((3, n))
    Jw = np.zeros((3, n))
    if nj:
        if joint.kind == "revolute":
            Jt[:, 0] = skew(joint.axis) @ (Rj @ tc)
            Jw[:, 0] = joint.axis
        else:  # prismatic
            Jt[:, 0] = joint.axis
    if nb:
        Jt[:, nj:] = Rj @ dtc
        RcT_RjT = R_rel.T
        for k in range(nb):
            d = (Rj @ dRc[k]) @ RcT_RjT
            Jw[:, nj + k] = vee(d)
    return R_rel, t_rel, Jt, Jw


def unit_rate(fn, q: Array, qd: Array, at_q):
    """Time rates of the arrays ``fn(q)`` along a path through q with velocity qd.

    The rates are linear in qd: one central difference along qd/|qd|,
    scaled by |qd|, keeps the cancellation noise independent of |qd|.
    ``at_q`` is fn(q); it sets the shapes of the zero rates at rest.
    """
    speed = float(np.linalg.norm(qd))
    if speed == 0.0:
        return [np.zeros_like(a) for a in at_q]
    h = JAC_RATE_STEP * max(1.0, float(np.linalg.norm(q)))
    unit = qd / speed
    plus, minus = fn(q + h * unit), fn(q - h * unit)
    scale = speed / (2.0 * h)
    return [scale * (p - m) for p, m in zip(plus, minus)]


# -- forward pass --------------------------------------------------------------

@dataclass
class BodyKin:
    """Per-body kinematic state produced by the forward pass (body frame {S_i})."""

    R_rel: Array
    t_rel: Array
    R_base: Array
    t_base: Array
    Jt: Array
    Jw: Array
    v: Array
    w: Array
    a: Array
    wdot: Array
    v_com: Array
    a_com: Array
    Pv: Array
    Pw: Array
    data: integrals.BodyInertialData


@dataclass
class KinematicsCache:
    bodies: list[BodyKin]
    base_accel: Array

    def __getitem__(self, i: int) -> BodyKin:
        return self.bodies[i]


def forward_pass(chain: ChainModel, q, qd=None, qdd=None, base_accel=None) -> KinematicsCache:
    """Forward recursion producing all body-frame velocities and accelerations.

    ``base_accel`` seeds the base linear acceleration; None selects -gravity,
    which folds the gravitational force into the inertial terms.  Pass zeros
    to compute purely inertial kinematics (the dynamics algorithms do, and
    add explicit gravity terms instead).
    """
    q, qd, qdd = chain.check_state(q, qd, qdd)
    if base_accel is None:
        base_accel = -chain.gravity
    base_accel = np.asarray(base_accel, dtype=float)

    bodies: list[BodyKin] = []
    R_parent = chain.base.rotation
    t_parent = chain.base.translation
    v_p = np.zeros(3)
    w_p = np.zeros(3)
    a_p = base_accel.copy()
    wd_p = np.zeros(3)

    for i, lk in enumerate(chain.links):
        sl = chain.slice(i)
        qi, qdi, qddi = q[sl], qd[sl], qdd[sl]
        nj = lk.joint.n_dof

        def state(qs):
            ev_s = lk.body.evaluate(qs[nj:])
            return (*link_jacobians(lk.joint, ev_s.frame, qs), ev_s.jac, ev_s)

        # the link is evaluated at qi and, when it moves, at qi +- h u
        R_rel, t_rel, Jt, Jw, Jp, ev = state(qi)
        Jt_dot, Jw_dot, Jp_dot = unit_rate(lambda qs: state(qs)[2:5], qi, qdi, (Jt, Jw, Jp))

        v_rel = Jt @ qdi
        w_rel = Jw @ qdi
        a_rel = Jt @ qddi + Jt_dot @ qdi
        wdot_rel = Jw @ qddi + Jw_dot @ qdi

        RT = R_rel.T
        v = RT @ (v_p + cross(w_p, t_rel) + v_rel)
        w = RT @ (w_p + w_rel)
        a = RT @ (
            a_p
            + cross(wd_p, t_rel)
            + cross(w_p, cross(w_p, t_rel) + v_rel)
            + cross(w_p, v_rel)
            + a_rel
        )
        wdot = RT @ (wd_p + cross(w_p, w_rel) + wdot_rel)

        data = integrals.body_integrals(lk.body, qi[nj:], qdi[nj:], qddi[nj:],
                                        ev=ev, jac_rate=Jp_dot)
        v_com = v + cross(w, data.p_com) + data.pdot_com
        a_com = (
            a
            + cross(wdot, data.p_com)
            + cross(w, cross(w, data.p_com) + data.pdot_com)
            + cross(w, data.pdot_com)
            + data.pddot_com
        )

        bodies.append(BodyKin(
            R_rel=R_rel, t_rel=t_rel,
            R_base=R_parent @ R_rel, t_base=t_parent + R_parent @ t_rel,
            Jt=Jt, Jw=Jw, v=v, w=w, a=a, wdot=wdot, v_com=v_com, a_com=a_com,
            Pv=Jt.T @ R_rel, Pw=Jw.T @ R_rel,
            data=data,
        ))
        R_parent = bodies[-1].R_base
        t_parent = bodies[-1].t_base
        v_p, w_p, a_p, wd_p = v, w, a, wdot

    return KinematicsCache(bodies=bodies, base_accel=base_accel)


def projection_matrices(chain: ChainModel, q, i: int) -> tuple[Array, Array]:
    """Partial-velocity projections (dv_i/dqd_i, dw_i/dqd_i), each (n_i, 3)."""
    (q,) = chain.check_state(q)
    lk = chain.links[i]
    qi = q[chain.slice(i)]
    R_rel, _, Jt, Jw = link_jacobians(lk.joint, lk.body.frame(qi[lk.joint.n_dof:]), qi)
    return Jt.T @ R_rel, Jw.T @ R_rel


def forward_kinematics(chain: ChainModel, q) -> list[dict]:
    """Base-frame poses of every joint frame {S_J_i} and contact frame {S_i}."""
    (q,) = chain.check_state(q)
    out = []
    T = chain.base
    for i, lk in enumerate(chain.links):
        qi = q[chain.slice(i)]
        nj = lk.joint.n_dof
        Rj, tj = lk.joint.transform(qi[:nj])
        T_joint = T.compose(Transform(Rj, tj))
        T = T_joint.compose(contact_frame(lk.body, qi[nj:]))
        out.append({"joint": T_joint, "body": T})
    return out


def chain_points(chain: ChainModel, q, points_per_body: list[Array]) -> list[Array]:
    """Base-frame positions of material points, one array (m_i, 3) per body.

    Each body is solved once, at its anchors and its points together.
    """
    (q,) = chain.check_state(q)
    out = []
    T = chain.base
    for i, lk in enumerate(chain.links):
        qj, qb = chain.split(i, q)
        _, (Rc, tc, _, _), f, _ = lk.body.place(qb, np.asarray(points_per_body[i], dtype=float))
        T = T.compose(Transform(*lk.joint.transform(qj)))
        out.append(T.apply(f))
        T = T.compose(Transform(Rc, tc))
    return out
