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
Jacobian map along the velocity direction.  All of a link's terms that
depend on its own coordinate block alone form its stage (:class:`LinkStage`,
with a sweep's stress terms and an actuation map's terms); only the forward
recursion couples the links, so a caller that changes one block can pass the
other links' stages unchanged.  Outside the recursion,
:func:`forward_kinematics` is the one walk of the chain: frame poses and
base-frame images of material points, one body solve per body.

A state is one vector (n,) or a stack of states (b, n), and every array of
a stage, of the integrals it carries and of the forward pass has the
state's leading axes: none for one state, one row per state of a stack.  A
stage without rows broadcasts against stacked ones, so a sweep over states
that differ in one link's block takes that link's stage as a stack and the
other links' stages of one state.  The links that hold one body handle
(one per distinct body document of a parsed chain) and joints of one size
form a stage group (:attr:`ChainModel.groups`), which :func:`link_stage`
stages as one stack of its links' blocks: one solve of the body
(:meth:`BodyHandle.evaluate`) at every row and, for each moving row, at
q_i +- h u (:func:`unit_rate`), and the integrals once over the stack.  A
row's values do not depend on the other rows (every product is taken row
by row in the order of a single state), so a state swept in a stack, or a
link staged in its group, equals the state or the link alone, bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bodies import integrals  # called through the module, so wrappers on it see the calls
from .errors import DegenerateContactError
from .spatial import Transform, cross, matvec, rodrigues, vee

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
        """Rotation and translation of the joint frame for joint coordinates
        qj (..., n_dof), with the leading axes of qj (or of length 1)."""
        lead = np.shape(qj)[:-1]
        if self.kind == "revolute":
            return rodrigues(self.axis, qj[..., 0]), np.zeros(lead + (3,))
        # a transform that is the same for every row keeps axes of length 1
        ones = (None,) * len(lead)
        if self.kind == "prismatic":
            return np.eye(3)[ones], self.axis * qj[..., :1]
        return self.rotation[ones], self.translation[ones]


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
    """One body-map solve at a stack of configurations: the model's solution
    on the handle's points, the contact-frame data, and the nodes in {S_i}
    with their configuration Jacobian, every field with one leading row per
    configuration."""

    sol: object
    frame: tuple
    points: Array
    jac: Array
    at_x: tuple | None = None  # (sol, f, df/dq) at the points x of ``evaluate``: views of its rows

    def take(self, rows) -> "BodyEval":
        """The evaluation at ``rows`` (an index drops the row axis), without
        ``at_x``, as C-contiguous copies: numpy and BLAS may sum another
        layout in another order, and a kept row frees the rest."""
        def part(arrays):
            return None if arrays is None else tuple(a[rows].copy() for a in arrays)

        return BodyEval(part(self.sol), part(self.frame), *part((self.points, self.jac)))


class BodyHandle:
    """A body model plus the anchor points that define its contact frame.

    ``free_tip`` marks gripper-like last bodies whose distal area may deform:
    the contact frame degenerates to the identity and the anchor
    orthogonality check is skipped.  ``points`` stacks the anchors (none for
    a free tip) over the quadrature nodes.  A rigid body depends on no
    configuration, so its evaluation (one row) and integrals are computed
    here, once.
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
            ev = self.evaluate(np.zeros((1, 0)))
            self.rigid = (ev, integrals.body_integrals(self, ev.take(0), np.zeros_like(ev.jac[0]),
                                                       np.zeros(0), np.zeros(0)))

    @property
    def n_dof(self) -> int:
        return self.model.n_dof

    def place(self, qb: Array, x: Array):
        """One solve of the body map at the anchors and x (m, 3) together,
        for every row of the stack qb (b, n).

        Returns the model's solution, the contact-frame data, f(x, qb)
        (b, m, 3) and df/dq at x (b, m, 3, n).
        """
        k = self.n_anchors
        xs = np.concatenate([self.points[:k], x])
        sol = self.model.solve(xs, qb)
        f, jq = self.model.position(xs, qb, sol), self.model.jac_q(xs, qb, sol)
        return sol, self.contact_frame_data(f[:, :k], jq[:, :k]), f[:, k:], jq[:, k:]

    def evaluate(self, qb: Array, x: Array | None = None) -> BodyEval:
        """One solve of the body map at the stack qb (b, n) on :attr:`points`
        and after them, which leaves their rows as they are, on x (m, 3)."""
        if self.rigid is not None and x is None:
            return self.rigid[0].take(np.zeros(len(qb), dtype=int))
        nodes = self.points[self.n_anchors:]
        sol, frame, f, jq = self.place(qb, nodes if x is None else np.concatenate([nodes, x]))
        if x is None:
            return BodyEval(sol, frame, *self.framed_jacobian(f, jq, frame))
        k, m = len(self.points), len(nodes)
        sols = (None, None) if sol is None else (tuple(a[:, :k] for a in sol), tuple(a[:, k:] for a in sol))
        return BodyEval(sols[0], frame, *self.framed_jacobian(f[:, :m], jq[:, :m], frame),
                        (sols[1], f[:, m:], jq[:, m:]))

    # -- contact frame -------------------------------------------------------

    def contact_frame_data(self, f: Array, jq: Array):
        """Contact frames (R_c (b,3,3), t_c (b,3), dR_c (b,n,3,3), dt_c (b,3,n))
        from the anchor images f (b, 3, 3) and their q-Jacobians jq
        (b, 3, 3, n), one per row; the identity for a free tip.  A row whose
        anchor images collapse raises :class:`DegenerateContactError`."""
        b, n = f.shape[0], self.n_dof
        if self.free_tip:
            return (np.broadcast_to(np.eye(3), (b, 3, 3)), np.zeros((b, 3)),
                    np.zeros((b, n, 3, 3)), np.zeros((b, 3, n)))
        da = f[:, 1] - f[:, 0]
        db = f[:, 2] - f[:, 0]
        la, lb = np.sqrt((da * da).sum(1)), np.sqrt((db * db).sum(1))
        if (la < DEGENERATE_TOL).any() or (lb < DEGENERATE_TOL).any():
            raise DegenerateContactError(
                "contact frame collapsed: anchor image coincides with the pivot image "
                "(deformed contact area violates the rigid-contact assumption)"
            )
        n1, n2 = da / la[:, None], db / lb[:, None]
        n3 = cross(n1, n2)
        R = np.stack([n1, n2, n3], axis=2)
        d_da = jq[:, 1] - jq[:, 0]  # (b, 3, n)
        d_db = jq[:, 2] - jq[:, 0]
        # unit-vector derivatives: d(u/|u|) = (du - n (n . du))/|u|
        dn1 = (d_da - n1[:, :, None] * (n1[:, None] @ d_da)) / la[:, None, None]
        dn2 = (d_db - n2[:, :, None] * (n2[:, None] @ d_db)) / lb[:, None, None]
        dn1_t, dn2_t = dn1.swapaxes(1, 2), dn2.swapaxes(1, 2)  # (b, n, 3)
        dn3 = cross(dn1_t, n2[:, None]) + cross(n1[:, None], dn2_t)
        return R, f[:, 0], np.stack([dn1_t, dn2_t, dn3], axis=3), jq[:, 0]

    # -- body points in the contact frame -------------------------------------

    def framed_jacobian(self, f: Array, jq: Array, frame):
        """Body points in {S_i}, R_c^T (f - t_c), and their q-Jacobians, from
        the images f (b, m, 3), their q-Jacobians jq (b, m, 3, n) and the
        frames, one per row."""
        R, t, dR, dt = frame
        rel = f - t[:, None]
        ip = rel @ R
        jac = np.einsum("rmaj,rab->rmbj", jq - dt[:, None], R)
        if not self.free_tip:
            jac += np.einsum("rma,rjab->rmbj", rel, dR)
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
        groups = {}  # stage groups: the links that hold one handle, with joints of one size
        for i, lk in enumerate(self.links):
            groups.setdefault((lk.body, lk.joint.n_dof), []).append(i)
        self.groups = tuple(map(tuple, groups.values()))

    def __len__(self) -> int:
        return len(self.links)

    def slice(self, i: int) -> slice:
        return slice(int(self._offsets[i]), int(self._offsets[i + 1]))

    def rows(self, group, v: Array) -> Array:
        """The blocks of the links ``group`` of the states v, (n,) or (b, n), as one stack, link after link."""
        return np.concatenate([(v if v.ndim > 1 else v[None])[:, self.slice(i)] for i in group])

    def split(self, i: int, q: Array) -> tuple[Array, Array]:
        """(joint, body) sub-vectors of body i's coordinate block."""
        qi = q[self.slice(i)]
        nj = self.links[i].joint.n_dof
        return qi[:nj], qi[nj:]

    def check_state(self, *vectors) -> list[Array]:
        """The vectors as finite float arrays of one shape: one state (n,) or
        a stack of states (b, n); None gives zeros."""
        vs = [None if v is None else np.asarray(v, dtype=float) for v in vectors]
        vs = [v if v is None or v.ndim == 2 else v.reshape(-1) for v in vs]
        shape = next((v.shape for v in vs if v is not None), (self.n,))
        out = []
        for v in vs:
            v = np.zeros(shape) if v is None else v
            if v.shape[-1] != self.n:
                raise ValueError(f"state vector must have length {self.n}, got {v.shape[-1]}")
            if v.shape != shape:
                raise ValueError(f"state vectors must have one shape, got {v.shape} and {shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError("state vectors must be finite")
            out.append(v)
        return out


# -- link Jacobians and their rates --------------------------------------------

def link_jacobians(joint: Joint, frame, qi: Array):
    """Link transforms with their translation and angular-velocity Jacobians,
    one per row of qi (b, n_i).

    ``frame`` is the body's contact-frame data (R_c, t_c, dR_c, dt_c) at the
    body parts of the rows.  Returns (R_rel (b,3,3), t_rel (b,3),
    Jt (b,3,n_i), Jw (b,3,n_i)); columns are ordered joint coordinates
    first, then body coordinates.  Jw maps q̇_i to the relative angular
    velocity expressed in the parent frame {S_{i-1}}.
    """
    qi = np.asarray(qi, dtype=float)
    Rc, tc, dRc, dtc = frame
    nj, nb = joint.n_dof, dRc.shape[1]
    Rj, tj = joint.transform(qi[:, :nj])
    R_rel = Rj @ Rc
    Rj_tc = (Rj @ tc[..., None])[..., 0]
    t_rel = tj + Rj_tc
    Jt, Jw = np.zeros((2, qi.shape[0], 3, nj + nb))
    if nj:
        if joint.kind == "revolute":
            Jt[:, :, 0] = cross(joint.axis, Rj_tc)
            Jw[:, :, 0] = joint.axis
        else:  # prismatic
            Jt[:, :, 0] = joint.axis
    if nb:
        Jt[:, :, nj:] = Rj @ dtc
        d = (Rj[:, None] @ dRc) @ R_rel.swapaxes(1, 2)[:, None]  # (b, nb, 3, 3)
        Jw[:, :, nj:] = vee(d).swapaxes(1, 2)
    return R_rel, t_rel, Jt, Jw


def unit_rate(q: Array, qd: Array):
    """Where to evaluate the arrays whose time rates along paths through the
    rows of q (b, n) with velocities qd (b, n) are wanted, and the rates.

    The rates are linear in qd: one central difference along u = qd/|qd|,
    scaled by |qd|, keeps the cancellation noise independent of |qd|.
    Returns (points, rate, at): ``points`` stacks the rows of q and then, for
    every moving row, q + h u and q - h u (a row at rest adds none and has
    zero rates), ``at`` their rows of q; ``rate(a)`` maps an array evaluated
    at ``points`` (leading axis) to the rates at the rows of q.
    """
    b = q.shape[0]
    if not qd.any():
        return q, lambda a: np.zeros((b,) + a.shape[1:]), np.arange(b)
    speed = np.sqrt((qd * qd).sum(1))
    moving = np.flatnonzero(speed)
    h = JAC_RATE_STEP * np.maximum(1.0, np.sqrt((q[moving] * q[moving]).sum(1)))
    step = h[:, None] * (qd[moving] / speed[moving, None])
    scale = speed[moving] / (2.0 * h)
    k = moving.size

    def rate(a):
        out = np.zeros((b,) + a.shape[1:])
        out[moving] = scale.reshape((k,) + (1,) * (a.ndim - 1)) * (a[b:b + k] - a[b + k:])
        return out

    return (np.concatenate([q, q[moving] + step, q[moving] - step]), rate,
            np.concatenate([np.arange(b), moving, moving]))


# -- forward pass --------------------------------------------------------------

class LinkStage(NamedTuple):
    """The terms of link i that depend on its own block (q_i, q̇_i, q̈_i) alone,
    with the leading axes of the states they were staged at.

    The link transform, its Jacobians and their time rates, the body's
    integrals (which carry its evaluation), the stress terms of an elastic
    body in a sweep with stress and an actuation map's terms of the link in
    a statics residual; only the forward recursion couples the links.
    """

    R_rel: Array
    t_rel: Array
    Jt: Array
    Jw: Array
    Jt_dot: Array
    Jw_dot: Array
    data: integrals.BodyInertialData
    stress: tuple | None = None
    actuation: object = None

    def split(self, count: int, single: bool) -> list["LinkStage"]:
        """The stages of the ``count`` links of a group's record: their rows, or for one state its row."""
        b = len(self.R_rel) // count
        rows = [k if single else slice(k * b, (k + 1) * b) for k in range(count)]
        return [LinkStage(*(a[r] for a in self[:6]), self.data.take(r),
                          None if self.stress is None else tuple(tuple(a[r] for a in w) for w in self.stress),
                          None if self.actuation is None else self.actuation[k]) for k, r in enumerate(rows)]


def link_stage(chain: ChainModel, group, q: Array, qd: Array, qdd: Array, actuation=None) -> LinkStage:
    """Record of the stage group ``group``, or of one link ``(i,)``, at the
    checked states q, qd, qdd, one state (n,) or a stack (b, n), whose rows
    are the links' blocks one after the other (:meth:`LinkStage.split`).
    One body evaluation serves every row, at the row and, if it moves, at
    the row +- h u (:func:`unit_rate`), with the points of an ``actuation``
    map, whose terms of each link the record lists; the link Jacobians are
    taken per link on its rows, the integrals once over all rows."""
    lk = chain.links[group[0]]
    nj = lk.joint.n_dof
    qs, qds, qdds = (chain.rows(group, v) for v in (q, qd, qdd))
    b = len(qs) // len(group)
    points, rate, at = unit_rate(qs, qds)
    at //= b  # the link of each point
    xs = None if actuation is None else [actuation.points_on(i) for i in group]
    ev = lk.body.evaluate(points[:, nj:], None if xs is None else np.concatenate(xs))
    R_rel, t_rel, Jt, Jw = (np.empty((len(points),) + s) for s in ((3, 3), (3,)) + ((3, qs.shape[1]),) * 2)
    for k, i in enumerate(group):
        own = np.flatnonzero(at == k) if len(group) > 1 else slice(None)
        R_rel[own], t_rel[own], Jt[own], Jw[own] = link_jacobians(
            chain.links[i].joint, tuple(a[own] for a in ev.frame), points[own])
    Jt_dot, Jw_dot, Jp_dot = rate(Jt), rate(Jw), rate(ev.jac)
    terms = None
    if actuation is not None:  # each link reads its rows at q and its points' columns
        cols, (sol, f, jq) = np.cumsum([0] + [len(x) for x in xs]), ev.at_x
        cuts = [(slice(k * b, (k + 1) * b), slice(cols[k], cols[k + 1])) for k in range(len(group))]
        at_x = [(None if sol is None else tuple(a[c] for a in sol), f[c], jq[c]) for c in cuts]
        terms = [actuation.link_terms(chain, i, q, part) for i, part in zip(group, at_x)]
    ev = ev.take(slice(0, len(qs)))  # copies: the solve at the rate points is freed here
    data = integrals.body_integrals(lk.body, ev, Jp_dot, qds[:, nj:], qdds[:, nj:])
    return LinkStage(*(a[:len(qs)] for a in (R_rel, t_rel, Jt, Jw)), Jt_dot, Jw_dot, data, actuation=terms)


def chain_stages(chain: ChainModel, q: Array, stage) -> list[LinkStage]:
    """The links' stages at the checked states q from ``stage(group)``, each stage group's record."""
    stages = [None] * len(chain)
    for group in chain.groups:
        for i, st in zip(group, stage(group).split(len(group), q.ndim == 1)):
            stages[i] = st
    return stages


@dataclass
class BodyKin:
    """Per-body kinematic state produced by the forward pass (body frame {S_i}),
    with the state's leading axes."""

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
    stages: list[LinkStage]

    def __getitem__(self, i: int) -> BodyKin:
        return self.bodies[i]


def forward_pass(chain: ChainModel, q, qd=None, qdd=None, base_accel=None,
                 stages=None) -> KinematicsCache:
    """Forward recursion producing all body-frame velocities and accelerations.

    ``base_accel`` seeds the base linear acceleration; None selects -gravity,
    which folds the gravitational force into the inertial terms.  Pass zeros
    to compute purely inertial kinematics (the dynamics algorithms do, and
    add explicit gravity terms instead).  ``stages`` are the links'
    :class:`LinkStage` at this state, computed here when None.  The state
    may be a stack (b, n); then every array of the result has the row axis.
    """
    q, qd, qdd = chain.check_state(q, qd, qdd)
    if base_accel is None:
        base_accel = -chain.gravity
    base_accel = np.asarray(base_accel, dtype=float)
    if stages is None:
        stages = chain_stages(chain, q, lambda group: link_stage(chain, group, q, qd, qdd))

    bodies: list[BodyKin] = []
    R_parent = chain.base.rotation
    t_parent = chain.base.translation
    v_p = np.zeros(3)
    w_p = np.zeros(3)
    a_p = base_accel.copy()
    wd_p = np.zeros(3)

    for i, st in enumerate(stages):
        sl = chain.slice(i)
        qdi, qddi = qd[..., sl], qdd[..., sl]
        R_rel, t_rel, Jt, Jw, data = st.R_rel, st.t_rel, st.Jt, st.Jw, st.data

        v_rel = matvec(Jt, qdi)
        w_rel = matvec(Jw, qdi)
        a_rel = matvec(Jt, qddi) + matvec(st.Jt_dot, qdi)
        wdot_rel = matvec(Jw, qddi) + matvec(st.Jw_dot, qdi)

        RT = R_rel.swapaxes(-1, -2)
        v = matvec(RT, v_p + cross(w_p, t_rel) + v_rel)
        w = matvec(RT, w_p + w_rel)
        a = matvec(RT, (
            a_p
            + cross(wd_p, t_rel)
            + cross(w_p, cross(w_p, t_rel) + v_rel)
            + cross(w_p, v_rel)
            + a_rel
        ))
        wdot = matvec(RT, wd_p + cross(w_p, w_rel) + wdot_rel)

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
            R_base=R_parent @ R_rel, t_base=t_parent + matvec(R_parent, t_rel),
            Jt=Jt, Jw=Jw, v=v, w=w, a=a, wdot=wdot, v_com=v_com, a_com=a_com,
            Pv=Jt.swapaxes(-1, -2) @ R_rel, Pw=Jw.swapaxes(-1, -2) @ R_rel,
            data=data,
        ))
        R_parent = bodies[-1].R_base
        t_parent = bodies[-1].t_base
        v_p, w_p, a_p, wd_p = v, w, a, wdot

    return KinematicsCache(bodies=bodies, base_accel=base_accel, stages=stages)


def forward_kinematics(chain: ChainModel, q, points_per_body=None) -> list[dict]:
    """Base-frame poses of every joint frame {S_J_i} ("joint") and contact
    frame {S_i} ("body"), and the base-frame images ("points", (m_i, 3)) of
    the material points ``points_per_body[i]`` (none when None).

    Each body is solved once, at its anchors and its points together.
    """
    (q,) = chain.check_state(q)
    out = []
    T = chain.base
    for i, lk in enumerate(chain.links):
        qj, qb = chain.split(i, q)
        x = np.zeros((0, 3)) if points_per_body is None else np.asarray(points_per_body[i], dtype=float)
        _, (Rc, tc, _, _), f, _ = lk.body.place(qb[None], x)
        T_joint = T.compose(Transform(*lk.joint.transform(qj)))
        T = T_joint.compose(Transform(Rc[0], tc[0]))
        out.append({"joint": T_joint, "body": T, "points": T_joint.apply(f[0])})
    return out
