"""Chain assembly and the forward differential-kinematics pass.

A chain is an ordered list of (joint, body) links hanging from a fixed base.
Each body carries three anchor points in its reference configuration: the
pivot x_j of the successor joint and two contact-area points x_a, x_b whose
offsets from x_j are orthogonal.  The images of the anchors under the body
map define the contact frame {S_i}; the joint transform and the contact
frame compose into the link transform X_i, a 6x6 map of (linear; angular)
6-vectors (Featherstone, *Rigid Body Dynamics Algorithms*, ch. 2).  The
body-frame velocities and accelerations follow from the base by the
recurrences V_i = X_i V_{i-1} + Y_i and A_i = X_i A_{i-1} + Z_i, one 6x6
product and one add per link; every other per-link term is taken for all
links at once, on a leading link axis (:func:`forward_pass`).

Relative velocities and accelerations come from configuration Jacobians of
the link transform, assembled from the body model's derivative supply, and
their time rates by the product rule from the tangents f_dot = (df/dq) q̇
and the rate of df/dq, which the body model gives from the solve at the
velocities (:meth:`~softid.bodies.BodyModel.jac_q_rate`); the stage
differences nothing.  All of a link's terms that depend on its own
coordinate block alone, with a sweep's stress terms and an actuation map's
terms, form its stage; a sweep reads all links' stages as one record on a
link axis (:class:`LinkStage`), and only the recurrences couple them, so
one changed block restages one link.  Outside the recursion,
:func:`forward_kinematics` is the one walk of the chain: frame poses and
base-frame images of material points, one body solve per body.

A state is one vector (n,) or a stack of states (b, n), whose leading axes
every array of the record, and of the forward pass, has after its link
axis; a record without rows broadcasts against stacked ones.  The links
that hold one body handle (one per distinct body document of a parsed
chain) and joints of one size form a stage group (:attr:`ChainModel.groups`),
which :func:`link_stage` stages as one stack of its links' blocks: one
solve of the body at every row, with the velocities where a row moves, one
call of the link Jacobians over all rows with each row's joint data, and
the integrals once over the stack.
Every product is one row's own, a BLAS product or a multiply-add over the
3-axis, never one across rows, so a state swept in a stack, or a link
staged in its group, equals it alone, bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .bodies import integrals  # called through the module, so wrappers on it see the calls
from .errors import BodyDomainError, CentroidConsistencyError, DegenerateContactError
from .spatial import Transform, cross, matvec, rodrigues, skew, vee

Array = np.ndarray

ANCHOR_ORTHO_TOL = 1e-12
DEGENERATE_TOL = 1e-12


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
        # the transform as data: R = R_0 + sin(q) K + (1 - cos q) K^2 (rodrigues' own K), t = t_0 + slide q
        zero = np.zeros(3)
        spin = self.axis if self.kind == "revolute" else zero
        K = skew(spin / np.linalg.norm(spin)) if self.kind == "revolute" else np.zeros((3, 3))
        object.__setattr__(self, "parts", (self.rotation, self.translation, spin,
                                           self.axis if self.kind == "prismatic" else zero, K, K @ K))

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
    configuration.  At velocities, the frame data carries its rates
    (:meth:`BodyHandle.contact_frame_data`) and ``jac_dot`` is the rate of
    ``jac``."""

    sol: object
    frame: tuple
    points: Array
    jac: Array
    jac_dot: Array | None = None
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

    def place(self, qb: Array, x: Array, qdb: Array | None = None):
        """One solve of the body map at the anchors and x (m, 3) together,
        for every row of the stack qb (b, n).

        Returns the model's solution, the contact-frame data, f(x, qb)
        (b, m, 3), df/dq at x (b, m, 3, n) and, with the velocities qdb
        (b, n), the rates of f and of df/dq (the model's, solved with qdb) at
        x (else None); the frame data then carries its rates.
        """
        model, k = self.model, self.n_anchors
        xs = np.concatenate([self.points[:k], x])
        sol = model.solve(xs, qb, qdb)
        f, jq = model.position(xs, qb, sol), model.jac_q(xs, qb, sol)
        if qdb is None:
            return sol, self.contact_frame_data(f[:, :k], jq[:, :k]), f[:, k:], jq[:, k:], None
        f_dot, jq_dot = matvec(jq, qdb[:, None]), model.jac_q_rate(xs, qb, qdb, sol)
        frame = self.contact_frame_data(f[:, :k], jq[:, :k], f_dot[:, :k], jq_dot[:, :k])
        return sol, frame, f[:, k:], jq[:, k:], (f_dot[:, k:], jq_dot[:, k:])

    def evaluate(self, qb: Array, x: Array | None = None, qdb: Array | None = None) -> BodyEval:
        """One solve of the body map at the stack qb (b, n) on :attr:`points`
        and after them, which leaves their rows as they are, on x (m, 3);
        with the velocities qdb (b, n), with the rates."""
        if self.rigid is not None and x is None:
            ev = self.rigid[0].take(np.zeros(len(qb), dtype=int))
            return ev if qdb is None else ev._replace(frame=ev.frame + tuple(np.zeros_like(a) for a in ev.frame),
                                                      jac_dot=np.zeros_like(ev.jac))
        nodes = self.points[self.n_anchors:]
        m = len(nodes)
        sol, frame, f, jq, rates = self.place(qb, nodes if x is None else np.concatenate([nodes, x]), qdb)
        framed = self.framed_jacobian(f[:, :m], jq[:, :m], frame, *(() if rates is None else (a[:, :m] for a in rates)))
        if x is None:
            return BodyEval(sol, frame, *framed)
        k = len(self.points)
        sols = (None, None) if sol is None else (tuple(a[:, :k] for a in sol), tuple(a[:, k:] for a in sol))
        return BodyEval(sols[0], frame, *framed, at_x=(sols[1], f[:, m:], jq[:, m:]))

    # -- contact frame -------------------------------------------------------

    def contact_frame_data(self, f: Array, jq: Array, f_dot: Array | None = None, jq_dot: Array | None = None):
        """Contact frames (R_c (b,3,3), t_c (b,3), dR_c (b,n,3,3), dt_c (b,3,n))
        from the anchor images f (b, 3, 3) and their q-Jacobians jq
        (b, 3, 3, n), one per row; the identity for a free tip.  With the
        tangents f_dot (b, 3, 3) and jq_dot (b, 3, 3, n), the rates of f and
        jq, the four rates follow, by the product rule.  A row whose anchor
        images collapse raises :class:`DegenerateContactError` naming it."""
        b, n = f.shape[0], self.n_dof
        if self.free_tip:
            frame = (np.broadcast_to(np.eye(3), (b, 3, 3)), np.zeros((b, 3)),
                     np.zeros((b, n, 3, 3)), np.zeros((b, 3, n)))
            return frame if f_dot is None else frame + (np.zeros((b, 3, 3)),) + frame[1:]
        da = f[:, 1] - f[:, 0]
        db = f[:, 2] - f[:, 0]
        la, lb = np.sqrt((da * da).sum(1)), np.sqrt((db * db).sum(1))
        collapsed = (la < DEGENERATE_TOL) | (lb < DEGENERATE_TOL)
        if collapsed.any():
            raise DegenerateContactError(
                "contact frame collapsed: anchor image coincides with the pivot image "
                "(deformed contact area violates the rigid-contact assumption)", int(np.flatnonzero(collapsed)[0]))
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
        frame = (R, f[:, 0], np.stack([dn1_t, dn2_t, dn3], axis=3), jq[:, 0])
        if f_dot is None:
            return frame

        def rates(n, dn, length, du, u_dot, du_dot):
            """Rates of n = u/|u| and of dn (b, n, 3), from those of u and du."""
            n_dot = (u_dot - n * (n * u_dot).sum(1)[:, None]) / length[:, None]
            dn_dot = (du_dot - n[:, :, None] * (n[:, None] @ du_dot) - n_dot[:, :, None] * (n[:, None] @ du)
                      - n[:, :, None] * (n_dot[:, None] @ du)) / length[:, None, None]
            return n_dot, (dn_dot - dn * ((n * u_dot).sum(1) / length)[:, None, None]).swapaxes(1, 2)

        n1_dot, dn1_dot = rates(n1, dn1, la, d_da, f_dot[:, 1] - f_dot[:, 0], jq_dot[:, 1] - jq_dot[:, 0])
        n2_dot, dn2_dot = rates(n2, dn2, lb, d_db, f_dot[:, 2] - f_dot[:, 0], jq_dot[:, 2] - jq_dot[:, 0])
        n3_dot = cross(n1_dot, n2) + cross(n1, n2_dot)
        dn3_dot = (cross(dn1_dot, n2[:, None]) + cross(dn1_t, n2_dot[:, None])
                   + cross(n1_dot[:, None], dn2_t) + cross(n1[:, None], dn2_dot))
        return frame + (np.stack([n1_dot, n2_dot, n3_dot], axis=2), f_dot[:, 0],
                        np.stack([dn1_dot, dn2_dot, dn3_dot], axis=3), jq_dot[:, 0])

    # -- body points in the contact frame -------------------------------------

    def framed_jacobian(self, f: Array, jq: Array, frame, f_dot: Array | None = None, jq_dot: Array | None = None):
        """Body points in {S_i}, R_c^T (f - t_c), and their q-Jacobians, from
        the images f (b, m, 3), their q-Jacobians jq (b, m, 3, n) and the
        frames, one per row: BLAS products of a row's own, the differences
        taken with the nodes innermost (where t_c and dt_c are one number).
        With the tangents f_dot, jq_dot (the rates of f and jq) and a frame
        with its rates, the Jacobians' rate follows, by the product rule."""
        R, t, dR, dt = frame[:4]
        rel = np.subtract(f.swapaxes(1, 2), t[:, :, None], order="C").swapaxes(1, 2)
        ip = rel @ R
        d = np.subtract(jq.transpose(0, 3, 2, 1), dt.swapaxes(1, 2)[..., None], order="C").swapaxes(2, 3)
        jac = d @ R[:, None]  # (b, n, m, 3)
        if not self.free_tip:
            jac += rel[:, None] @ dR
        # C-contiguous: a BLAS product may sum a strided layout in another order
        jac = np.ascontiguousarray(jac.transpose(0, 2, 3, 1))
        if f_dot is None:
            return ip, jac
        R_dot, t_dot, dR_dot, dt_dot = frame[4:]
        d_dot = np.subtract(jq_dot.transpose(0, 3, 2, 1), dt_dot.swapaxes(1, 2)[..., None], order="C").swapaxes(2, 3)
        jac_dot = d_dot @ R[:, None] + d @ R_dot[:, None]
        if not self.free_tip:
            jac_dot += (f_dot - t_dot[:, None])[:, None] @ dR + rel[:, None] @ dR_dot
        return ip, jac, np.ascontiguousarray(jac_dot.transpose(0, 2, 3, 1))


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
        # each stage group's and each link's joint data (Joint.parts), stacked link after link
        self._joints = {g: tuple(map(np.array, zip(*(self.links[i].joint.parts for i in g))))
                        for g in self.groups + tuple((i,) for i in range(len(self.links)))}
        self.width = max(lk.n_dof for lk in self.links)
        self.columns = np.concatenate([i * self.width + np.arange(lk.n_dof) for i, lk in enumerate(self.links)])

    def __len__(self) -> int:
        return len(self.links)

    def slice(self, i: int) -> slice:
        return slice(int(self._offsets[i]), int(self._offsets[i + 1]))

    def rows(self, group, v: Array) -> Array:
        """The blocks of the links ``group`` of the states v, (n,) or (b, n), as one stack, link after link."""
        return np.concatenate([(v if v.ndim > 1 else v[None])[:, self.slice(i)] for i in group])

    def joints(self, group, b: int) -> tuple:
        """The joint data of the links ``group`` (:attr:`Joint.parts`) per row
        of their stack (:meth:`rows`), b rows each."""
        parts = self._joints[tuple(group)]
        return parts if b == 1 else tuple(np.repeat(a, b, axis=0) for a in parts)

    def to_links(self, v: Array) -> Array:
        """The states v (..., n) in link columns (N, ..., width): each link's block, zero-padded."""
        out = np.zeros(v.shape[:-1] + (len(self) * self.width,))
        out[..., self.columns] = v
        return np.ascontiguousarray(out.reshape(v.shape[:-1] + (len(self), self.width)).swapaxes(0, -2))

    def from_links(self, a: Array) -> Array:
        """Link-column arrays (N, ..., width) in the chain's columns (..., n)."""
        out = a.transpose(tuple(range(1, a.ndim - 1)) + (0, a.ndim - 1)).reshape(a.shape[1:-1] + (-1,))
        return out if self.n == out.shape[-1] else out[..., self.columns]

    def split(self, i: int, q: Array) -> tuple[Array, Array]:
        """(joint, body) sub-vectors of body i's coordinate block."""
        qi = q[self.slice(i)]
        nj = self.links[i].joint.n_dof
        return qi[:nj], qi[nj:]

    def check_state(self, *vectors) -> list[Array]:
        """The vectors as finite float arrays of one shape: one state (n,) or
        a stack of states (b, n), b >= 1; None gives zeros."""
        vs = [None if v is None else np.asarray(v, dtype=float) for v in vectors]
        shape = next((v.shape for v in vs if v is not None), (self.n,))
        out = []
        for v in vs:
            v = np.zeros(shape) if v is None else v
            if v.ndim not in (1, 2) or v.shape[:-1] == (0,):
                raise ValueError(f"a state must be (n,) or a stack (b, n), b >= 1, n = {self.n}; got shape {v.shape}")
            if v.shape[-1] != self.n:
                raise ValueError(f"state vector must have length {self.n}, got {v.shape[-1]}")
            if v.shape != shape:
                raise ValueError(f"state vectors must have one shape, got {v.shape} and {shape}")
            if not np.isfinite(v).all():
                raise ValueError("state vectors must be finite")
            out.append(v)
        return out


# -- link Jacobians and their rates --------------------------------------------

def link_jacobians(joints, frame, qi: Array, qdi: Array | None = None):
    """Link transforms with their translation and angular-velocity Jacobians,
    one per row of qi (b, n_i), and with the velocities qdi (b, n_i) their
    time rates.

    ``joints`` holds each row's joint data (:attr:`Joint.parts`): the
    transform R_j = R_0 + sin(q) K + (1 - cos q) K^2, t_j = t_0 + slide q,
    with the revolute axis (``spin``, K = skew(spin)) and the prismatic
    one (``slide``), zero where the joint does not turn or slide.
    ``frame`` is the body's contact-frame data (R_c, t_c, dR_c, dt_c) at the
    body parts of the rows, followed by their rates with qdi.  Returns
    (R_rel (b,3,3), t_rel (b,3), Jt (b,3,n_i), Jw (b,3,n_i)) and with qdi
    (Jt_dot, Jw_dot), by the product rule, with dR_j/dt = K R_j qd_j;
    columns are ordered joint coordinates first, then body coordinates.  Jw
    maps q̇_i to the relative angular velocity expressed in the parent frame
    {S_{i-1}}.
    """
    R0, t0, spin, slide, K, K2 = joints
    Rc, tc, dRc, dtc = frame[:4]
    b, nb = qi.shape[0], dRc.shape[1]
    nj = qi.shape[1] - nb
    if nj:
        angle = qi[:, :1, None]
        Rj, tj = R0 + np.sin(angle) * K + (1.0 - np.cos(angle)) * K2, t0 + slide * qi[:, :1]
    else:
        Rj, tj = R0, t0
    R_rel = Rj @ Rc
    Rj_tc = (Rj @ tc[..., None])[..., 0]
    t_rel = tj + Rj_tc
    Jt, Jw = np.zeros((2, b, 3, nj + nb))
    if nj:
        Jt[:, :, 0] = cross(spin, Rj_tc) + slide
        Jw[:, :, 0] = spin
    if nb:
        Jt[:, :, nj:] = Rj @ dtc
        RjdRc = Rj[:, None] @ dRc
        Jw[:, :, nj:] = vee(RjdRc @ R_rel.swapaxes(1, 2)[:, None]).swapaxes(1, 2)  # (b, nb, 3, 3) before vee
    if qdi is None:
        return R_rel, t_rel, Jt, Jw
    Rc_dot, tc_dot, dRc_dot, dtc_dot = frame[4:]
    Jt_dot, Jw_dot = np.zeros((2, b, 3, nj + nb))
    # the body's rates, then the joint's: the rates of Rj dtc, R_rel = Rj R_c and Rj dR_c
    Jt_dot[:, :, nj:], R_rel_dot, RjdRc_dot = Rj @ dtc_dot, Rj @ Rc_dot, Rj[:, None] @ dRc_dot
    if nj:
        Rj_dot = (K @ Rj) * qdi[:, :1, None]
        Jt_dot[:, :, 0] = cross(spin, (Rj_dot @ tc[..., None] + Rj @ tc_dot[..., None])[..., 0])
        Jt_dot[:, :, nj:] += Rj_dot @ dtc
        R_rel_dot += Rj_dot @ Rc
        RjdRc_dot += Rj_dot[:, None] @ dRc
    if nb:
        Jw_dot[:, :, nj:] = vee(RjdRc_dot @ R_rel.swapaxes(1, 2)[:, None]
                                + RjdRc @ R_rel_dot.swapaxes(1, 2)[:, None]).swapaxes(1, 2)
    return R_rel, t_rel, Jt, Jw, Jt_dot, Jw_dot


# -- forward pass --------------------------------------------------------------

class LinkStage(NamedTuple):
    """The terms of links that depend on each one's own block alone: the link
    transform, its Jacobians and their rates, the body's integrals, an
    elastic body's stress terms and an actuation map's terms, by link.  A
    stage group's record (:func:`link_stage`) has its links' blocks as rows;
    a sweep's (:func:`chain_stages`) leads with the link axis, in link
    columns, and keeps in ``bodies`` each group's links, joint size,
    integrals and the states' leading axes."""

    R_rel: Array
    t_rel: Array
    Jt: Array
    Jw: Array
    Jt_dot: Array
    Jw_dot: Array
    data: integrals.BodyInertialData
    stress: tuple | None = None
    actuation: list | None = None
    bodies: tuple = ()


def _row_error(e, group, b: int, single: bool):
    """Error ``e`` of row ``e.row`` of the group's stack naming the link and the state row."""
    if e.row is None:
        return type(e)(f"link {', '.join(map(str, group))}: {e.message}")
    k, r = divmod(e.row, b)
    return type(e)(f"link {group[k]}: {e.message}", None if single else r)


def _terms(chain: ChainModel, group, q, actuation, xs, at_x):
    """The terms of ``actuation`` of each link of ``group``: its rows at q
    of ``at_x`` (sol, f, df/dq at the points ``xs`` of the links) and its
    points' columns."""
    b, cols, (sol, f, jq) = 1 if q.ndim == 1 else len(q), np.cumsum([0] + [len(x) for x in xs]), at_x
    cuts = [(slice(k * b, (k + 1) * b), slice(cols[k], cols[k + 1])) for k in range(len(group))]
    return [actuation.link_terms(chain, i, q, (None if sol is None else tuple(a[c] for a in sol), f[c], jq[c]))
            for i, c in zip(group, cuts)]


def link_stage(chain: ChainModel, group, q: Array, qd: Array, qdd: Array, actuation=None) -> LinkStage:
    """Record of the stage group ``group``, or of one link ``(i,)``, at the
    checked states q, qd, qdd, one state (n,) or a stack (b, n), whose rows
    are the links' blocks one after the other.  One body evaluation serves
    every row, with the points of an ``actuation`` map, whose terms of each
    link the record lists, and with the rates where a row moves
    (:meth:`BodyHandle.evaluate`); one call takes the link Jacobians and
    their rates of all rows, one the integrals.  Their typed errors name the
    link and the state row."""
    lk = chain.links[group[0]]
    nj = lk.joint.n_dof
    qs, qds, qdds = (chain.rows(group, v) for v in (q, qd, qdd))
    b = len(qs) // len(group)
    moving = qds.any()
    xs = None if actuation is None else [actuation.points_on(i) for i in group]
    try:
        ev = lk.body.evaluate(qs[:, nj:], None if xs is None else np.concatenate(xs), qds[:, nj:] if moving else None)
        R_rel, t_rel, Jt, Jw, *rates = link_jacobians(chain.joints(group, b), ev.frame, qs, qds if moving else None)
        Jt_dot, Jw_dot = rates if moving else np.zeros((2,) + Jt.shape)
        # the integrals keep the evaluation's values at the nodes, whatever the other rows' rates
        data = integrals.body_integrals(lk.body, ev._replace(frame=ev.frame[:4], jac_dot=None, at_x=None),
                                        ev.jac_dot if moving else np.zeros_like(ev.jac), qds[:, nj:], qdds[:, nj:])
        terms = None if actuation is None else _terms(chain, group, q, actuation, xs, ev.at_x)
    except (DegenerateContactError, CentroidConsistencyError, BodyDomainError) as e:
        raise _row_error(e, group, b, q.ndim == 1) from e
    return LinkStage(R_rel, t_rel, Jt, Jw, Jt_dot, Jw_dot, data, actuation=terms)


def place_stage(chain: ChainModel, group, q: Array, actuation) -> LinkStage:
    """:func:`link_stage` at rest for an ``actuation`` map alone, bitwise:
    the body placed at its anchors and the map's points, no nodes, rates
    or integrals (those fields None)."""
    lk, qs = chain.links[group[0]], chain.rows(group, q)
    b, xs = len(qs) // len(group), [actuation.points_on(i) for i in group]
    try:
        sol, frame, f, jq, _ = lk.body.place(qs[:, lk.joint.n_dof:], np.concatenate(xs))
    except (DegenerateContactError, BodyDomainError) as e:
        raise _row_error(e, group, b, q.ndim == 1) from e
    sol = None if sol is None else tuple(a[:, lk.body.n_anchors:] for a in sol)
    return LinkStage(*link_jacobians(chain.joints(group, b), frame, qs), None, None, None,
                     actuation=_terms(chain, group, q, actuation, xs, (sol, f, jq)))


# trailing axes of the stage arrays and the integrals the sweep reads; "n": coordinates
_STAGE_AXES = ((3, 3), (3,), (3, "n"), (3, "n"), (3, "n"), (3, "n"))
_INTEGRAL_AXES = {"p_com": (3,), "pdot_com": (3,), "pddot_com": (3,), "inertia": (3, 3), "inertia_rate": (3, 3),
                  "mom_rd": (3,), "mom_rdd": (3,), "jac_com": (3, "n"), "jac_mom_rd": (3, "n"), "proj_rdd": ("n",),
                  "proj_cor": ("n", 3), "inertia_grad": ("n", 3, 3), "gram": ("n", "n")}
# a record's arrays: the stage's 6, the 13 integrals' (coordinates after the joint's), the elastic and damping 3 each
_RECORD_AXES = _STAGE_AXES + tuple(_INTEGRAL_AXES.values()) + ((3,), (3,), ("n",)) * 2


def chain_stages(chain: ChainModel, q: Array, stage, base: LinkStage | None = None, link=None) -> LinkStage:
    """The sweep's record at the checked states q: each stage group's record
    ``stage(group)``, its rows reshaped to (links, *rows), in its links'
    slots.  ``base``: the record of states that differ from q in link
    ``link``'s block alone; that link alone is staged, as a group of one, and
    every other slot is ``base``'s, broadcast to the rows of q."""
    N, lead, staged = len(chain), q.shape[:-1], []
    for g in chain.groups if base is None else [(link,)]:
        lk = chain.links[g[0]]  # slots (a slice where they run in order), columns from 0 or the joint's (None: all)
        cut = [slice(nj, lk.n_dof) if (nj, lk.n_dof) != (0, chain.width) else None for nj in (0, lk.joint.n_dof)]
        staged.append((slice(g[0], g[-1] + 1) if g == tuple(range(g[0], g[-1] + 1)) else list(g), g, cut, stage(g)))

    def arrays(st):  # a record's arrays in the order of _RECORD_AXES, None where it has none
        return [*st[:6], *(getattr(st.data, f, None) for f in _INTEGRAL_AXES), *sum(st.stress or ((None,) * 6,), ())]

    old, parts, out = arrays(base) if base else [None] * len(_RECORD_AXES), [arrays(st) for *_, st in staged], []
    shapes = {axes: (N,) + lead + tuple(chain.width if s == "n" else s for s in axes) for axes in set(_RECORD_AXES)}
    for k, axes in enumerate(_RECORD_AXES):
        if old[k] is None and all(p[k] is None for p in parts):
            out.append(None)
            continue
        out.append(np.zeros(shapes[axes]))
        if old[k] is not None:  # broadcast to the rows of q
            out[k][...] = old[k].reshape(old[k].shape[:1] + (1,) * (out[k].ndim - old[k].ndim) + old[k].shape[1:])
        for (slots, group, cut, _), a in zip(staged, [p[k] for p in parts]):
            if a is not None:  # a rigid body's integrals have no rows
                at = () if (c := cut[6 <= k < 19]) is None else tuple(c if s == "n" else slice(None) for s in axes)
                out[k][(slots, ...) + at] = a if a.ndim == len(axes) else a.reshape((len(group),) + lead + a.shape[1:])
    mass = np.zeros(N) if base is None or base.data is None else base.data.mass.reshape(N).copy()
    actuation = [None] * N if base is None else list(base.actuation)
    for slots, group, _, st in staged:
        mass[slots] = 0.0 if st.data is None else st.data.mass  # a placed record has no integrals
        for i, terms in zip(group, st.actuation or ()):
            actuation[i] = terms
    data = None if out[6] is None else integrals.BodyInertialData(
        mass=mass.reshape((N,) + (1,) * (len(lead) + 1)), jacdot_com=None, **dict(zip(_INTEGRAL_AXES, out[6:19])))
    bodies = tuple((g, chain.links[g[0]].joint.n_dof, st.data, lead) for _, g, _, st in staged)
    return LinkStage(*out[:6], data, None if out[19] is None else (tuple(out[19:22]), tuple(out[22:])), actuation,
                     bodies if base is None else base.bodies + bodies)


@dataclass
class BodyKin:
    """Kinematic state of the bodies from the forward pass in their frames
    {S_i}, on a leading link axis before the state's leading axes
    (:attr:`KinematicsCache.links`; ``cache[i]`` is link i's).  Columns are
    link columns (:meth:`ChainModel.to_links`).  X maps a 6-vector of
    {S_{i-1}} into {S_i}, X^T a wrench (force; moment) of {S_i} into
    {S_{i-1}}; S = (R_rel^T Jt; R_rel^T Jw) maps q̇_i into {S_i}."""

    R_rel: Array
    t_rel: Array
    R_base: Array
    t_base: Array
    Jt: Array
    Jw: Array
    X: Array
    S: Array
    v: Array
    w: Array
    a: Array
    wdot: Array
    v_com: Array
    a_com: Array
    data: integrals.BodyInertialData

    Pv = property(lambda self: self.S[..., :3, :].swapaxes(-1, -2))
    Pw = property(lambda self: self.S[..., 3:, :].swapaxes(-1, -2))


@dataclass
class KinematicsCache:
    links: BodyKin
    base_accel: Array
    stages: LinkStage

    def __getitem__(self, i: int) -> BodyKin:
        """Link i's entries, its own columns and its stage group's integrals at its rows."""
        group, nj, data, lead = next(part for part in reversed(self.stages.bodies) if i in part[0])
        lk, n, k = self.links, nj + data.jac_com.shape[-1], group.index(i)
        return BodyKin(**{**{f.name: getattr(lk, f.name)[i] for f in fields(lk) if f.name != "data"},
                          **{name: getattr(lk, name)[i][..., :n] for name in ("Jt", "Jw", "S")}},
                       data=data.take(slice(k * lead[0], (k + 1) * lead[0]) if lead else k))

    @property
    def bodies(self) -> list[BodyKin]:
        return [self[i] for i in range(len(self.links.R_rel))]


def forward_pass(chain: ChainModel, q, qd=None, qdd=None, base_accel=None,
                 stages=None) -> KinematicsCache:
    """The forward recursions: every body's velocity and acceleration in its frame.

    The stages' record holds every per-link term on the link axis, taken
    for all links at once; link by link run only V_i = X_i V_{i-1} + Y_i,
    V = (v; ω), then A_i = X_i A_{i-1} + Z_i, whose velocity products Z read
    the parents' ω, and the product R_base.  ``base_accel`` seeds the base
    linear acceleration; None selects -gravity, which folds gravity into the
    inertial terms (the dynamics algorithms pass zeros and add explicit
    gravity terms).  ``stages``: the record of the stages at this state,
    built here when None.  At a stack of states (b, n) every product is
    taken per link and row, so row r is the state alone, bitwise.
    """
    q, qd, qdd = chain.check_state(q, qd, qdd)
    base_accel = np.asarray(-chain.gravity if base_accel is None else base_accel, dtype=float)
    if stages is None:
        stages = chain_stages(chain, q, lambda group: link_stage(chain, group, q, qd, qdd))
    N, lead = len(chain), q.shape[:-1]
    R, t, Jt, Jw, Jt_dot, Jw_dot, data = stages[:7]

    RT = R.swapaxes(-1, -2)
    B = np.zeros(R.shape[:-2] + (6, 6))  # a 6-vector of {S_{i-1}} in {S_i}
    B[..., :3, :3] = B[..., 3:, 3:] = RT
    X = B.copy()
    X[..., :3, 3:] = RT @ skew(-t)
    J, J_dot = np.concatenate([Jt, Jw], -2), np.concatenate([Jt_dot, Jw_dot], -2)
    qd_l, qdd_l = chain.to_links(qd)[..., None], chain.to_links(qdd)[..., None]
    U = J @ qd_l  # (v_rel; w_rel) in {S_{i-1}}
    V, A = np.zeros((2, N + 1) + lead + (6, 1))  # the base's, then the links'
    V[1:] = B @ U
    R_base, R_p = np.empty(R.shape), chain.base.rotation
    for i in range(N):
        V[i + 1] += X[i] @ V[i]
        R_base[i] = R_p = R_p @ R[i]
    wp, Z = V[:-1, ..., 3:, 0], U.reshape(U.shape[:-2] + (2, 3)).copy()  # Z: ω_p x (ω_p x t + 2 v_rel; w_rel)
    Z[..., 0, :] += cross(wp, t) + Z[..., 0, :]
    A[0, ..., :3, 0] = base_accel
    A[1:] = B @ (cross(wp[..., None, :], Z).reshape(U.shape) + J @ qdd_l + J_dot @ qd_l)
    for i in range(N):
        A[i + 1] += X[i] @ A[i]

    t_base = chain.base.translation + np.cumsum(
        np.concatenate([matvec(chain.base.rotation, t[:1]), matvec(R_base[:-1], t[1:])]), 0)
    v, w, a, wdot = V[1:, ..., :3, 0], V[1:, ..., 3:, 0], A[1:, ..., :3, 0], A[1:, ..., 3:, 0]
    p, pd = data.p_com, data.pdot_com
    w_p = cross(w, p)
    v_com = v + w_p + pd
    a_com = a + cross(wdot, p) + cross(w, w_p + 2.0 * pd) + data.pddot_com
    return KinematicsCache(BodyKin(R, t, R_base, t_base, Jt, Jw, X, B @ J, v, w, a, wdot, v_com, a_com, data),
                           base_accel, stages)


def forward_kinematics(chain: ChainModel, q, points_per_body=None) -> list[dict]:
    """Base-frame poses of every joint frame {S_J_i} ("joint") and contact
    frame {S_i} ("body"), and the base-frame images ("points", (m_i, 3)) of
    the material points ``points_per_body[i]`` (none when None).

    Each body is solved once, at its anchors and its points together.
    """
    (q,) = chain.check_state(q)
    if q.ndim != 1:
        raise ValueError(f"forward_kinematics takes one state ({chain.n},), got a stack of shape {q.shape}")
    out = []
    T = chain.base
    for i, lk in enumerate(chain.links):
        qj, qb = chain.split(i, q)
        x = np.zeros((0, 3)) if points_per_body is None else np.asarray(points_per_body[i], dtype=float)
        _, (Rc, tc, _, _), f, _, _ = lk.body.place(qb[None], x)
        T_joint = T.compose(Transform(*lk.joint.transform(qj)))
        T = T_joint.compose(Transform(Rc[0], tc[0]))
        out.append({"joint": T_joint, "body": T, "points": T_joint.apply(f[0])})
    return out
