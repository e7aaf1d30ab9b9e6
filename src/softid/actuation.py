"""Actuation maps projecting inputs into the configuration space.

Virtual work fixes the projection: with actuator lengths l(q) (or chamber
volumes V(q)), the generalized actuation force is nu = A(q) u with
A(q) = (dl/dq)^T, so that dq^T nu = dl^T u for every virtual displacement.
Each map gets l and dl/dq analytically from the sweep's stage record
(:func:`~softid.kinematics.chain_stages`), whose stage groups solve the
map's material points with their bodies and which lists the map's terms of
each link; the map reads link i's entries of the record, composes them
along the chain and evaluates no body itself.  Like the dynamics sweep, a
map takes one state (n,) or a stack of states (b, n), and a record without
rows broadcasts against stacked ones; a row equals the state alone,
bitwise.
"""

from __future__ import annotations

import numpy as np

from .errors import NonOrthonormalFrameError
from .kinematics import ChainModel, chain_stages, place_stage
from .quadrature import ReferenceDomain
from .spatial import cross, is_rotation, matvec, matvec3

Array = np.ndarray


class ActuationMap:
    """Base: per-input scalar functions of the configuration and their
    gradients.  A map's material points on body i, ``points_on(i)`` (m, 3),
    are solved in the stage of link i's group, which keeps the map's terms of
    the link, ``link_terms(chain, i, q, at_x)`` (``at_x`` as in
    :class:`~softid.kinematics.BodyEval` at these points alone, leading rows
    the states of q).  ``_measure(chain, q, stages)`` gives the lengths (or
    volumes) l (..., n_inputs) and dl/dq (..., n_inputs, n) from the stage
    record; ``owner`` holds the body of each via point or chamber.
    """

    n_inputs: int = 0

    def _at(self, chain: ChainModel, q: Array, stages):
        """:meth:`_measure` at q from ``stages``, the stage record at q with
        this map's terms (:func:`~softid.dynamics.link_stages`); when None,
        each stage group is placed for this map alone
        (:func:`~softid.kinematics.place_stage`)."""
        (q,) = chain.check_state(q)
        if self.owner.max(initial=-1) >= len(chain):
            raise ValueError(f"an actuator is on body {self.owner.max()} of a {len(chain)}-body chain")
        if stages is None:
            stages = chain_stages(chain, q, lambda group: place_stage(chain, group, q, self))
        return self._measure(chain, q, stages)

    def lengths(self, chain: ChainModel, q: Array) -> Array:
        """Actuator length (or volume) per input, shape (..., n_inputs)."""
        return self._at(chain, q, None)[0]

    def matrix(self, chain: ChainModel, q: Array, stages=None) -> Array:
        """Projection A(q) = (dl/dq)^T, shape (..., n, n_inputs), from
        ``stages`` as in :meth:`_at`."""
        return self._at(chain, q, stages)[1].swapaxes(-1, -2)


class TendonActuation(ActuationMap):
    """Straight-line tendons through via points attached to bodies.

    Each tendon is a list of (body_index, material_point) pairs; body_index
    -1 anchors the point to the base frame.  The actuator length is the sum
    of the straight segment lengths between consecutive via points at the
    current configuration.
    """

    def __init__(self, tendons):
        if any(len(routing) < 2 for routing in tendons):
            raise ValueError("a tendon needs at least two via points")
        self.n_inputs = len(tendons)
        self.owner = np.array([int(bi) for routing in tendons for bi, _ in routing])  # -1: base
        if self.owner.min() < -1:
            raise ValueError(f"via-point body index must be -1 (base) or >= 0, got {self.owner.min()}")
        self.points = np.array([x for routing in tendons for _, x in routing], dtype=float)
        tendon = np.repeat(np.arange(self.n_inputs), [len(routing) for routing in tendons])
        # segment k runs from via point starts[k] to the next one on the same tendon
        self.starts = np.flatnonzero(tendon[:-1] == tendon[1:])
        self.incidence = (tendon[self.starts] == np.arange(self.n_inputs)[:, None]).astype(float)

    def points_on(self, i: int) -> Array:
        return self.points[self.owner == i]

    def link_terms(self, chain: ChainModel, i: int, q: Array, at_x):
        """The images f and df/dq of the via points on body i and the joint
        transform (Rj, tj)."""
        joint, rows = chain.links[i].joint, 0 if q.ndim == 1 else slice(None)
        return (at_x[1][rows], at_x[2][rows], *joint.transform(q[..., chain.slice(i)][..., :joint.n_dof]))

    def _via_points(self, chain: ChainModel, q: Array, stages) -> tuple[Array, Array]:
        """Base-frame via points (..., m, 3) and their q-Jacobians
        (..., m, 3, n) at the states q, composed link to link from each
        link's entries of the stage record.  (Jo, Jw) are the base-frame
        origin and angular-velocity Jacobians of the parent frame {S_{i-1}},
        whose points move by Jo + Jw x (p - o); the link's own coordinates
        add the joint's rotation or slide and R_J df/dq.
        """
        lead = q.shape[:-1]
        p = np.broadcast_to(chain.base.apply(self.points), lead + self.points.shape).copy()
        J = np.zeros(p.shape + (chain.n,))
        Jo, Jw = np.zeros((2,) + lead + (3, chain.n))
        R, t = chain.base.rotation, chain.base.translation  # {S_{i-1}} in the base
        for i, lk in enumerate(chain.links):
            (f, jq, Rj, tj), R_rel, t_rel = stages.actuation[i], stages.R_rel[i], stages.t_rel[i]
            sl = chain.slice(i)
            nj = lk.joint.n_dof
            mine = self.owner == i
            arm = (f @ Rj.swapaxes(-1, -2) + tj[..., None, :]) @ R.swapaxes(-1, -2)  # p - o
            p[..., mine, :] = t[..., None, :] + arm
            spin = cross(Jw.swapaxes(-1, -2)[..., None, :, :], arm[..., None, :])  # (..., m, n, 3)
            Ji = Jo[..., None, :, :] + spin.swapaxes(-1, -2)
            if nj:
                axis = matvec(R, lk.joint.axis)[..., None, :]
                Ji[..., sl.start] += cross(axis, arm) if lk.joint.kind == "revolute" else axis
            Ji[..., sl.start + nj:sl.stop] += matvec3((R @ Rj)[..., None, None, :, :],
                                                      jq.swapaxes(-1, -2)).swapaxes(-1, -2)
            J[..., mine, :, :] = Ji
            # carry the frame Jacobians on to {S_i}
            Jo = Jo + cross(Jw.swapaxes(-1, -2), matvec(R, t_rel)[..., None, :]).swapaxes(-1, -2)
            Jo[..., sl] += R @ stages.Jt[i, ..., :lk.n_dof]
            Jw[..., sl] += R @ stages.Jw[i, ..., :lk.n_dof]
            R, t = R @ R_rel, t + matvec(R, t_rel)
            if not (is_rotation(R_rel) and is_rotation(R)):
                raise NonOrthonormalFrameError("rotation block is not orthonormal")
        return p, J

    def _measure(self, chain: ChainModel, q: Array, stages) -> tuple[Array, Array]:
        p, J = self._via_points(chain, q, stages)
        a, b = self.starts, self.starts + 1
        seg = p[..., b, :] - p[..., a, :]
        norm = np.linalg.norm(seg, axis=-1)
        # each segment adds e . (dp_b - dp_a) to its tendon; one of zero length adds 0
        e = np.divide(seg, norm[..., None], out=np.zeros_like(seg), where=norm[..., None] > 0)
        d_norm = matvec3((J[..., b, :, :] - J[..., a, :, :]).swapaxes(-1, -2), e)
        return matvec(self.incidence, norm), self.incidence @ d_norm


class ChamberActuation(ActuationMap):
    """Pressure chambers: the input-conjugate quantity is the deformed volume.

    Each chamber is (body_index, subdomain): the deformed volume is the
    integral of det(df/dx) over the subdomain of that body's material
    coordinates.  Inputs are gauge pressures.  The volume gradient is
    dV/dq = int tr(adj(F) dF/dq) dV_0, on the chamber body's own coordinates,
    from the stage's solution at the chamber's nodes and one call of
    ``jac_x`` and of ``jac_x_dq`` per chamber.
    """

    def __init__(self, chambers, quadrature_order=4):
        chambers = [(int(bi), dom) for bi, dom in chambers]
        for bi, dom in chambers:
            if bi < 0:
                raise ValueError(f"chamber body index must be non-negative, got {bi}")
            if not isinstance(dom, ReferenceDomain):
                raise TypeError("chamber subdomain must be a ReferenceDomain")
        self.owner = np.array([bi for bi, _ in chambers], dtype=int)
        self.nodes = [dom.nodes(quadrature_order) for _, dom in chambers]
        self.n_inputs = len(chambers)

    def points_on(self, i: int) -> Array:
        return np.concatenate([np.zeros((0, 3))] + [p for bi, (p, _) in zip(self.owner, self.nodes) if bi == i])

    def link_terms(self, chain: ChainModel, i: int, q: Array, at_x):
        """Volume and volume gradient on body i's own coordinates of each
        chamber on body i, in chamber order, with the leading axes of q."""
        model = chain.links[i].body.model
        lead = q.shape[:-1]
        qb = q[..., chain.slice(i)][..., chain.links[i].joint.n_dof:].reshape(-1, model.n_dof)
        out, start = [], 0
        for pts, w in (nodes for bi, nodes in zip(self.owner, self.nodes) if bi == i):
            sol = None if at_x[0] is None else tuple(a[:, start:start + len(pts)] for a in at_x[0])
            start += len(pts)
            F = model.jac_x(pts, qb, sol)
            # d det(F) = cof(F) : dF, the cofactor columns being f1 x f2, f2 x f0, f0 x f1
            cof = np.stack([cross(F[..., 1], F[..., 2]), cross(F[..., 2], F[..., 0]),
                            cross(F[..., 0], F[..., 1])], axis=-1)
            volumes = matvec(np.linalg.det(F)[:, None], w)[:, 0]
            dF = model.jac_x_dq(pts, qb, sol).reshape(len(qb), -1, model.n_dof)  # one BLAS product per row
            grads = ((cof * w[:, None, None]).reshape(len(qb), 1, -1) @ dF)[:, 0]
            out.append((volumes.reshape(lead), grads.reshape(lead + (model.n_dof,))))
        return out

    def _measure(self, chain: ChainModel, q: Array, stages) -> tuple[Array, Array]:
        lead = q.shape[:-1]
        volumes = np.empty(lead + (self.n_inputs,))
        grad = np.zeros(lead + (self.n_inputs, chain.n))
        per_body = {bi: iter(stages.actuation[bi]) for bi in dict.fromkeys(self.owner.tolist())}
        for c, bi in enumerate(self.owner.tolist()):
            volumes[..., c], g = next(per_body[bi])
            body = chain.slice(bi)
            grad[..., c, body.start + chain.links[bi].joint.n_dof:body.stop] = g
        return volumes, grad
