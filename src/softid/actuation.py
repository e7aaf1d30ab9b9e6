"""Actuation maps projecting inputs into the configuration space.

Virtual work fixes the projection: with actuator lengths l(q) (or chamber
volumes V(q)), the generalized actuation force is nu = A(q) u with
A(q) = (dl/dq)^T, so that dq^T nu = dl^T u for every virtual displacement.
Each map gets l and dl/dq analytically from one body solve per body at q: a
per-link stage that depends on the link's own coordinates alone, then the
composition along the chain.  Like the dynamics sweep, a map takes one state
(n,) or a stack of states (b, n), and a stage without rows broadcasts
against stacked ones; a row equals the state alone, bitwise.
"""

from __future__ import annotations

import numpy as np

from . import kinematics  # link_jacobians through the module, so wrappers on it see the calls
from .errors import NonOrthonormalFrameError
from .kinematics import ChainModel
from .quadrature import ReferenceDomain
from .spatial import cross, is_rotation, matvec

Array = np.ndarray


class ActuationMap:
    """Base: per-input scalar functions of the configuration and their gradients."""

    n_inputs: int = 0

    def link_stage(self, chain: ChainModel, i: int, q: Array):
        """The map's terms of link i at the checked q, from link i's coordinates alone."""
        raise NotImplementedError

    def _measure(self, chain: ChainModel, q: Array, stages) -> tuple[Array, Array]:
        """Actuator lengths (or volumes) l, shape (..., n_inputs), and dl/dq,
        (..., n_inputs, n)."""
        raise NotImplementedError

    def stages(self, chain: ChainModel, q: Array, base=None, link=None) -> list:
        """:meth:`link_stage` of every link at q; ``base`` and ``link`` as in
        :meth:`ChainModel.stages`."""
        (q,) = chain.check_state(q)
        return chain.stages(lambda i: self.link_stage(chain, i, q), base, link)

    def lengths(self, chain: ChainModel, q: Array) -> Array:
        """Actuator length (or volume) per input, shape (..., n_inputs)."""
        (q,) = chain.check_state(q)
        return self._measure(chain, q, self.stages(chain, q))[0]

    def matrix(self, chain: ChainModel, q: Array, stages=None) -> Array:
        """Projection A(q) = (dl/dq)^T, shape (..., n, n_inputs); ``stages``
        are :meth:`stages` at q, computed here when None."""
        (q,) = chain.check_state(q)
        dl = self._measure(chain, q, self.stages(chain, q) if stages is None else stages)[1]
        return dl.swapaxes(-1, -2)


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

    def link_stage(self, chain: ChainModel, i: int, q: Array):
        """One :meth:`BodyHandle.place` of body i at its via points for every
        state of q: their images f and df/dq, the joint transform (Rj, tj),
        and the link transform with its Jacobians
        (:func:`~softid.kinematics.link_jacobians`)."""
        lk = chain.links[i]
        qi = q[..., chain.slice(i)]
        nj = lk.joint.n_dof
        rows = 0 if q.ndim == 1 else slice(None)
        q2 = qi[None] if qi.ndim == 1 else qi
        _, frame, f, jq = lk.body.place(q2[:, nj:], self.points[self.owner == i])
        R_rel, t_rel, Jt, Jw = kinematics.link_jacobians(lk.joint, frame, q2)
        return (f[rows], jq[rows], *lk.joint.transform(qi[..., :nj]),
                R_rel[rows], t_rel[rows], Jt[rows], Jw[rows])

    def _via_points(self, chain: ChainModel, q: Array, stages) -> tuple[Array, Array]:
        """Base-frame via points (..., m, 3) and their q-Jacobians
        (..., m, 3, n) at the states q, composed link to link from the
        stages.  (Jo, Jw) are the base-frame origin and angular-velocity
        Jacobians of the parent frame {S_{i-1}}, whose points move by
        Jo + Jw x (p - o); the link's own coordinates add the joint's
        rotation or slide and R_J df/dq.
        """
        if self.owner.max() >= len(chain):
            raise ValueError(f"a via point is on body {self.owner.max()} of a {len(chain)}-body chain")
        lead = q.shape[:-1]
        p = np.broadcast_to(chain.base.apply(self.points), lead + self.points.shape).copy()
        J = np.zeros(p.shape + (chain.n,))
        Jo, Jw = np.zeros((2,) + lead + (3, chain.n))
        R, t = chain.base.rotation, chain.base.translation  # {S_{i-1}} in the base
        for i, (lk, (f, jq, Rj, tj, R_rel, t_rel, Jt_rel, Jw_rel)) in enumerate(zip(chain.links, stages)):
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
            Ji[..., sl.start + nj:sl.stop] += np.einsum("...ab,...mbj->...maj", R @ Rj, jq)
            J[..., mine, :, :] = Ji
            # carry the frame Jacobians on to {S_i}
            Jo = Jo + cross(Jw.swapaxes(-1, -2), matvec(R, t_rel)[..., None, :]).swapaxes(-1, -2)
            Jo[..., sl] += R @ Jt_rel
            Jw[..., sl] += R @ Jw_rel
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
        d_norm = np.einsum("...sa,...saj->...sj", e, J[..., b, :, :] - J[..., a, :, :])
        return matvec(self.incidence, norm), self.incidence @ d_norm


class ChamberActuation(ActuationMap):
    """Pressure chambers: the input-conjugate quantity is the deformed volume.

    Each chamber is (body_index, subdomain): the deformed volume is the
    integral of det(df/dx) over the subdomain of that body's material
    coordinates.  Inputs are gauge pressures.  The volume gradient is
    dV/dq = int tr(adj(F) dF/dq) dV_0, on the chamber body's own coordinates.
    A stack of states takes one body solve and one call of ``jac_x`` and of
    ``jac_x_dq`` per chamber.
    """

    def __init__(self, chambers, quadrature_order=4):
        self.chambers = [(int(bi), dom) for bi, dom in chambers]
        for bi, dom in self.chambers:
            if bi < 0:
                raise ValueError(f"chamber body index must be non-negative, got {bi}")
            if not isinstance(dom, ReferenceDomain):
                raise TypeError("chamber subdomain must be a ReferenceDomain")
        self.order = quadrature_order
        self.n_inputs = len(self.chambers)

    def link_stage(self, chain: ChainModel, i: int, q: Array):
        """Volume and volume gradient on body i's own coordinates of each
        chamber on body i, in chamber order, with the leading axes of q,
        from one solve per chamber over every state."""
        model = chain.links[i].body.model
        lead = q.shape[:-1]
        qb = q[..., chain.slice(i)][..., chain.links[i].joint.n_dof:].reshape(-1, model.n_dof)
        out = []
        for dom in (dom for bi, dom in self.chambers if bi == i):
            pts, w = dom.nodes(self.order)
            sol = model.solve(pts, qb)
            F = model.jac_x(pts, qb, sol)
            # d det(F) = cof(F) : dF, the cofactor columns being f1 x f2, f2 x f0, f0 x f1
            cof = np.stack([cross(F[..., 1], F[..., 2]), cross(F[..., 2], F[..., 0]),
                            cross(F[..., 0], F[..., 1])], axis=-1)
            volumes = matvec(np.linalg.det(F)[:, None], w)[:, 0]
            grads = np.einsum("p,rpab,rpabj->rj", w, cof, model.jac_x_dq(pts, qb, sol))
            out.append((volumes.reshape(lead), grads.reshape(lead + (model.n_dof,))))
        return out

    def _measure(self, chain: ChainModel, q: Array, stages) -> tuple[Array, Array]:
        last = max((bi for bi, _ in self.chambers), default=-1)
        if last >= len(chain):
            raise ValueError(f"a chamber is on body {last} of a {len(chain)}-body chain")
        lead = q.shape[:-1]
        volumes = np.empty(lead + (self.n_inputs,))
        grad = np.zeros(lead + (self.n_inputs, chain.n))
        per_body = [iter(st) for st in stages]
        for c, (bi, _) in enumerate(self.chambers):
            volumes[..., c], g = next(per_body[bi])
            body = chain.slice(bi)
            grad[..., c, body.start + chain.links[bi].joint.n_dof:body.stop] = g
        return volumes, grad
