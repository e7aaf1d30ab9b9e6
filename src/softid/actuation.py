"""Actuation maps projecting inputs into the configuration space.

Virtual work fixes the projection: with actuator lengths l(q) (or chamber
volumes V(q)), the generalized actuation force is nu = A(q) u with
A(q) = (dl/dq)^T, so that dq^T nu = dl^T u for every virtual displacement.
"""

from __future__ import annotations

import numpy as np

from .kinematics import ChainModel, chain_points
from .quadrature import ReferenceDomain

Array = np.ndarray

FD_STEP = 1e-6


def _difference(fn, q: Array, k: int) -> Array:
    """Central difference of ``fn`` along coordinate k."""
    h = FD_STEP * max(1.0, abs(float(q[k])))
    dq = np.zeros(q.shape[0])
    dq[k] = h
    return (fn(q + dq) - fn(q - dq)) / (2.0 * h)


class ActuationMap:
    """Base: supplies per-input scalar functions of the configuration."""

    n_inputs: int = 0

    def lengths(self, chain: ChainModel, q: Array) -> Array:
        """Actuator length (or volume) per input, shape (n_inputs,)."""
        raise NotImplementedError

    def matrix(self, chain: ChainModel, q: Array) -> Array:
        """Projection A(q), shape (n, n_inputs), by central differences."""
        (q,) = chain.check_state(q)
        along = self._lengths_along(chain, q)
        return np.stack([_difference(along(k), q, k) for k in range(chain.n)])

    def _lengths_along(self, chain: ChainModel, q: Array):
        """k -> the lengths as a function of the configuration near q along q_k."""
        return lambda k: lambda qv: self.lengths(chain, qv)

    def force(self, chain: ChainModel, q: Array, u: Array) -> Array:
        return self.matrix(chain, q) @ np.asarray(u, dtype=float)


class TendonActuation(ActuationMap):
    """Straight-line tendons through via points attached to bodies.

    Each tendon is a list of (body_index, material_point) pairs; body_index
    -1 anchors the point to the base frame.  The actuator length is the sum
    of the straight segment lengths between consecutive via points at the
    current configuration.
    """

    def __init__(self, tendons):
        self.tendons = []
        for routing in tendons:
            body_ids = []
            pts = []
            for bi, x in routing:
                body_ids.append(int(bi))
                pts.append(np.asarray(x, dtype=float))
            if len(pts) < 2:
                raise ValueError("a tendon needs at least two via points")
            self.tendons.append((body_ids, np.stack(pts)))
        self.n_inputs = len(self.tendons)

    def _point_sets(self, n_bodies: int) -> list[Array]:
        per_body = {i: [] for i in range(n_bodies)}
        for body_ids, pts in self.tendons:
            for bi, x in zip(body_ids, pts):
                if bi >= 0:
                    per_body[bi].append(x)
        return [np.stack(per_body[i]) if per_body[i] else np.zeros((0, 3)) for i in range(n_bodies)]

    def _lengths_along(self, chain: ChainModel, q: Array):
        # q_k moves the body map of its own link only: the others keep their solve at q
        pts = self._point_sets(len(chain))
        at_q = [lk.body.place(chain.split(i, q)[1], pts[i]) for i, lk in enumerate(chain.links)]
        owner = np.repeat(np.arange(len(chain)), [lk.n_dof for lk in chain.links])

        def along(k):
            placed = at_q.copy()
            placed[owner[k]] = None
            return lambda qv: self._path_lengths(chain, chain_points(chain, qv, pts, placed))

        return along

    def lengths(self, chain: ChainModel, q: Array) -> Array:
        return self._path_lengths(chain, chain_points(chain, q, self._point_sets(len(chain))))

    def _path_lengths(self, chain: ChainModel, world: list[Array]) -> Array:
        """Tendon lengths from the base-frame via points of each body."""
        cursor = [0] * len(chain)
        out = np.empty(self.n_inputs)
        for t, (body_ids, pts) in enumerate(self.tendons):
            path = []
            for bi, x in zip(body_ids, pts):
                if bi < 0:
                    path.append(chain.base.apply(x))
                else:
                    path.append(world[bi][cursor[bi]])
                    cursor[bi] += 1
            path = np.stack(path)
            out[t] = float(np.sum(np.linalg.norm(np.diff(path, axis=0), axis=1)))
        return out


class ChamberActuation(ActuationMap):
    """Pressure chambers: the input-conjugate quantity is the deformed volume.

    Each chamber is (body_index, subdomain): the deformed volume is the
    integral of det(df/dx) over the subdomain of that body's material
    coordinates.  Inputs are gauge pressures.
    """

    def __init__(self, chambers, quadrature_order=4):
        self.chambers = [(int(bi), dom) for bi, dom in chambers]
        for _, dom in self.chambers:
            if not isinstance(dom, ReferenceDomain):
                raise TypeError("chamber subdomain must be a ReferenceDomain")
        self.order = quadrature_order
        self.n_inputs = len(self.chambers)

    def lengths(self, chain: ChainModel, q: Array) -> Array:
        out = np.empty(self.n_inputs)
        for c, (bi, dom) in enumerate(self.chambers):
            model = chain.links[bi].body.model
            _, qb = chain.split(bi, np.asarray(q, dtype=float))
            pts, w = dom.nodes(self.order)
            det = np.linalg.det(model.jac_x(pts, qb))
            out[c] = float(w @ det)
        return out
