"""Slow, obviously-correct baselines for the recursive algorithms.

Everything here works at the level of base-frame positions of the quadrature
nodes, with all derivatives by finite differences: the generalized inertial
force as the direct Kane summation over bodies, the mass matrix from the
kinetic-energy metric, and gravity from the potential.  The same per-body
quadrature rules as the recursion are used, so the two sides discretize the
same mechanical system and agreement is limited only by differencing error.
"""

from __future__ import annotations

import numpy as np

from .dynamics import _div_green
from .kinematics import ChainModel, forward_kinematics

Array = np.ndarray

# Node accelerations use a 4th-order 5-point second difference.  The step
# balances truncation against the eps*|p|/dt^2 cancellation floor; a plain
# 3-point difference at dt = 1e-5 bottoms out near 4e-6 absolute, too coarse
# for the 1e-6 equivalence gates.
FD_TIME_STEP = 2.5e-4
# Configuration derivatives use the 4th-order 5-point first difference.  At
# h = 1e-5 its round-off floor is about eps/h ~ 2e-11 relative and its h^4
# truncation stays below the 1e-8 mass-matrix gate even next to an LVP fold,
# where a central difference at the same step is off by 1.4e-6 and one at
# 1e-7 is round-off bound near 1e-7.
FD_CONF_STEP = 1e-5


def _node_sets(chain: ChainModel):
    pts, wm = [], []
    for lk in chain.links:
        p, w = lk.body.model.nodes()
        pts.append(p)
        wm.append(w * lk.body.model.rho)
    return pts, wm


def chain_points(chain: ChainModel, q, points_per_body) -> list[Array]:
    """Base-frame positions of material points, one array (m_i, 3) per body."""
    return [fr["points"] for fr in forward_kinematics(chain, q, points_per_body)]


def _conf_gradient(fn, q: Array) -> Array:
    """d fn / d q by the 5-point stencil, one trailing column per coordinate.

    ``fn`` maps a configuration to an array (or a float); the step scales
    with |q_k| as FD_CONF_STEP * max(1, |q_k|).
    """
    cols = []
    for k in range(q.shape[0]):
        h = FD_CONF_STEP * max(1.0, abs(float(q[k])))
        dq = np.zeros(q.shape[0])
        dq[k] = h
        p2, p1, m1, m2 = (np.asarray(fn(q + c * dq)) for c in (2.0, 1.0, -1.0, -2.0))
        cols.append((8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h))
    return np.stack(cols, axis=-1)


def full_chain_jacobian(chain: ChainModel, q: Array, pts=None) -> list[Array]:
    """d p / d q per body by the 5-point stencil, shapes (m_i, 3, n).

    Columns belonging to successor bodies are exactly zero because their
    coordinates never enter the positions of earlier bodies.
    """
    (q,) = chain.check_state(q)
    if pts is None:
        pts, _ = _node_sets(chain)
    jac = _conf_gradient(lambda qv: np.concatenate(chain_points(chain, qv, pts)), q)
    return np.split(jac, np.cumsum([p.shape[0] for p in pts])[:-1])


def oracle_kane(chain: ChainModel, q, qd, qdd) -> Array:
    """Direct Kane summation of the inertial forces: returns M qdd + c.

    Node accelerations come from second differences along the quadratic path
    q(t) = q + qd t + qdd t^2 / 2.
    """
    q, qd, qdd = chain.check_state(q, qd, qdd)
    pts, wm = _node_sets(chain)
    jacs = full_chain_jacobian(chain, q, pts)
    p0 = chain_points(chain, q, pts)

    def at(t):
        return chain_points(chain, q + t * qd + 0.5 * t * t * qdd, pts)

    dt = FD_TIME_STEP
    p1, m1 = at(dt), at(-dt)
    p2, m2 = at(2.0 * dt), at(-2.0 * dt)
    pdd = [
        (-a2 + 16.0 * a1 - 30.0 * a0 + 16.0 * b1 - b2) / (12.0 * dt * dt)
        for a2, a1, a0, b1, b2 in zip(p2, p1, p0, m1, m2)
    ]

    out = np.zeros(chain.n)
    for i in range(len(chain)):
        out += np.einsum("m,maj,ma->j", wm[i], jacs[i], pdd[i])
    return out


def oracle_mass(chain: ChainModel, q) -> Array:
    """Kinetic-energy metric M = sum_j int (dp/dq)^T (dp/dq) dm, symmetric."""
    (q,) = chain.check_state(q)
    pts, wm = _node_sets(chain)
    jacs = full_chain_jacobian(chain, q, pts)
    M = np.zeros((chain.n, chain.n))
    for i in range(len(chain)):
        M += np.einsum("m,maj,mak->jk", wm[i], jacs[i], jacs[i])
    return 0.5 * (M + M.T)


def oracle_potential(chain: ChainModel, q) -> tuple[Array, float]:
    """Generalized gravity force and potential energy U = -sum int g.p dm."""
    (q,) = chain.check_state(q)
    pts, wm = _node_sets(chain)

    def U(qv):
        pos = chain_points(chain, qv, pts)
        return -sum(w @ (p @ chain.gravity) for w, p in zip(wm, pos))

    return _conf_gradient(U, q), float(U(q))


def oracle_stress(chain: ChainModel, q, qd) -> Array:
    """Generalized stress force by full-chain projection of the densities.

    Shares the constitutive law with the recursion (the force law is part of
    the model) but not its derivatives: the elastic density is projected
    through finite-difference full-chain Jacobians instead of the backward
    recursion, and the Rayleigh damping 2 eta C int (dF/dq) : F_dot dV on each
    body's own coordinates takes dF/dq by finite differences of the material
    Jacobian.
    """
    q, qd = chain.check_state(q, qd)
    pts, _ = _node_sets(chain)
    jacs = full_chain_jacobian(chain, q, pts)
    frames = forward_kinematics(chain, q)
    out = np.zeros(chain.n)
    for i, lk in enumerate(chain.links):
        model = lk.body.model
        if model.elastic_modulus is None:
            continue
        _, qb = chain.split(i, q)
        _, qdb = chain.split(i, qd)
        _, w = model.nodes()
        dens = 2.0 * model.elastic_modulus * _div_green(model, pts[i], [qb])[0]
        dens_base = dens @ frames[i]["joint"].rotation.T
        out -= np.einsum("m,maj,ma->j", w, jacs[i], dens_base)
        if model.viscosity is not None and np.any(qdb):
            dF = _conf_gradient(lambda qv: model.jac_x(pts[i], [qv])[0], qb)
            body = slice(chain.slice(i).start + lk.joint.n_dof, chain.slice(i).stop)
            out[body] += (2.0 * model.viscosity * model.elastic_modulus) * np.einsum(
                "m,mabj,mab->j", w, dF, dF @ qdb)
    return out
