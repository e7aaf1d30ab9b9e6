"""Recursive inverse dynamics: per-body wrench terms, backward recursion,
and the IID / ID / MIID / MID algorithms.

Conventions.  All algorithms return left-hand-side quantities of
M qdd + c + g + s = nu: ``iid`` returns M qdd + c, ``inverse_dynamics``
returns nu.  These are the negatives of the generalized inertial/active
forces of the Kane formulation.

The mass-augmented variants propagate zero-velocity Jacobians of the
acceleration recursion forward.  Column k of the generalized mass matrix is
the inertial load of the unit acceleration qdd = e_k at rest; these load
cases ride the one backward recursion as extra stacked rows after the force
components, so M(q) comes out of the same sweep as the force vector.

The sweep takes every per-link term (the inertial, gravity and stress
wrenches and projections, the mass cases) in one call over all links, from
the stage record on the link axis (``cache.stages``); link by link run
only the 6-vector recurrences, here the mass cases' Jacobians and the
backward wrenches W_i = w_i + X_{i+1}^T W_{i+1} of every row at once.
Nothing here evaluates or differences a body map again.  :func:`_stage`
stages a stage group (the links that share a body model) with one body
solve and one stress pass over all their rows.

Every function here takes one state or a stack of states (b, n); a record
without rows broadcasts against stacked ones.  Row r of a stacked sweep is
the sweep at state r alone, bitwise, so states that differ in one link's
block are one sweep over a record with that link staged at their stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies.integrals import BodyInertialData
from .kinematics import BodyHandle, ChainModel, KinematicsCache, LinkStage, chain_stages, forward_pass, link_stage
from .spatial import cross, matvec, matvec3, skew

Array = np.ndarray

_COMPONENTS = ("inertial", "gravity", "elastic", "damping")


@dataclass
class DynamicsResult:
    """Generalized force vector plus, for the mass-augmented variants, M(q)."""

    force: Array
    mass: Array | None = None
    components: dict[str, Array] | None = None
    cache: KinematicsCache | None = None


# -- per-body wrench terms -----------------------------------------------------

def inertial_terms(data: BodyInertialData, w: Array, wdot: Array, a_com: Array,
                   n_joint: int = 0):
    """Inertial force/torque and generalized projection of one body.

    ``w``, ``wdot``, ``a_com`` are the body-frame angular velocity and
    acceleration and CoM acceleration from the forward pass.  The returned
    projection vector has ``n_joint`` leading zero rows for the joint
    coordinates of the link.
    """
    F = -data.mass * a_com
    T = (
        matvec(-data.inertia, wdot)
        - cross(w, matvec(data.inertia, w))
        - matvec(data.inertia_rate, w)
        - cross(w, data.mom_rd)
        - data.mom_rdd
    )
    pi_body = (
        matvec(-data.jac_mom_rd.swapaxes(-1, -2), wdot)
        # ½ ωᵀ (∂I/∂q_k) ω for every k: (∂I/∂q_k) ω, then its dot with ω
        + 0.5 * matvec3(matvec3(data.inertia_grad, w[..., None, :]), w)
        + 2.0 * matvec(data.proj_cor, w)
        - data.proj_rdd
        + matvec(data.jac_com.swapaxes(-1, -2), F)
    )
    return F, T, _joint_rows(pi_body, n_joint)


def gravity_terms(data: BodyInertialData, R_base: Array, gravity: Array, n_joint: int = 0):
    """Gravity force in the body frame and its generalized projection."""
    g_body = matvec(R_base.swapaxes(-1, -2), np.asarray(gravity, dtype=float))
    F = data.mass * g_body
    return F, _joint_rows(matvec(data.jac_com.swapaxes(-1, -2), F), n_joint)


def _joint_rows(pi_body: Array, n_joint: int) -> Array:
    """A body's projection with ``n_joint`` leading zeros for its joint."""
    return np.concatenate([np.zeros(pi_body.shape[:-1] + (n_joint,)), pi_body], axis=-1) if n_joint else pi_body


def _div_green(model, x: Array, q: Array, sol=None) -> Array:
    """Row-wise divergence of the Green tensor B = (df/dx)(df/dx)^T at the
    points x for every row of the stack q, (b, m, 3)."""
    F = model.jac_x(x, q, sol)
    H = model.hess_x(x, q, sol)
    trace = H[..., 0, :, 0] + H[..., 1, :, 1] + H[..., 2, :, 2]  # div(B)_a = H_acb F_bc + F_ac H_bcb
    return sum(matvec3(H[..., c, :], F[..., c]) for c in range(3)) + matvec3(F, trace)


def stress_terms(handle: BodyHandle, data: BodyInertialData, qb: Array, qdb: Array,
                 n_joint: int):
    """Visco-elastic stress wrenches and projections of one body.

    Elastic force density 2C div_x(B) for the incompressible Neo-Hookean
    solid, expressed in the joint frame of the raw body map and rotated into
    the contact frame.  Damping is the Rayleigh (virtual-power) form of the
    Kelvin-Voigt element: dissipation R = eta C int |F_dot|^2 dV over the
    deformation gradient F = df/dx, giving the generalized force
    dR/dqd = 2 eta C int (dF/dq) : F_dot dV.  It acts on the body's own
    coordinates only (no wrench) and is positive semi-definite.  ``data`` is
    the forward pass's integrals of the body at one state (qb, qdb) or a
    stack of states (b, n_body), whose evaluation the stress pass reuses in
    one call of each material derivative (the damping's on the moving rows
    alone); the body must have an elastic modulus.  Returns ((F_e, T_e,
    pi_e), (F_d, T_d, pi_d)) with pi the active projections, with the
    states' leading axes.
    """
    model = handle.model
    lead = qb.shape[:-1]

    def rows(a):  # the array with a row axis, which one state lacks
        return a if lead else a[None]

    # the sweep's solve at the nodes alone: differences in x would step the
    # end-face anchors off the domain
    sol = None if data.ev.sol is None else tuple(rows(a)[:, handle.n_anchors:] for a in data.ev.sol)
    q, qd = rows(qb), rows(qdb)

    w = data.weights_mass / model.rho
    C = model.elastic_modulus
    dens_e = 2.0 * C * _div_green(model, data.nodes, q, sol)
    pi_d = np.zeros(q.shape)
    moving = qd.any(-1)
    # each projection is one BLAS product per row: weighted densities times the (9 m or 3 m, n) Jacobian
    if model.viscosity is not None and moving.any():
        moving = slice(None) if moving.all() else np.flatnonzero(moving)
        dF = model.jac_x_dq(data.nodes, q[moving], None if sol is None else tuple(a[moving] for a in sol))
        dF = dF.reshape(len(dF), -1, q.shape[1])
        pi_d[moving] = (-2.0 * model.viscosity * C) * ((matvec(dF, qd[moving]) * np.repeat(w, 9))[:, None] @ dF)[:, 0]

    dens_e = dens_e @ rows(data.ev.frame[0])  # rotate per-node densities into {S_i}
    pi_e = ((dens_e * w[:, None]).reshape(len(q), 1, -1) @ rows(data.ev.jac).reshape(len(q), -1, q.shape[1]))[:, 0]
    zero = np.zeros(q.shape[:1] + (3,))
    terms = ((w @ dens_e, w @ cross(rows(data.r), dens_e), pi_e), (zero, zero, pi_d))
    return tuple(tuple(a.reshape(lead + a.shape[1:]) for a in (F, T, _joint_rows(pi, n_joint)))
                 for F, T, pi in terms)


def backward_recursion(chain: ChainModel, wrenches, cache: KinematicsCache):
    """Backward sweep of the wrench recursion W_i = w_i + X_{i+1}^T W_{i+1};
    returns the links' projections S_i^T W_i in link columns.

    ``wrenches`` holds (F, F_star, T, T_star) per link, (N, 4, ..., 3),
    whose entries may stack k load cases (..., k, 3), after the cache's row
    axis if it has one; the output is (N, ..., k, width), or (N, width).
    """
    w = np.asarray(wrenches, dtype=float)
    lk = cache.links
    single = w.ndim == lk.data.p_com.ndim + 1
    F, F_star, T, T_star = (w[..., None, :] if single else w).swapaxes(0, 1)
    Fc = F + F_star
    # the moment p_com x Fc of every load case as one row-own product: Fc skew(-p_com)
    W = np.concatenate([Fc, T + T_star + Fc @ skew(-lk.data.p_com)], -1)
    for i in range(len(chain) - 2, -1, -1):
        W[i] += W[i + 1] @ lk.X[i + 1]
    out = W @ lk.S
    return out[..., 0, :] if single else out


# -- main evaluation pipeline ---------------------------------------------------

def _stage(chain: ChainModel, group, q: Array, qd: Array, qdd: Array, stress: bool,
           actuation=None) -> LinkStage:
    """:func:`~softid.kinematics.link_stage` of ``group`` with, when
    ``stress``, an elastic body's stress terms: one pass over all rows."""
    st = link_stage(chain, group, q, qd, qdd, actuation)
    lk = chain.links[group[0]]
    if not (stress and lk.body.model.elastic_modulus is not None):
        return st
    nj = lk.joint.n_dof
    qb, qdb = (chain.rows(group, v)[:, nj:] for v in (q, qd))
    return st._replace(stress=stress_terms(lk.body, st.data, qb, qdb, nj))


def link_stages(chain: ChainModel, q, qd=None, qdd=None, *, base=None, link=None,
                actuation=None) -> LinkStage:
    """The sweep's record at a state or a stack of states, stress terms and
    the terms of an ``actuation`` map included, for :func:`chain_dynamics`.

    ``base`` is the record of a state that differs from these only in the
    block of link ``link``, which alone is staged again (:func:`chain_stages`).
    """
    q, qd, qdd = chain.check_state(q, qd, qdd)
    return chain_stages(chain, q, lambda group: _stage(chain, group, q, qd, qdd, True, actuation), base, link)


def chain_dynamics(chain: ChainModel, q, qd=None, qdd=None, *, gravity: bool = True, stress: bool = True,
                   mass: bool = False, base_accel=None, stages=None) -> DynamicsResult:
    """One forward/backward sweep with selectable force contributions.

    ``base_accel`` defaults to zero here: gravity enters through its explicit
    terms.  Seeding ``base_accel = -chain.gravity`` with ``gravity=False``
    reproduces the same forces through the inertial path (cross-check mode).
    ``stages`` is the stage record at this state (:func:`link_stages`),
    built here when None; the result's ``cache.stages`` holds it.  At a
    stack of states (b, n) the force, M and components have the row axis.
    """
    q, qd, qdd = chain.check_state(q, qd, qdd)
    lead = q.shape[:-1]
    if stages is None:
        stages = chain_stages(chain, q, lambda group: _stage(chain, group, q, qd, qdd, stress))
    cache = forward_pass(chain, q, qd, qdd, np.zeros(3) if base_accel is None else base_accel, stages)
    lk, N, width = cache.links, len(chain), chain.width
    # per link and row (F, F*, T, T*) and the projection; rows: inertial,
    # gravity, elastic, damping, then M's unit-acceleration cases
    n_rows = 4 + (N * width if mass else 0)
    wrenches = np.zeros((N, 4) + lead + (n_rows, 3))
    pi = np.zeros((N,) + lead + (n_rows, width))
    wrenches[:, 1, ..., 0, :], wrenches[:, 3, ..., 0, :], pi[..., 0, :] = inertial_terms(
        lk.data, lk.w, lk.wdot, lk.a_com)
    if gravity:
        wrenches[:, 0, ..., 1, :], pi[..., 1, :] = gravity_terms(lk.data, lk.R_base, chain.gravity)
    if stress and stages.stress is not None:
        for c, (F, T, p) in enumerate(stages.stress):  # elastic, damping
            wrenches[:, 0, ..., 2 + c, :], wrenches[:, 2, ..., 2 + c, :], pi[..., 2 + c, :] = F, T, p
    if mass:
        wrenches[:, 1, ..., 4:, :], wrenches[:, 3, ..., 4:, :], pi[..., 4:, :] = _mass_matrix(chain, cache)

    rows = chain.from_links(-(pi + backward_recursion(chain, wrenches, cache)))
    components = {name: rows[..., c, :] for c, name in enumerate(_COMPONENTS)}

    force = components["inertial"].copy()
    if gravity:
        force += components["gravity"]
    if stress:
        force += components["elastic"] + components["damping"]

    M = rows[..., 4 + chain.columns, :].swapaxes(-1, -2) if mass else None
    return DynamicsResult(force=force, mass=M, components=components, cache=cache)


def _mass_matrix(chain: ChainModel, cache: KinematicsCache) -> tuple:
    """Unit-acceleration load cases of M(q) on every link: (F*, T*, pi*),
    (N, ..., K, 3) twice and (N, ..., K, width).

    Case k is qdd = e_k at rest for each of the K link columns (a padded
    one loads nothing).  The acceleration Jacobians Φ_i = X_i Φ_{i-1} + D_i,
    Φ = (A; W) (6, K), D_i link i's S on its own columns, give each body's
    inertial loads; the backward recursion turns them into M's columns.
    """
    lk, N, d = cache.links, len(chain), cache.links.data
    own = np.concatenate([lk.S, d.jac_com, d.jac_mom_rd, d.gram], -2)
    blocks = np.zeros(own.shape[:-1] + (N, chain.width))  # each link's on its own columns
    blocks[np.arange(N), ..., np.arange(N), :] = own
    blocks = blocks.reshape(own.shape[:-1] + (N * chain.width,))
    Phi, J_com, J_mom, gram = blocks[..., :6, :], blocks[..., 6:9, :], blocks[..., 9:12, :], blocks[..., 12:, :]
    for i in range(1, N):
        Phi[i] += lk.X[i] @ Phi[i - 1]
    A, W = Phi[..., :3, :], Phi[..., 3:, :]
    jF = -d.mass[..., None] * (A - skew(d.p_com) @ W + J_com)
    jT = -d.inertia @ W - J_mom
    jp = -d.jac_mom_rd.swapaxes(-1, -2) @ W + d.jac_com.swapaxes(-1, -2) @ jF - gram
    return jF.swapaxes(-1, -2), jT.swapaxes(-1, -2), jp.swapaxes(-1, -2)


# -- the four algorithms ---------------------------------------------------------

def iid(chain: ChainModel, q, qd, qdd, base_accel=None) -> Array:
    """Inertial inverse dynamics: M(q) qdd + c(q, qd)."""
    return chain_dynamics(chain, q, qd, qdd, gravity=False, stress=False,
                          base_accel=base_accel).force


def inverse_dynamics(chain: ChainModel, q, qd, qdd, stages=None) -> Array:
    """Full inverse dynamics: nu = M qdd + c + g + s (``stages``: :func:`link_stages`)."""
    return chain_dynamics(chain, q, qd, qdd, stages=stages).force


def miid(chain: ChainModel, q, qd, qdd) -> DynamicsResult:
    """IID with the generalized mass matrix from the same sweep."""
    return chain_dynamics(chain, q, qd, qdd, gravity=False, stress=False, mass=True)


def mid(chain: ChainModel, q, qd, qdd) -> DynamicsResult:
    """Full inverse dynamics with the generalized mass matrix."""
    return chain_dynamics(chain, q, qd, qdd, mass=True)
