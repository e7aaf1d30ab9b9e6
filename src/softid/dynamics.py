"""Recursive inverse dynamics: per-body wrench terms, backward recursion,
and the IID / ID / MIID / MID algorithms.

Conventions.  All algorithms return left-hand-side quantities of
M qdd + c + g + s = nu: ``iid`` returns M qdd + c, ``inverse_dynamics``
returns nu.  These are the negatives of the generalized inertial/active
forces of the Kane formulation.

The mass-augmented variants propagate zero-velocity Jacobians of the
acceleration recursion forward.  Column k of the generalized mass matrix is
the inertial load of the unit acceleration qdd = e_k at rest; these n load
cases ride the one backward recursion as extra stacked rows after the force
components, so M(q) comes out of the same sweep that produces the force
vector.

The per-body terms read the forward pass's integrals of each body
(``BodyKin.data``) and the evaluation they carry; nothing here evaluates or
differences a body map again.  A link's kinematic stage and its stress
terms depend on its own coordinates alone and form its
:class:`~softid.kinematics.LinkStage`.  :func:`_stage` stages the links of a
stage group (those that share a body model) from one body solve and one
stress pass over all their rows; a sweep takes the stages as an argument
or builds them before its forward pass (``cache.stages``).

Every function here takes one state or a stack of states (b, n), whose row
axis leads every array; a stage without rows broadcasts against stacked
ones.  Row r of a stacked sweep equals the sweep at state r alone, bitwise,
so states that differ in one link's block are one sweep over that link's
stacked stage and the other links' stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies.integrals import BodyInertialData
from .kinematics import BodyHandle, ChainModel, KinematicsCache, LinkStage, chain_stages, forward_pass, link_stage
from .spatial import cross, matvec, skew

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
        # ½ ωᵀ (∂I/∂q_k)ᵀ ω = ½ ωᵀ (∂I/∂q_k) ω, summed over the row index
        # innermost as the paper's column-wise vec(∂I/∂q_k) orders it
        + 0.5 * np.einsum("...a,...kba,...b->...k", w, data.inertia_grad, w)
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
    return np.concatenate([np.zeros(pi_body.shape[:-1] + (n_joint,)), pi_body], axis=-1)


def _div_green(model, x: Array, q: Array, sol=None) -> Array:
    """Row-wise divergence of the Green tensor B = (df/dx)(df/dx)^T at the
    points x for every row of the stack q, (b, m, 3)."""
    F = model.jac_x(x, q, sol)
    H = model.hess_x(x, q, sol)
    return np.einsum("...macb,...mbc->...ma", H, F) + np.einsum("...mac,...mbcb->...ma", F, H)


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
    if model.viscosity is not None and moving.any():
        moving = slice(None) if moving.all() else np.flatnonzero(moving)
        dF = model.jac_x_dq(data.nodes, q[moving], None if sol is None else tuple(a[moving] for a in sol))
        pi_d[moving] = (-2.0 * model.viscosity * C) * np.einsum(
            "m,rmabj,rmab->rj", w, dF, matvec(dF, qd[moving, None, None]))

    dens_e = dens_e @ rows(data.ev.frame[0])  # rotate per-node densities into {S_i}
    pi_e = np.einsum("m,rmaj,rma->rj", w, rows(data.ev.jac), dens_e)
    zero = np.zeros(q.shape[:1] + (3,))
    terms = ((w @ dens_e, w @ cross(rows(data.r), dens_e), pi_e), (zero, zero, pi_d))
    return tuple(tuple(a.reshape(lead + a.shape[1:]) for a in (F, T, _joint_rows(pi, n_joint)))
                 for F, T, pi in terms)


def backward_recursion(chain: ChainModel, wrenches, cache: KinematicsCache):
    """Backward sweep of the wrench recursion; returns per-body projections.

    ``wrenches`` is one (F, F_star, T, T_star) tuple per body; entries may be
    stacked (..., k, 3) arrays to propagate k independent load cases in one
    sweep (the recursion is linear in all arguments), after the cache's row
    axis if it has one.  The output list holds arrays of shape (..., k, n_i),
    or (n_i,) for single (3,) wrenches.
    """
    N = len(chain)
    out = [None] * N
    acc_F = None
    acc_T = None
    for i in range(N - 1, -1, -1):
        F, F_star, T, T_star = (np.asarray(a, dtype=float) for a in wrenches[i])
        kin = cache[i]
        Fc = F + F_star
        Tc = T + T_star + cross(_cases(kin.data.p_com, Fc), Fc)
        if acc_F is None:
            acc_F, acc_T = Fc, Tc
        else:
            nxt = cache[i + 1]
            RT = nxt.R_rel.swapaxes(-1, -2)
            rot_F = acc_F @ RT
            acc_T = Tc + acc_T @ RT + cross(_cases(nxt.t_rel, rot_F), rot_F)
            acc_F = Fc + rot_F
        out[i] = acc_F @ kin.Pv.swapaxes(-1, -2) + acc_T @ kin.Pw.swapaxes(-1, -2)
    return out


def _cases(v: Array, stack: Array) -> Array:
    """The vectors v (..., 3) with a load-case axis where ``stack`` has one."""
    return v.reshape(v.shape[:-1] + (1,) * (stack.ndim - v.ndim) + (3,))


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
                actuation=None) -> list[LinkStage]:
    """The links' stages at a state or a stack of states, stress terms and
    the terms of an ``actuation`` map included, for :func:`chain_dynamics`.

    ``base`` holds the stages of a state that differs from these only in
    the block of link ``link``; then only that link is staged again, alone,
    and every other stage is taken from ``base``.
    """
    q, qd, qdd = chain.check_state(q, qd, qdd)
    if base is None:
        return chain_stages(chain, q, lambda group: _stage(chain, group, q, qd, qdd, True, actuation))
    return (base[:link] + _stage(chain, (link,), q, qd, qdd, True, actuation).split(1, q.ndim == 1)
            + base[link + 1:])


def chain_dynamics(
    chain: ChainModel,
    q,
    qd=None,
    qdd=None,
    *,
    gravity: bool = True,
    stress: bool = True,
    mass: bool = False,
    base_accel=None,
    stages=None,
) -> DynamicsResult:
    """One forward/backward sweep with selectable force contributions.

    ``base_accel`` defaults to zero here: gravity enters through its explicit
    terms.  Seeding ``base_accel = -chain.gravity`` with ``gravity=False``
    reproduces the same forces through the inertial path (cross-check mode).
    ``stages`` are the links' stages at this state (:func:`link_stages`),
    built here when None; the result's ``cache.stages`` holds them.  At a
    stack of states (b, n) the force, M and components have the row axis.
    """
    q, qd, qdd = chain.check_state(q, qd, qdd)
    lead = q.shape[:-1]
    if stages is None:
        stages = chain_stages(chain, q, lambda group: _stage(chain, group, q, qd, qdd, stress))
    cache = forward_pass(
        chain, q, qd, qdd,
        base_accel=np.zeros(3) if base_accel is None else np.asarray(base_accel, dtype=float),
        stages=stages,
    )
    n_rows = 4 + (chain.n if mass else 0)
    cases = _mass_matrix(chain, cache) if mass else None
    wrenches = []
    pis = []
    for i, lk in enumerate(chain.links):
        kin = cache[i]
        data = kin.data
        nj = lk.joint.n_dof
        # rows: inertial, gravity, elastic, damping, then M's unit-acceleration cases
        F, F_star, T, T_star = (np.zeros(lead + (n_rows, 3)) for _ in range(4))
        pi = np.zeros(lead + (n_rows, lk.n_dof))
        F_star[..., 0, :], T_star[..., 0, :], pi[..., 0, :] = inertial_terms(
            data, kin.w, kin.wdot, kin.a_com, nj)
        if gravity:
            F[..., 1, :], pi[..., 1, :] = gravity_terms(data, kin.R_base, chain.gravity, nj)
        if stress and stages[i].stress is not None:
            elastic, damping = stages[i].stress
            F[..., 2, :], T[..., 2, :], pi[..., 2, :] = elastic
            F[..., 3, :], T[..., 3, :], pi[..., 3, :] = damping
        if mass:
            F_star[..., 4:, :], T_star[..., 4:, :], pi[..., 4:, :] = cases[i]
        wrenches.append((F, F_star, T, T_star))
        pis.append(pi)

    proj = backward_recursion(chain, wrenches, cache)
    rows = np.empty(lead + (n_rows, chain.n))
    for i in range(len(chain)):
        rows[..., chain.slice(i)] = -(pis[i] + proj[i])
    components = {name: rows[..., c, :] for c, name in enumerate(_COMPONENTS)}

    force = components["inertial"].copy()
    if gravity:
        force += components["gravity"]
    if stress:
        force += components["elastic"] + components["damping"]

    M = rows[..., 4:, :].swapaxes(-1, -2) if mass else None
    return DynamicsResult(force=force, mass=M, components=components, cache=cache)


def _mass_matrix(chain: ChainModel, cache: KinematicsCache) -> list:
    """Unit-acceleration load cases of M(q), one (F*, T*, pi*) per body.

    Case k is qdd = e_k at rest.  The zero-velocity Jacobians A, W of the
    acceleration recursion give each body's inertial force and torque for
    every case, (..., n, 3) each, and its own projection, (..., n, n_i); the
    backward recursion turns them into the columns of M.
    """
    n = chain.n
    A = np.zeros((3, n))
    W = np.zeros((3, n))
    cases = []
    for i, lk in enumerate(chain.links):
        kin = cache[i]
        data = kin.data
        sl = chain.slice(i)
        nj = lk.joint.n_dof
        body_cols = slice(sl.start + nj, sl.stop)

        dv_rel = np.zeros(kin.Jt.shape[:-2] + (3, n))
        dw_rel = np.zeros(kin.Jw.shape[:-2] + (3, n))
        dv_rel[..., sl] = kin.Jt
        dw_rel[..., sl] = kin.Jw
        RT = kin.R_rel.swapaxes(-1, -2)
        A = RT @ (A - skew(kin.t_rel) @ W + dv_rel)
        W = RT @ (W + dw_rel)
        A_com = A - skew(data.p_com) @ W
        A_com[..., body_cols] += data.jac_com

        jF = -data.mass * A_com
        jT = -data.inertia @ W
        jT[..., body_cols] -= data.jac_mom_rd
        jp = -data.jac_mom_rd.swapaxes(-1, -2) @ W + data.jac_com.swapaxes(-1, -2) @ jF
        jp[..., body_cols] -= data.gram
        pi = np.zeros(jp.shape[:-2] + (n, lk.n_dof))
        pi[..., nj:] = jp.swapaxes(-1, -2)
        cases.append((jF.swapaxes(-1, -2), jT.swapaxes(-1, -2), pi))
    return cases


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
