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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies.integrals import BodyInertialData
from .kinematics import BodyHandle, ChainModel, KinematicsCache, forward_pass
from .spatial import cross, skew, vec_kron_contract

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
        -data.inertia @ wdot
        - cross(w, data.inertia @ w)
        - data.inertia_rate @ w
        - cross(w, data.mom_rd)
        - data.mom_rdd
    )
    n = data.jac_com.shape[1]
    stack = data.inertia_grad.transpose(0, 2, 1).reshape(n, 9).T  # column-wise vec
    pi_body = (
        -data.jac_mom_rd.T @ wdot
        + vec_kron_contract(w, stack)
        + 2.0 * data.proj_cor @ w
        - data.proj_rdd
        + data.jac_com.T @ F
    )
    pi = np.concatenate([np.zeros(n_joint), pi_body])
    return F, T, pi


def gravity_terms(data: BodyInertialData, R_base: Array, gravity: Array, n_joint: int = 0):
    """Gravity force in the body frame and its generalized projection."""
    g_body = R_base.T @ np.asarray(gravity, dtype=float)
    F = data.mass * g_body
    pi = np.concatenate([np.zeros(n_joint), data.jac_com.T @ F])
    return F, pi


def _div_green(model, x: Array, qb: Array, sol=None) -> Array:
    """Row-wise divergence of the Green tensor B = (df/dx)(df/dx)^T, (m, 3)."""
    F = model.jac_x(x, qb, sol)
    H = model.hess_x(x, qb, sol)
    return np.einsum("macb,mbc->ma", H, F) + np.einsum("mac,mbcb->ma", F, H)


def stress_terms(body, qb: Array, qdb: Array | None = None,
                 data: BodyInertialData | None = None, n_joint: int = 0):
    """Visco-elastic stress wrenches and projections of one body.

    Elastic force density 2C div_x(B) for the incompressible Neo-Hookean
    solid, expressed in the joint frame of the raw body map and rotated into
    the contact frame.  Damping is the Rayleigh (virtual-power) form of the
    Kelvin-Voigt element: dissipation R = eta C int |F_dot|^2 dV over the
    deformation gradient F = df/dx, giving the generalized force
    dR/dqd = 2 eta C int (dF/dq) : F_dot dV.  It acts on the body's own
    coordinates only (no wrench) and is positive semi-definite.  Returns
    ((F_e, T_e, pi_e), (F_d, T_d, pi_d)) with pi the active projections.
    """
    from .bodies.integrals import body_integrals

    handle = body if isinstance(body, BodyHandle) else BodyHandle(body, free_tip=True)
    model = handle.model
    n = model.n_dof + n_joint
    zero = (np.zeros(3), np.zeros(3), np.zeros(n))
    if model.elastic_modulus is None:
        return zero, zero
    qb = model.check_q(qb)
    qdb = np.zeros(model.n_dof) if qdb is None else np.asarray(qdb, dtype=float)
    if data is None:
        data = body_integrals(handle, qb)
    # the sweep's solve at the nodes alone: differences in x would step the
    # end-face anchors off the domain
    sol = data.ev.sol
    sol = None if sol is None else tuple(a[handle.n_anchors:] for a in sol)

    w = data.weights_mass / model.rho
    C = model.elastic_modulus
    dens_e = 2.0 * C * _div_green(model, data.nodes, qb, sol)
    damping = zero
    if model.viscosity is not None and np.any(qdb):
        dF = model.jac_x_dq(data.nodes, qb, sol)  # (m, 3, 3, n_body)
        pi_d = (-2.0 * model.viscosity * C) * np.einsum("m,mabj,mab->j", w, dF, dF @ qdb)
        damping = (np.zeros(3), np.zeros(3), np.concatenate([np.zeros(n_joint), pi_d]))

    dens_e = dens_e @ data.ev.frame[0]  # rotate per-node densities into {S_i}
    pi_e = np.einsum("m,maj,ma->j", w, data.ev.jac, dens_e)
    elastic = (w @ dens_e, w @ cross(data.r, dens_e), np.concatenate([np.zeros(n_joint), pi_e]))
    return elastic, damping


def backward_recursion(chain: ChainModel, wrenches, cache: KinematicsCache):
    """Backward sweep of the wrench recursion; returns per-body projections.

    ``wrenches`` is one (F, F_star, T, T_star) tuple per body; entries may be
    stacked (..., 3) arrays to propagate several independent load cases in
    one sweep (the recursion is linear in all arguments).  The output list
    holds arrays of shape (..., n_i).
    """
    N = len(chain)
    out = [None] * N
    acc_F = None
    acc_T = None
    for i in range(N - 1, -1, -1):
        F, F_star, T, T_star = (np.asarray(a, dtype=float) for a in wrenches[i])
        kin = cache[i]
        Fc = F + F_star
        Tc = T + T_star + cross(kin.data.p_com, Fc)
        if acc_F is None:
            acc_F, acc_T = Fc, Tc
        else:
            nxt = cache[i + 1]
            rot_F = acc_F @ nxt.R_rel.T
            acc_T = Tc + acc_T @ nxt.R_rel.T + cross(nxt.t_rel, rot_F)
            acc_F = Fc + rot_F
        out[i] = acc_F @ kin.Pv.T + acc_T @ kin.Pw.T
    return out


# -- main evaluation pipeline ---------------------------------------------------

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
) -> DynamicsResult:
    """One forward/backward sweep with selectable force contributions.

    ``base_accel`` defaults to zero here: gravity enters through its explicit
    terms.  Seeding ``base_accel = -chain.gravity`` with ``gravity=False``
    reproduces the same forces through the inertial path (cross-check mode).
    """
    q, qd, qdd = chain.check_state(q, qd, qdd)
    cache = forward_pass(
        chain, q, qd, qdd,
        base_accel=np.zeros(3) if base_accel is None else np.asarray(base_accel, dtype=float),
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
        F, F_star, T, T_star = (np.zeros((n_rows, 3)) for _ in range(4))
        pi = np.zeros((n_rows, lk.n_dof))
        F_star[0], T_star[0], pi[0] = inertial_terms(data, kin.w, kin.wdot, kin.a_com, nj)
        if gravity:
            F[1], pi[1] = gravity_terms(data, kin.R_base, chain.gravity, nj)
        if stress and lk.body.model.elastic_modulus is not None:
            _, qb = chain.split(i, q)
            _, qdb = chain.split(i, qd)
            (F[2], T[2], pi[2]), (F[3], T[3], pi[3]) = stress_terms(
                lk.body, qb, qdb, data=data, n_joint=nj
            )
        if mass:
            F_star[4:], T_star[4:], pi[4:] = cases[i]
        wrenches.append((F, F_star, T, T_star))
        pis.append(pi)

    proj = backward_recursion(chain, wrenches, cache)
    rows = np.empty((n_rows, chain.n))
    for i in range(len(chain)):
        rows[:, chain.slice(i)] = -(pis[i] + proj[i])
    components = dict(zip(_COMPONENTS, rows))

    force = components["inertial"].copy()
    if gravity:
        force += components["gravity"]
    if stress:
        force += components["elastic"] + components["damping"]

    M = rows[4:].T if mass else None
    return DynamicsResult(force=force, mass=M, components=components, cache=cache)


def _mass_matrix(chain: ChainModel, cache: KinematicsCache) -> list:
    """Unit-acceleration load cases of M(q), one (F*, T*, pi*) per body.

    Case k is qdd = e_k at rest.  The zero-velocity Jacobians A, W of the
    acceleration recursion give each body's inertial force and torque for
    every case, (n, 3) each, and its own projection, (n, n_i); the backward
    recursion turns them into the columns of M.
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

        dv_rel = np.zeros((3, n))
        dw_rel = np.zeros((3, n))
        dv_rel[:, sl] = kin.Jt
        dw_rel[:, sl] = kin.Jw
        RT = kin.R_rel.T
        A = RT @ (A - skew(kin.t_rel) @ W + dv_rel)
        W = RT @ (W + dw_rel)
        A_com = A - skew(data.p_com) @ W
        A_com[:, body_cols] += data.jac_com

        jF = -data.mass * A_com
        jT = -data.inertia @ W
        jT[:, body_cols] -= data.jac_mom_rd
        jp = -data.jac_mom_rd.T @ W + data.jac_com.T @ jF
        jp[:, body_cols] -= data.gram
        pi = np.zeros((n, lk.n_dof))
        pi[:, nj:] = jp.T
        cases.append((jF.T, jT.T, pi))
    return cases


# -- the four algorithms ---------------------------------------------------------

def iid(chain: ChainModel, q, qd, qdd, base_accel=None) -> Array:
    """Inertial inverse dynamics: M(q) qdd + c(q, qd)."""
    return chain_dynamics(chain, q, qd, qdd, gravity=False, stress=False,
                          base_accel=base_accel).force


def inverse_dynamics(chain: ChainModel, q, qd, qdd) -> Array:
    """Full inverse dynamics: nu = M qdd + c + g + s."""
    return chain_dynamics(chain, q, qd, qdd).force


def miid(chain: ChainModel, q, qd, qdd) -> DynamicsResult:
    """IID with the generalized mass matrix from the same sweep."""
    return chain_dynamics(chain, q, qd, qdd, gravity=False, stress=False, mass=True)


def mid(chain: ChainModel, q, qd, qdd) -> DynamicsResult:
    """Full inverse dynamics with the generalized mass matrix."""
    return chain_dynamics(chain, q, qd, qdd, mass=True)
