"""Recursive inverse dynamics: per-body wrench terms, backward recursion,
and the IID / ID / MIID / MID algorithms.

Conventions.  All algorithms return left-hand-side quantities of
M qdd + c + g + s = nu: ``iid`` returns M qdd + c, ``inverse_dynamics``
returns nu.  These are the negatives of the generalized inertial/active
forces of the Kane formulation.

The mass-augmented variants propagate zero-velocity Jacobians of the
acceleration recursion forward and of the wrench recursion backward, so the
generalized mass matrix comes out of the same sweep that produces the force
vector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bodies.integrals import BodyInertialData
from .kinematics import BodyHandle, BodyKin, ChainModel, KinematicsCache, forward_pass
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
    if model.has_analytic_hess_x:
        # reuse the sweep's solve on the stacked points, then drop the anchors
        x, sol, k = handle.points, data.ev.sol, handle.n_anchors
    else:
        # differences in x would step the anchors off the end face: nodes only
        warnings.warn(
            f"{type(model).__name__} has no analytic second material derivatives; "
            "stress divergence falls back to finite differences",
            RuntimeWarning, stacklevel=2,
        )
        x, sol, k = data.nodes, None, 0

    w = data.weights_mass / model.rho
    C = model.elastic_modulus
    dens_e = 2.0 * C * _div_green(model, x, qb, sol)[k:]
    damping = zero
    if model.viscosity is not None and np.any(qdb):
        dF = model.jac_x_dq(x, qb, sol)[k:]  # (m, 3, 3, n_body)
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
    N = len(chain)
    wrenches = []
    pis = []
    for i, lk in enumerate(chain.links):
        kin = cache[i]
        data = kin.data
        nj = lk.joint.n_dof
        F_star, T_star, pi_star = inertial_terms(data, kin.w, kin.wdot, kin.a_com, nj)
        F = np.zeros((3, 3))  # rows: gravity, elastic, damping (active forces)
        T = np.zeros((3, 3))
        pi_active = np.zeros((3, lk.n_dof))
        if gravity:
            F[0], pi_active[0] = gravity_terms(data, kin.R_base, chain.gravity, nj)
        if stress and lk.body.model.elastic_modulus is not None:
            _, qb = chain.split(i, q)
            _, qdb = chain.split(i, qd)
            (F[1], T[1], pi_active[1]), (F[2], T[2], pi_active[2]) = stress_terms(
                lk.body, qb, qdb, data=data, n_joint=nj
            )
        # stacked components: inertial, gravity, elastic, damping
        Fs = np.vstack([np.zeros(3), F])
        Ts = np.vstack([np.zeros(3), T])
        F_stars = np.vstack([F_star, np.zeros((3, 3))])
        T_stars = np.vstack([T_star, np.zeros((3, 3))])
        wrenches.append((Fs, F_stars, Ts, T_stars))
        pis.append(np.vstack([pi_star, pi_active]))

    proj = backward_recursion(chain, wrenches, cache)
    components = {}
    for c, name in enumerate(_COMPONENTS):
        vec = np.zeros(chain.n)
        for i in range(N):
            vec[chain.slice(i)] = -(pis[i][c] + proj[i][c])
        components[name] = vec

    force = components["inertial"].copy()
    if gravity:
        force += components["gravity"]
    if stress:
        force += components["elastic"] + components["damping"]

    M = _mass_matrix(chain, cache) if mass else None
    return DynamicsResult(force=force, mass=M, components=components, cache=cache)


def _mass_matrix(chain: ChainModel, cache: KinematicsCache) -> Array:
    """Assemble M(q) from zero-velocity acceleration Jacobians (one sweep)."""
    n = chain.n
    N = len(chain)
    A_prev = np.zeros((3, n))
    W_prev = np.zeros((3, n))
    jac_F = [None] * N
    jac_T = [None] * N
    jac_pi = [None] * N
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
        A = RT @ (A_prev - skew(kin.t_rel) @ W_prev + dv_rel)
        W = RT @ (W_prev + dw_rel)
        A_com = A - skew(data.p_com) @ W
        A_com[:, body_cols] += data.jac_com

        jF = -data.mass * A_com
        jT = -data.inertia @ W
        jT[:, body_cols] -= data.jac_mom_rd
        jac_F[i] = jF
        jac_T[i] = jT

        jp = -data.jac_mom_rd.T @ W + data.jac_com.T @ jF
        jp[:, body_cols] -= data.gram
        block = np.zeros((lk.n_dof, n))
        block[nj:] = jp
        jac_pi[i] = block

        A_prev, W_prev = A, W

    M = np.zeros((n, n))
    acc_F = None
    acc_T = None
    for i in range(N - 1, -1, -1):
        kin = cache[i]
        if acc_F is None:
            acc_F = jac_F[i]
            acc_T = jac_T[i] + skew(kin.data.p_com) @ jac_F[i]
        else:
            nxt = cache[i + 1]
            rot_F = nxt.R_rel @ acc_F
            acc_T = (
                jac_T[i]
                + skew(kin.data.p_com) @ jac_F[i]
                + nxt.R_rel @ acc_T
                + skew(nxt.t_rel) @ rot_F
            )
            acc_F = jac_F[i] + rot_F
        M[chain.slice(i)] = -(jac_pi[i] + kin.Pv @ acc_F + kin.Pw @ acc_T)
    return M


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
