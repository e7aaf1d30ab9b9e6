import numpy as np
import pytest

from softid import presets
from softid.bodies.base import JAC_RATE_STEP
from softid.dynamics import _stage, gravity_terms, inertial_terms
from softid.errors import BodyDomainError
from softid.kinematics import forward_pass, link_jacobians
from softid.spatial import cross, skew


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240)


@pytest.fixture(scope="session")
def rigid_2r():
    return presets.rigid_2r_chain()


@pytest.fixture(scope="session")
def pcc2():
    return presets.pcc_chain(2)


@pytest.fixture(scope="session")
def pcs2():
    return presets.pcs_chain(2)


@pytest.fixture(scope="session")
def pac1():
    return presets.pac_chain(1)


@pytest.fixture(scope="session")
def pgc2():
    return presets.pgc_chain(2)


@pytest.fixture(scope="session")
def lvp1():
    return presets.lvp_chain()


def central_difference(fn, x, steps):
    """Central differences of ``fn`` at x, coordinate k stepped by ``steps[k]``,
    one column at a time: the columns (fn(x + h_k e_k) - fn(x - h_k e_k)) / (2 h_k)
    on a trailing axis.  The reference that the stacked differences of the
    package are checked against.
    """
    cols = [(fn(x + dx) - fn(x - dx)) / (2.0 * h) for h, dx in zip(steps, np.diag(steps))]
    return np.stack(cols, axis=-1) if cols else np.zeros(np.shape(fn(x)) + (0,))


def stage_alone(chain, i, q, qd=None, qdd=None, actuation=None):
    """Link i staged alone, as a group of one, with its stress terms and the
    terms of ``actuation``: the record whose rows are the states' (one row
    for one state), the per-link reference that the stages of a stage group
    are checked against."""
    q, qd, qdd = chain.check_state(q, qd, qdd)
    return _stage(chain, (i,), q, qd, qdd, True, actuation)


def link_entries(chain, stages, cache, i):
    """Link i's entries of a sweep's stage record in its own columns, with
    the per-link integrals of the sweep's ``cache``: the stage of link i
    that the per-link references read."""
    n = chain.links[i].n_dof
    stress = None if stages.stress is None else tuple((F[i], T[i], p[i][..., :n]) for F, T, p in stages.stress)
    return stages._replace(R_rel=stages.R_rel[i], t_rel=stages.t_rel[i],
                           **{name: getattr(stages, name)[i][..., :n] for name in ("Jt", "Jw", "Jt_dot", "Jw_dot")},
                           data=cache[i].data, stress=stress, actuation=stages.actuation[i], bodies=())


def reference_sweep(chain, q, qd, qdd, stages, gravity=True, stress=True, mass=True):
    """The body-frame recursion taken link by link from the sweep's stage
    record at the checked states: every 3-vector and wrench pair propagated
    alone and every per-link term taken per link, as the sweep ran before it
    took them for all links at once.  The per-link reference that
    ``chain_dynamics`` is checked against.  Returns the links' (v, w, a,
    wdot) in their frames and the force, M and components."""
    def mv(a, v):
        return (a @ v[..., None])[..., 0]

    lead, n, N = q.shape[:-1], chain.n, len(chain)
    R_base, v_p, w_p, a_p, wd_p = chain.base.rotation, *np.zeros((4, 3))
    A, W = np.zeros((2,) + lead + (3, n))  # M's zero-velocity Jacobians
    kins, wrenches, pis = [], [], []
    n_rows = 4 + (n if mass else 0)
    # the per-link integrals of the cache are the staged ones: no recursion of forward_pass enters
    cache = forward_pass(chain, q, qd, qdd, stages=stages)
    stages = [link_entries(chain, stages, cache, i) for i in range(N)]
    for i, (lk, st) in enumerate(zip(chain.links, stages)):
        sl, nj, d, t = chain.slice(i), lk.joint.n_dof, st.data, st.t_rel
        v_rel, w_rel = mv(st.Jt, qd[..., sl]), mv(st.Jw, qd[..., sl])
        a_rel = mv(st.Jt, qdd[..., sl]) + mv(st.Jt_dot, qd[..., sl])
        wd_rel = mv(st.Jw, qdd[..., sl]) + mv(st.Jw_dot, qd[..., sl])
        RT = st.R_rel.swapaxes(-1, -2)
        v = mv(RT, v_p + np.cross(w_p, t) + v_rel)
        w = mv(RT, w_p + w_rel)
        a = mv(RT, a_p + np.cross(wd_p, t) + np.cross(w_p, np.cross(w_p, t) + v_rel)
               + np.cross(w_p, v_rel) + a_rel)
        wd = mv(RT, wd_p + np.cross(w_p, w_rel) + wd_rel)
        a_com = (a + np.cross(wd, d.p_com) + np.cross(w, np.cross(w, d.p_com) + d.pdot_com)
                 + np.cross(w, d.pdot_com) + d.pddot_com)
        R_base = R_base @ st.R_rel
        kins.append((v, w, a, wd))
        v_p, w_p, a_p, wd_p = v, w, a, wd

        # rows: inertial, gravity, elastic, damping, then M's unit-acceleration cases
        F, T = np.zeros((2,) + lead + (n_rows, 3))
        pi = np.zeros(lead + (n_rows, lk.n_dof))
        F[..., 0, :], T[..., 0, :], pi[..., 0, :] = inertial_terms(d, w, wd, a_com, nj)
        if gravity:
            F[..., 1, :], pi[..., 1, :] = gravity_terms(d, R_base, chain.gravity, nj)
        if stress and st.stress is not None:
            (F[..., 2, :], T[..., 2, :], pi[..., 2, :]), (F[..., 3, :], T[..., 3, :], pi[..., 3, :]) = st.stress
        if mass:
            body = slice(sl.start + nj, sl.stop)
            dv, dw = np.zeros((2,) + lead + (3, n))
            dv[..., sl], dw[..., sl] = st.Jt, st.Jw
            A, W = RT @ (A - skew(t) @ W + dv), RT @ (W + dw)
            A_com = A - skew(d.p_com) @ W
            A_com[..., body] += d.jac_com
            jF, jT = -d.mass * A_com, -d.inertia @ W
            jT[..., body] -= d.jac_mom_rd
            jp = -d.jac_mom_rd.swapaxes(-1, -2) @ W + d.jac_com.swapaxes(-1, -2) @ jF
            jp[..., body] -= d.gram
            F[..., 4:, :], T[..., 4:, :], pi[..., 4:, nj:] = jF.swapaxes(-1, -2), jT.swapaxes(-1, -2), jp.swapaxes(-1, -2)
        wrenches.append((F, T + np.cross(d.p_com[..., None, :], F)))
        pis.append(pi)

    rows = np.empty(lead + (n_rows, n))
    for i in range(N - 1, -1, -1):
        F, T = wrenches[i]
        if i < N - 1:
            nxt = stages[i + 1]
            rot_F = acc_F @ nxt.R_rel.swapaxes(-1, -2)
            T = T + acc_T @ nxt.R_rel.swapaxes(-1, -2) + np.cross(nxt.t_rel[..., None, :], rot_F)
            F = F + rot_F
        acc_F, acc_T = F, T
        RT = stages[i].R_rel.swapaxes(-1, -2)
        rows[..., chain.slice(i)] = -(pis[i] + acc_F @ (RT @ stages[i].Jt) + acc_T @ (RT @ stages[i].Jw))
    components = {name: rows[..., c, :] for c, name in enumerate(("inertial", "gravity", "elastic", "damping"))}
    force = components["inertial"] + (components["gravity"] if gravity else 0.0)
    if stress:
        force = force + (components["elastic"] + components["damping"])
    return kins, force, rows[..., 4:, :].swapaxes(-1, -2) if mass else None, components


def sample_state(rng, n, q_range=np.pi, qd_range=10.0, qdd_range=100.0):
    return (
        rng.uniform(-q_range, q_range, n),
        rng.uniform(-qd_range, qd_range, n),
        rng.uniform(-qdd_range, qdd_range, n),
    )


def in_domain(chain, q):
    """False where some body map has no value at its quadrature nodes."""
    try:
        for i, lk in enumerate(chain.links):
            model = lk.body.model
            model.position(model.nodes()[0], [chain.split(i, q)[1]])
    except BodyDomainError:
        return False
    return True


def fixture_states(rng, chain, count, redrawn):
    """``count`` box states (:func:`sample_state`) inside the body maps' domain.

    The LVP bending map exists only where 2 kappa x_r < 1, which excludes
    part of the box; a state outside is redrawn and appended to ``redrawn``
    as (chain, state).  Fixtures without a domain limit draw exactly as
    :func:`sample_state`.
    """
    kept = 0
    while kept < count:
        state = sample_state(rng, chain.n)
        if in_domain(chain, state[0]):
            kept += 1
            yield state
        else:
            redrawn.append((chain, state))


def check_redrawn(redrawn, algorithm):
    """(ok, note): whether ``algorithm`` raises BodyDomainError at every redrawn state."""
    raised = True
    for chain, state in redrawn:
        try:
            algorithm(chain, *state)
            raised = False
        except BodyDomainError:
            pass
    return raised, (f"; {len(redrawn)} states outside the body-map domain redrawn "
                    f"({algorithm.__name__} raises BodyDomainError at each: {raised})")


# -- the package's contractions in their einsum forms: test-only references ------------

def einsum_matvec3(a, v):
    """:func:`softid.spatial.matvec3` as one einsum."""
    return np.einsum("...kj,...j->...k", a, v)


def ref_framed_jacobian(handle, f, jq, frame):
    """``BodyHandle.framed_jacobian`` by einsum."""
    R, t, dR, dt = frame
    rel = f - t[:, None]
    jac = np.einsum("rmaj,rab->rmbj", jq - dt[:, None], R)
    if not handle.free_tip:
        jac += np.einsum("rma,rjab->rmbj", rel, dR)
    return rel @ R, jac


def ref_rod_maps(model, x, q, sol):
    """The five maps of a ``CosseratRodBody`` by einsum, from its solution at x."""
    R, c, dR, dc = sol[:4]
    u = model.cross_section(x, q)
    jac_q = dc.swapaxes(2, 3) + np.einsum("rkjab,rkb->rkaj", dR, u)
    du = model.cross_section_jac_q(x, q)
    if du is not None:
        jac_q = jac_q + np.einsum("rkab,rkbj->rkaj", R, du)
    xi, dxi = model.basis.strains(x[:, 2], q), model.basis.strains_ds(x[:, 2], q)
    kap, sig = xi[..., :3], xi[..., 3:]
    tangent = sig + cross(kap, u)
    jac_x = R.copy()
    jac_x[..., 2] = np.einsum("rkab,rkb->rka", R, tangent)
    phi = model.basis.matrix(x[:, 2])
    d_tangent = phi[:, 3:] + cross(np.swapaxes(phi[:, :3], 1, 2), u[..., None, :]).swapaxes(-1, -2)
    jac_x_dq = np.empty(R.shape + (model.n_dof,))
    jac_x_dq[..., :2, :] = dR[..., :2].transpose(0, 1, 3, 4, 2)
    jac_x_dq[..., 2, :] = np.einsum("rkjab,rkb->rkaj", dR, tangent) + R @ d_tangent
    columns = (cross(kap, [1.0, 0.0, 0.0]), cross(kap, [0.0, 1.0, 0.0]),
               cross(kap, sig + cross(kap, u)) + dxi[..., 3:] + cross(dxi[..., :3], u))
    hess_x = np.zeros(R.shape + (3,))
    for k, column in enumerate(columns):
        hess_x[..., k, 2] = hess_x[..., 2, k] = np.einsum("rkab,rkb->rka", R, column)
    return {"position": c + np.einsum("rkab,rkb->rka", R, u), "jac_q": jac_q, "jac_x": jac_x,
            "jac_x_dq": jac_x_dq, "hess_x": hess_x}


def ref_lvp_jac_q(model, y, q):
    """``LvpBody._jac_q`` (one configuration) by einsum."""
    total = np.zeros((y.shape[0], 3, model.n_dof))
    for p in model.primitives:
        total = np.einsum("mab,mbj->maj", p.jac_x(y, q), total)
        own = p.jac_coeffs(y, q)
        for col, idx in enumerate(p.indices):
            total[:, :, idx] += own[:, :, col]
        y = p.apply(y, q)
    return total


def ref_body_integrals(handle, ev, jac_rate, qdb, qddb):
    """The fields of ``body_integrals`` by einsum and cross products, as a dict."""
    model = handle.model
    pts, w = model.nodes()
    wm = w * model.rho
    mass = float(wm.sum())
    ip, Jp, Jp_dot = ev.points, ev.jac, jac_rate
    p_com = (wm @ ip) / mass
    jac_com = np.einsum("m,...maj->...aj", wm, Jp) / mass
    jacdot_com = np.einsum("m,...maj->...aj", wm, Jp_dot) / mass
    r = ip - p_com[..., None, :]
    Jr = Jp - jac_com[..., None, :, :]
    Jr_dot = Jp_dot - jacdot_com[..., None, :, :]
    rdot = np.einsum("...maj,...j->...ma", Jr, qdb)
    rddot = np.einsum("...maj,...j->...ma", Jr, qddb) + np.einsum("...maj,...j->...ma", Jr_dot, qdb)
    eye = np.eye(3)
    rr = np.einsum("m,...ma,...mb->...ab", wm, r, r)
    r_rd = np.einsum("m,...ma,...mb->...ab", wm, rdot, r)
    Jr_rows = Jr.swapaxes(-1, -2)
    ur = np.einsum("m,...maj,...ma->...j", wm, Jr, r)
    r_uk = np.einsum("m,...ma,...mbj->...jab", wm, r, Jr)
    return {
        "p_com": p_com, "pdot_com": (jac_com @ qdb[..., None])[..., 0],
        "pddot_com": (jac_com @ qddb[..., None])[..., 0] + (jacdot_com @ qdb[..., None])[..., 0],
        "jac_com": jac_com, "jacdot_com": jacdot_com,
        "inertia": np.trace(rr, axis1=-2, axis2=-1)[..., None, None] * eye - rr,
        "inertia_rate": (2.0 * np.trace(r_rd, axis1=-2, axis2=-1)[..., None, None] * eye
                         - r_rd - r_rd.swapaxes(-1, -2)),
        "mom_rd": np.einsum("m,...ma->...a", wm, cross(r, rdot)),
        "mom_rdd": np.einsum("m,...ma->...a", wm, cross(r, rddot)),
        "jac_mom_rd": np.einsum("m,...mja->...aj", wm, cross(r[..., None, :], Jr_rows)),
        "proj_rdd": np.einsum("m,...maj,...ma->...j", wm, Jr, rddot),
        "proj_cor": -np.einsum("m,...mja->...ja", wm, cross(rdot[..., None, :], Jr_rows)),
        "inertia_grad": 2.0 * ur[..., None, None] * eye - r_uk - r_uk.swapaxes(-1, -2),
        "gram": np.einsum("m,...maj,...mak->...jk", wm, Jr, Jr),
        "r": r, "rdot": rdot,
    }


def ref_inertial_terms(data, w, wdot, a_com):
    """``inertial_terms`` (no joint rows) with its velocity-squared term by einsum."""
    def mv(a, v):
        return (a @ v[..., None])[..., 0]

    F = -data.mass * a_com
    T = (mv(-data.inertia, wdot) - cross(w, mv(data.inertia, w)) - mv(data.inertia_rate, w)
         - cross(w, data.mom_rd) - data.mom_rdd)
    pi = (mv(-data.jac_mom_rd.swapaxes(-1, -2), wdot) + 0.5 * np.einsum("...a,...kba,...b->...k", w, data.inertia_grad, w)
          + 2.0 * mv(data.proj_cor, w) - data.proj_rdd + mv(data.jac_com.swapaxes(-1, -2), F))
    return F, T, pi


def ref_stress_terms(handle, data, qb, qdb):
    """``stress_terms`` (no joint rows) of a stack (b, n) by einsum."""
    model = handle.model
    sol = None if data.ev.sol is None else tuple(a[:, handle.n_anchors:] for a in data.ev.sol)
    w, C = data.weights_mass / model.rho, model.elastic_modulus
    F, H = model.jac_x(data.nodes, qb, sol), model.hess_x(data.nodes, qb, sol)
    dens_e = 2.0 * C * (np.einsum("...macb,...mbc->...ma", H, F) + np.einsum("...mac,...mbcb->...ma", F, H))
    dF = model.jac_x_dq(data.nodes, qb, sol)
    F_dot = (dF @ qdb[:, None, None, :, None])[..., 0]
    pi_d = (-2.0 * model.viscosity * C) * np.einsum("m,rmabj,rmab->rj", w, dF, F_dot)
    dens_e = dens_e @ data.ev.frame[0]
    pi_e = np.einsum("m,rmaj,rma->rj", w, data.ev.jac, dens_e)
    return (w @ dens_e, w @ cross(data.r, dens_e), pi_e), pi_d


def ref_chamber_terms(model, pts, w, qb, sol):
    """A chamber's volumes and volume gradients (``ChamberActuation.link_terms``)
    by einsum, and the gradients' sums of absolute terms, their rounding scale."""
    F, dF = model.jac_x(pts, qb, sol), model.jac_x_dq(pts, qb, sol)
    cof = np.stack([cross(F[..., 1], F[..., 2]), cross(F[..., 2], F[..., 0]), cross(F[..., 0], F[..., 1])], axis=-1)
    return (np.linalg.det(F) @ w, np.einsum("p,rpab,rpabj->rj", w, cof, dF),
            np.einsum("p,rpab,rpabj->rj", np.abs(w), np.abs(cof), np.abs(dF)))


def ref_backward_recursion(chain, wrenches, cache):
    """``backward_recursion`` with the moment p_com x Fc by ``spatial.cross``."""
    w = np.asarray(wrenches, dtype=float)
    lk = cache.links
    single = w.ndim == lk.data.p_com.ndim + 1
    F, F_star, T, T_star = (w[..., None, :] if single else w).swapaxes(0, 1)
    Fc = F + F_star
    W = np.concatenate([Fc, T + T_star + cross(lk.data.p_com[..., None, :], Fc)], -1)
    for i in range(len(chain) - 2, -1, -1):
        W[i] += W[i + 1] @ lk.X[i + 1]
    out = W @ lk.S
    return out[..., 0, :] if single else out


# -- time rates by differences along the velocity: test-only references ------------

def unit_rate(q, qd, step=JAC_RATE_STEP):
    """Where to evaluate the arrays whose time rates along paths through the
    rows of q (b, n) with velocities qd (b, n) are wanted, and the rates:
    one central difference along u = qd/|qd| at h = step max(1, |q|),
    scaled by |qd|.  Returns (points, rate): ``points`` stacks the rows of q
    and then, for every moving row, q + h u and q - h u; ``rate(a)`` maps
    an array evaluated at ``points`` to the rates at the rows of q (zero at
    rest).  The stencil the stages took for every body before the body
    models supplied exact rates (then at step 1e-6, where its rounding
    error, amplified by the contact frame's normalization, reaches 3e-8 of
    the largest rate on the PCS and PGC fixtures)."""
    b = q.shape[0]
    speed = np.sqrt((qd * qd).sum(1))
    moving = np.flatnonzero(speed)
    h = step * np.maximum(1.0, np.sqrt((q[moving] * q[moving]).sum(1)))
    step = h[:, None] * (qd[moving] / speed[moving, None])
    scale = speed[moving] / (2.0 * h)
    k = moving.size

    def rate(a):
        out = np.zeros((b,) + a.shape[1:])
        out[moving] = scale.reshape((k,) + (1,) * (a.ndim - 1)) * (a[b:b + k] - a[b + k:])
        return out

    return np.concatenate([q, q[moving] + step, q[moving] - step]), rate


def ref_link_rates(chain, i, q, qd):
    """Jt_dot, Jw_dot of link i and the rate of its body's node Jacobian at
    the states q, qd (b, n), by :func:`unit_rate` on the link's block: the
    values at q +- h u, differenced."""
    points, rate = unit_rate(chain.rows((i,), q), chain.rows((i,), qd))
    nj = chain.links[i].joint.n_dof
    ev = chain.links[i].body.evaluate(points[:, nj:])
    _, _, Jt, Jw = link_jacobians(chain.joints((i,), len(points)), ev.frame, points)
    return rate(Jt), rate(Jw), rate(ev.jac)


def along(fn, args, tangents, h=1e-6):
    """Central differences of every output of fn(*args) along the straight
    path args + t tangents (None: a constant argument), at t = 0."""
    def at(t):
        return fn(*(a if d is None else a + t * d for a, d in zip(args, tangents)))

    return [(p - m) / (2.0 * h) for p, m in zip(at(h), at(-h))]
