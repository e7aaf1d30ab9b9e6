import numpy as np
import pytest

from softid import presets
from softid.dynamics import _stage, gravity_terms, inertial_terms
from softid.errors import BodyDomainError
from softid.spatial import skew


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
    terms of ``actuation``: the per-link reference that the stages of a
    stage group are checked against."""
    q, qd, qdd = chain.check_state(q, qd, qdd)
    return _stage(chain, (i,), q, qd, qdd, True, actuation).split(1, q.ndim == 1)[0]


def reference_sweep(chain, q, qd, qdd, stages, gravity=True, stress=True, mass=True):
    """The body-frame recursion taken link by link from the links' stages
    at the checked states: every 3-vector and wrench pair propagated alone
    and every per-link term taken per link, as the sweep ran before it took
    them for all links at once.  The per-link reference that
    ``chain_dynamics`` is checked against.  Returns the links' (v, w, a,
    wdot) in their frames and the force, M and components."""
    def mv(a, v):
        return (a @ v[..., None])[..., 0]

    lead, n, N = q.shape[:-1], chain.n, len(chain)
    R_base, v_p, w_p, a_p, wd_p = chain.base.rotation, *np.zeros((4, 3))
    A, W = np.zeros((2,) + lead + (3, n))  # M's zero-velocity Jacobians
    kins, wrenches, pis = [], [], []
    n_rows = 4 + (n if mass else 0)
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
