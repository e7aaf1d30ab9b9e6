import numpy as np
import pytest

from softid import presets
from softid.bodies import CosseratRodBody, RigidBody, pcc_basis
from softid.errors import DegenerateContactError
from softid.kinematics import (
    BodyHandle,
    ChainModel,
    Joint,
    fixed_joint,
    forward_kinematics,
    forward_pass,
    link_jacobians,
    prismatic_joint,
    revolute_joint,
    rotated_base_joint,
)
from softid.oracle import chain_points
from softid.quadrature import ReferenceDomain
from softid.spatial import Transform, rodrigues

from conftest import along, sample_state

L0, R0, RHO = 0.3, 0.01, 1070.0


def pcc_handle(order=(3, 8, 6)):
    dom = ReferenceDomain.cylinder(R0, L0)
    model = CosseratRodBody(pcc_basis(L0), L0, dom, RHO, quadrature_order=order)
    return BodyHandle(model, x_j=[0, 0, L0], x_a=[R0 / 2, 0, L0], x_b=[0, R0 / 2, L0])


def rigid_handle(length=1.0, radius=0.02):
    dom = ReferenceDomain.cylinder(radius, length)
    model = RigidBody(dom, 1000.0, quadrature_order=(3, 8, 4))
    return BodyHandle(model, x_j=[0, 0, length], x_a=[radius, 0, length], x_b=[0, radius, length])


def link_frame(hb, qi, joint=None):
    """Body frame {S_i} of a one-link chain: the contact frame behind a fixed
    joint, the link transform behind any other."""
    return forward_kinematics(ChainModel([(joint or fixed_joint(), hb)]), qi)[0]["body"]


# -- contact frames -------------------------------------------------------------

def test_rigid_contact_frame_constant():
    hb = rigid_handle()
    t = link_frame(hb, np.zeros(0))
    assert np.allclose(t.rotation, np.eye(3))
    assert np.allclose(t.translation, [0, 0, 1.0])


def test_pcc_straight_contact_frame():
    hb = pcc_handle()
    t = link_frame(hb, np.zeros(3))
    assert np.allclose(t.rotation, np.eye(3), atol=1e-14)
    assert np.allclose(t.translation, [0, 0, L0], atol=1e-14)


def test_pcc_arc_contact_frame():
    hb = pcc_handle()
    q = np.array([np.pi / 2, 0.0, 0.0])
    t = link_frame(hb, q)
    radius = L0 / (np.pi / 2)
    assert abs(abs(t.translation[1]) - radius * (1 - np.cos(np.pi / 2))) < 1e-12
    assert abs(t.translation[2] - radius * np.sin(np.pi / 2)) < 1e-12
    # tangent of the arc: rotation by pi/2 about x
    assert np.allclose(t.rotation, rodrigues([1, 0, 0], np.pi / 2), atol=1e-12)


def test_contact_frame_orthonormal_random(rng):
    hb = pcc_handle()
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 3)
        t = link_frame(hb, q)
        assert np.abs(t.rotation.T @ t.rotation - np.eye(3)).max() < 1e-12


def test_anchor_orthogonality_enforced():
    dom = ReferenceDomain.cylinder(R0, L0)
    model = CosseratRodBody(pcc_basis(L0), L0, dom, RHO)
    with pytest.raises(ValueError, match="orthogonal"):
        BodyHandle(model, x_j=[0, 0, L0], x_a=[R0 / 2, 0, L0], x_b=[R0 / 2, R0 / 2, L0])


def test_degenerate_contact_detected():
    class CollapsingBody(RigidBody):
        def position(self, x, q, sol=None):
            return np.zeros((len(q),) + np.shape(x))

    dom = ReferenceDomain.cylinder(R0, L0)
    # a rigid handle builds its constant contact frame on construction
    with pytest.raises(DegenerateContactError):
        BodyHandle(CollapsingBody(dom, RHO), x_j=[0, 0, L0], x_a=[R0, 0, L0], x_b=[0, R0, L0])


# -- link transforms --------------------------------------------------------------

def test_fixed_joint_rigid_body_constant():
    hb = rigid_handle()
    t1 = link_frame(hb, np.zeros(0), fixed_joint())
    assert np.allclose(t1.rotation, np.eye(3))
    assert np.allclose(t1.translation, [0, 0, 1.0])


def test_revolute_half_turn():
    hb = rigid_handle()
    t = link_frame(hb, np.array([np.pi]), revolute_joint([0, 0, 1]))
    assert np.allclose(t.rotation, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)


WALK_CHAINS = {
    "pcc_2": presets.pcc_chain,
    "rigid_2r": presets.rigid_2r_chain,
    "revolute_prismatic": lambda: ChainModel([(revolute_joint([0.3, 1.0, 0.2]), pcc_handle((2, 6, 5))),
                                              (prismatic_joint([0.2, -0.4, 1.0]), rigid_handle())]),
}


@pytest.mark.parametrize("name", sorted(WALK_CHAINS))
def test_forward_kinematics_matches_forward_pass(name, rng):
    """The walk outside the recursion and the recursion place every body alike."""
    chain = WALK_CHAINS[name]()
    q, _, _ = sample_state(rng, chain.n)
    nodes = [lk.body.model.nodes()[0] for lk in chain.links]
    frames = forward_kinematics(chain, q, nodes)
    for fr, kin in zip(frames, forward_pass(chain, q).bodies):
        assert np.abs(fr["body"].rotation - kin.R_base).max() < 1e-12
        assert np.abs(fr["body"].translation - kin.t_base).max() < 1e-12
        assert np.abs(fr["points"] - (kin.data.ev.points @ kin.R_base.T + kin.t_base)).max() < 1e-12


def test_forward_kinematics_rejects_a_stack():
    chain = presets.pcc_chain(2)
    with pytest.raises(ValueError, match=r"takes one state \(6,\), got a stack of shape \(1, 6\)"):
        forward_kinematics(chain, np.zeros((1, chain.n)))


def test_joint_kinds():
    assert Joint("fixed").n_dof == 0
    assert Joint("revolute", axis=[0, 0, 2.0]).n_dof == 1
    r = Joint("rotated_base", rotation=rodrigues([1, 0, 0], 0.5))
    assert r.n_dof == 0
    with pytest.raises(ValueError):
        Joint("weird")
    with pytest.raises(ValueError):
        Joint("revolute", axis=[0, 0, 0])


# -- forward pass ------------------------------------------------------------------

def test_static_chain_zero_velocities(rng):
    chain = presets.pcc_chain(2)
    q, _, _ = sample_state(rng, chain.n)
    cache = forward_pass(chain, q, None, None, base_accel=np.zeros(3))
    for kin in cache.bodies:
        for vec in (kin.v, kin.w, kin.a, kin.wdot, kin.v_com, kin.a_com):
            assert np.abs(vec).max() == 0.0


def test_single_revolute_rigid_link(rng):
    chain = ChainModel([(revolute_joint([0, 0, 1]), rigid_handle())], gravity=[0, 0, 0])
    wz = 0.7
    cache = forward_pass(chain, [0.3], [wz], [0.0], base_accel=np.zeros(3))
    kin = cache[0]
    assert np.allclose(kin.w, [0, 0, wz], atol=1e-14)
    expected_vcom = np.cross([0, 0, wz], kin.data.p_com)
    # v_com = v + w x p_com; frame origin itself moves with the joint
    assert np.allclose(kin.v_com, kin.v + expected_vcom, atol=1e-14)


def _fd_velocity_check(chain, q, qd, dt=1e-6):
    """Base-frame material point velocity versus central differences."""
    pts = [lk.body.model.nodes()[0][:5] for lk in chain.links]
    plus = chain_points(chain, q + dt * qd, pts)
    minus = chain_points(chain, q - dt * qd, pts)
    return [(a - b) / (2 * dt) for a, b in zip(plus, minus)]


def test_velocities_match_position_differences(rng):
    chain = presets.pcc_chain(2)
    q0 = np.array([1.5, 1, 0, 1, -1, 0.1])
    qd = rng.uniform(-1, 1, 6)
    cache = forward_pass(chain, q0, qd, None, base_accel=np.zeros(3))
    fd = _fd_velocity_check(chain, q0, qd)
    for i, kin in enumerate(cache.bodies):
        data = kin.data
        pts_local = data.ev.points[:5]
        jac_local = data.ev.jac[:5]
        _, qb = chain.split(i, q0)
        _, qdb = chain.split(i, qd)
        local_rate = np.einsum("maj,j->ma", jac_local, qdb)
        v_pts = (kin.v + np.cross(kin.w, pts_local) + local_rate) @ kin.R_base.T
        rel = np.abs(v_pts - fd[i]).max() / max(np.abs(fd[i]).max(), 1e-9)
        assert rel < 1e-6


def test_accelerations_match_position_differences(rng):
    chain = presets.pcc_chain(2)
    q = rng.uniform(-1, 1, 6)
    qd = rng.uniform(-2, 2, 6)
    qdd = rng.uniform(-5, 5, 6)
    dt = 5e-5
    pts = [lk.body.model.nodes()[0][:4] for lk in chain.links]

    def pos(t):
        return chain_points(chain, q + t * qd + 0.5 * t * t * qdd, pts)

    p0, pp, pm = pos(0.0), pos(dt), pos(-dt)
    cache = forward_pass(chain, q, qd, qdd, base_accel=np.zeros(3))
    for i, kin in enumerate(cache.bodies):
        fd_acc = (pp[i] - 2 * p0[i] + pm[i]) / dt**2
        data = kin.data
        r = data.r[:4]
        rdot = data.rdot[:4]
        # a_pt = a_com + wd x r + w x (w x r) + 2 w x rdot + rddot, rotated to base
        qddb = chain.split(i, qdd)[1]
        qdb = chain.split(i, qd)[1]
        # local second rate: use finite differences of the framed jacobian
        h = 1e-6 / max(1.0, np.linalg.norm(qdb))
        body = chain.links[i].body
        jp = body.evaluate([chain.split(i, q)[1] + h * qdb]).jac[0, :4]
        jm = body.evaluate([chain.split(i, q)[1] - h * qdb]).jac[0, :4]
        jdot = (jp - jm) / (2 * h)
        jc_dot = data.jacdot_com
        rddot = (np.einsum("maj,j->ma", data.ev.jac[:4] - data.jac_com[None], qddb)
                 + np.einsum("maj,j->ma", jdot - jc_dot[None], qdb))
        a_pts = (kin.a_com[None]
                 + np.cross(kin.wdot, r) + np.cross(kin.w, np.cross(kin.w, r))
                 + 2 * np.cross(kin.w, rdot) + rddot)
        a_base = a_pts @ kin.R_base.T
        rel = np.abs(a_base - fd_acc).max() / max(np.abs(fd_acc).max(), 1e-9)
        assert rel < 1e-4


def test_projection_matrices_prismatic():
    chain = ChainModel([(prismatic_joint([0, 0, 1]), rigid_handle())], gravity=[0, 0, 0])
    kin = forward_pass(chain, np.array([0.2]))[0]
    assert np.allclose(kin.Pv, [[0, 0, 1.0]])
    assert np.allclose(kin.Pw, np.zeros((1, 3)))


def test_projection_matrices_match_fd(rng):
    chain = presets.pcc_chain(1)
    q = rng.uniform(-1, 1, 3)
    kin = forward_pass(chain, q)[0]
    pv, pw = kin.Pv, kin.Pw
    h = 1e-7
    for k in range(3):
        dqd = np.zeros(3)
        dqd[k] = h
        cp = forward_pass(chain, q, dqd, None, base_accel=np.zeros(3))[0]
        cm = forward_pass(chain, q, -dqd, None, base_accel=np.zeros(3))[0]
        dv = (cp.v - cm.v) / (2 * h)
        dw = (cp.w - cm.w) / (2 * h)
        assert np.abs(pv[k] - dv).max() < 1e-7
        assert np.abs(pw[k] - dw).max() < 1e-7


def test_partial_velocity_shift_identities(rng):
    """Recursive shift of the full-chain partial velocity matrices."""
    chain = presets.pcc_chain(3)
    q, qd, _ = sample_state(rng, chain.n, q_range=1.0, qd_range=1.0)
    n = chain.n
    h = 1e-7

    def vel(qd_probe):
        cache = forward_pass(chain, q, qd_probe, None, base_accel=np.zeros(3))
        return [(k.v.copy(), k.w.copy()) for k in cache.bodies]

    # partial velocities by finite differences over qdot (exact: linear map)
    pv = np.zeros((len(chain), n, 3))
    pw = np.zeros((len(chain), n, 3))
    for k in range(n):
        dqd = np.zeros(n)
        dqd[k] = h
        up = vel(dqd)
        dn = vel(-dqd)
        for j in range(len(chain)):
            pv[j, k] = (up[j][0] - dn[j][0]) / (2 * h)
            pw[j, k] = (up[j][1] - dn[j][1]) / (2 * h)

    cache = forward_pass(chain, q, qd, None, base_accel=np.zeros(3))
    from softid.spatial import skew

    for j in range(len(chain) - 1):
        nxt = cache[j + 1]
        lhs_v = pv[j + 1]
        rhs_v = pv[j] @ nxt.R_rel + pw[j] @ skew(nxt.t_rel) @ nxt.R_rel
        lhs_w = pw[j + 1]
        rhs_w = pw[j] @ nxt.R_rel
        # rows of successor coordinates are zero on the right; compare predecessors
        rows = slice(0, chain.slice(j).stop)
        assert np.abs(lhs_v[rows] - rhs_v[rows]).max() < 1e-10
        assert np.abs(lhs_w[rows] - rhs_w[rows]).max() < 1e-10


def test_forward_pass_linear_cost(monkeypatch):
    import time

    from softid import kinematics

    def rigid_chain(N):
        links = [(revolute_joint([0, 0, 1]), rigid_handle()) for _ in range(N)]
        return ChainModel(links, gravity=[0, 0, -9.81])

    rng = np.random.default_rng(5)
    sizes = (16, 32, 64)
    chains = {N: rigid_chain(N) for N in sizes}
    states = {N: [sample_state(rng, N) for _ in range(40)] for N in sizes}
    for N in sizes:
        forward_pass(chains[N], *states[N][0][:3])
    best = {N: np.inf for N in sizes}
    # interleave the sweeps so machine-load drift hits all sizes alike
    for rep in range(40):
        for N in sizes:
            q, qd, qdd = states[N][rep]
            t0 = time.perf_counter()
            forward_pass(chains[N], q, qd, qdd)
            best[N] = min(best[N], time.perf_counter() - t0)
    for N in (16, 32):
        ratio = best[2 * N] / best[N]
        assert 1.6 <= ratio <= 2.6, f"forward_pass cost ratio {ratio:.2f} at N={N}"
    # the count of link visits holds where wall time does not (host load)
    calls = []
    link_jacobians = kinematics.link_jacobians
    monkeypatch.setattr(kinematics, "link_jacobians", lambda *a: calls.append(1) or link_jacobians(*a))
    visits = {}
    for N in sizes:
        calls.clear()
        forward_pass(chains[N], *states[N][0][:3])
        visits[N] = len(calls)
    assert visits == {N: N for N in sizes}
    assert all(visits[2 * N] == 2 * visits[N] for N in (16, 32))


def test_nonfinite_state_rejected():
    chain = presets.pcc_chain(1)
    with pytest.raises(ValueError):
        forward_pass(chain, np.array([np.nan, 0, 0]), None, None)


def test_base_accel_default_is_minus_gravity():
    chain = presets.pcc_chain(1)
    cache = forward_pass(chain, np.zeros(3), None, None)
    assert np.allclose(cache.base_accel, -chain.gravity)


# -- the rates' tangents: each against a central difference of its own function ----

def tangent_case(seed, free_tip=False):
    """A PCC handle (a free tip: no contact frame), three body states, the
    anchor images and node images with their q-Jacobians, and random
    tangents of all four, at the scale of the anchors' offsets (1e-2: the
    frame's normalization divides by them)."""
    rng = np.random.default_rng(seed)
    handle = pcc_handle()
    if free_tip:
        handle = BodyHandle(handle.model, free_tip=True)
    qb = rng.uniform(-0.8, 0.8, (3, handle.n_dof))
    x = handle.points
    f, jq = handle.model.position(x, qb), handle.model.jac_q(x, qb)
    k = handle.n_anchors
    tangents = 1e-2 * rng.standard_normal(f.shape), 1e-2 * rng.standard_normal(jq.shape)
    return handle, (f[:, :k], jq[:, :k], f[:, k:], jq[:, k:]), tuple(a[:, :k] for a in tangents) + tuple(
        a[:, k:] for a in tangents)


def assert_rates(got, ref, what):
    for g, r in zip(got, ref):
        assert g.shape == r.shape, what
        assert np.abs(g - r).max(initial=0.0) <= 1e-7 * max(np.abs(r).max(initial=0.0), 1e-12), what


@pytest.mark.parametrize("free_tip", [False, True])
def test_contact_frame_and_framed_jacobian_tangents_match_differences(free_tip):
    handle, (fa, ja, fn, jn), (dfa, dja, dfn, djn) = tangent_case(1, free_tip)
    frame = handle.contact_frame_data(fa, ja, dfa, dja)
    assert len(frame) == 8
    assert_rates(frame[4:], along(handle.contact_frame_data, (fa, ja), (dfa, dja)), "contact frame")
    _, jac, jac_dot = handle.framed_jacobian(fn, jn, frame, dfn, djn)

    def framed(f, jq, *frame):
        return [handle.framed_jacobian(f, jq, frame)[1]]

    assert_rates([jac_dot], along(framed, (fn, jn) + frame[:4], (dfn, djn) + frame[4:]), "framed Jacobian")


@pytest.mark.parametrize("joint", [revolute_joint([0.3, -1.0, 0.5]), prismatic_joint([1.0, 0.2, -0.4]),
                                   fixed_joint(), rotated_base_joint(rodrigues([1, 1, 0], 0.4), [0.1, 0, 0.2])],
                         ids=lambda j: j.kind)
def test_link_jacobian_tangents_match_differences(joint):
    handle, (fa, ja, _, _), (dfa, dja, _, _) = tangent_case(2)
    frame = handle.contact_frame_data(fa, ja, dfa, dja)
    rng = np.random.default_rng(3)
    qi = np.concatenate([rng.uniform(-2.0, 2.0, (3, joint.n_dof)), rng.uniform(-0.8, 0.8, (3, handle.n_dof))], 1)
    qdi = rng.uniform(-2.0, 2.0, qi.shape)
    joints = tuple(np.repeat(a[None], 3, axis=0) for a in joint.parts)
    got = link_jacobians(joints, frame, qi, qdi)
    assert all(np.array_equal(a, b) for a, b in zip(got[:4], link_jacobians(joints, frame[:4], qi)))

    def jacobians(q, *frame):
        return link_jacobians(joints, frame, q)[2:]

    assert_rates(got[4:], along(jacobians, (qi,) + frame[:4], (qdi,) + frame[4:]), joint.kind)
