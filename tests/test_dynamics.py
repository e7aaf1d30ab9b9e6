import re
from pathlib import Path

import numpy as np
import pytest

from softid import model_io, presets
from softid.bodies import RigidBody
from softid.dynamics import (
    backward_recursion,
    chain_dynamics,
    gravity_terms,
    inertial_terms,
    inverse_dynamics,
    iid,
    link_stages,
    mid,
    miid,
    stress_terms,
)
from softid.harness import forward_dynamics
from softid.kinematics import BodyHandle, ChainModel, forward_pass, prismatic_joint, revolute_joint
from softid.quadrature import ReferenceDomain

from conftest import check_redrawn, fixture_states, in_domain, reference_sweep, sample_state

MODELS = Path(__file__).resolve().parent.parent / "models"


def slider_chain(mass=2.0):
    length, radius = 0.2, 0.05
    rho = mass / (np.pi * radius**2 * length)
    dom = ReferenceDomain.cylinder(radius, length)
    hb = BodyHandle(RigidBody(dom, rho, quadrature_order=(3, 8, 4)),
                    x_j=[0, 0, length], x_a=[radius, 0, length], x_b=[0, radius, length])
    return ChainModel([(prismatic_joint([0, 0, 1]), hb)], gravity=[0, 0, -9.81])


# -- per-body terms ---------------------------------------------------------------

def test_inertial_terms_zero_motion(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    cache = forward_pass(pcc2, q, None, None, base_accel=np.zeros(3))
    for i, kin in enumerate(cache.bodies):
        F, T, pi = inertial_terms(kin.data, kin.w, kin.wdot, kin.a_com,
                                  pcc2.links[i].joint.n_dof)
        assert np.abs(F).max() == 0.0
        assert np.abs(T).max() == 0.0
        assert np.abs(pi).max() == 0.0


def test_inertial_torque_euler_equation(rng):
    # rigid body spinning up about a principal axis: T* = -I alpha
    length, radius = 0.2, 0.05
    dom = ReferenceDomain.cylinder(radius, length)
    hb = BodyHandle(RigidBody(dom, 1000.0, quadrature_order=(3, 8, 4)),
                    x_j=[0, 0, length], x_a=[radius, 0, length], x_b=[0, radius, length])
    chain = ChainModel([(revolute_joint([0, 0, 1]), hb)], gravity=[0, 0, 0])
    alpha = 3.7
    cache = forward_pass(chain, [0.4], [0.0], [alpha], base_accel=np.zeros(3))
    kin = cache[0]
    F, T, _ = inertial_terms(kin.data, kin.w, kin.wdot, kin.a_com, 1)
    i_axial = kin.data.inertia[2, 2]
    assert np.allclose(T, [0, 0, -i_axial * alpha], atol=1e-12)


def test_gravity_terms_direct_product():
    chain = slider_chain(mass=2.0)
    cache = forward_pass(chain, [0.0], None, None, base_accel=np.zeros(3))
    data = cache[0].data
    F, pi = gravity_terms(data, np.eye(3), np.array([0, 0, -9.81]), 1)
    assert np.allclose(F, [0, 0, -19.62], atol=1e-10)
    assert np.abs(pi).max() == 0.0  # rigid body: no body coordinates


def test_gravity_zero_vector(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    cache = forward_pass(pcc2, q, None, None, base_accel=np.zeros(3))
    data = cache[0].data
    F, pi = gravity_terms(data, np.eye(3), np.zeros(3))
    assert np.abs(F).max() == 0.0 and np.abs(pi).max() == 0.0


def test_gravity_base_accel_equivalence(pcc2, rng):
    for _ in range(3):
        q, qd, qdd = sample_state(rng, pcc2.n)
        explicit = chain_dynamics(pcc2, q, qd, qdd, stress=False).force
        trick = iid(pcc2, q, qd, qdd, base_accel=-pcc2.gravity)
        assert np.abs(explicit - trick).max() < 1e-10 * max(1.0, np.abs(explicit).max())


def test_stress_zero_at_reference(pcc2):
    lk = pcc2.links[0]
    data = forward_pass(pcc2, np.zeros(pcc2.n))[0].data
    (Fe, Te, pe), (Fd, Td, pd) = stress_terms(lk.body, data, np.zeros(3), np.zeros(3), 0)
    assert np.abs(Fe).max() < 1e-9
    assert np.abs(pe).max() < 1e-9
    assert np.abs(Fd).max() == 0.0  # damping vanishes at zero rate


def test_stress_damping_zero_at_zero_rate(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n, q_range=1.0)
    lk = pcc2.links[0]
    data = forward_pass(pcc2, q)[0].data
    _, (Fd, Td, pd) = stress_terms(lk.body, data, q[:3], np.zeros(3), 0)
    assert np.abs(Fd).max() == 0.0 and np.abs(pd).max() == 0.0


def test_stress_restoring_and_linear_in_C():
    from softid.bodies import CosseratRodBody, pcc_basis

    L0, R0 = 0.3, 0.01
    dom = ReferenceDomain.cylinder(R0, L0)
    made = []
    for C in (0.5e9, 1.0e9):
        body = CosseratRodBody(pcc_basis(L0), L0, dom, 1070.0, elastic_modulus=C,
                               viscosity=0.1, quadrature_order=(3, 8, 6))
        hb = BodyHandle(body, x_j=[0, 0, L0], x_a=[R0 / 2, 0, L0], x_b=[0, R0 / 2, L0])
        chain = ChainModel([(revolute_joint([1, 0, 0]), hb)], gravity=[0, 0, 0])
        made.append(chain)
    q = np.array([0.0, 0.25, 0.0, 0.0])  # bend only
    s1 = chain_dynamics(made[0], q, None, None).components["elastic"]
    s2 = chain_dynamics(made[1], q, None, None).components["elastic"]
    # restoring: generalized force has the sign of the curvature coordinate
    assert s1[1] > 0.0
    assert np.abs(s2 - 2.0 * s1).max() < 1e-10 * np.abs(s2).max()


def test_stress_analytic_vs_fd_hessian(pcc2, rng, monkeypatch):
    # the PCC analytic second derivatives must agree with the FD default
    # inside the stress pass
    from softid.bodies.base import BodyModel

    lk = pcc2.links[0]
    model = lk.body.model
    q, qd, _ = sample_state(rng, pcc2.n, q_range=1.0, qd_range=2.0)
    data = forward_pass(pcc2, q, qd)[0].data
    (Fe, Te, pe), (Fd, Td, pd) = stress_terms(lk.body, data, q[:3], qd[:3], 0)
    monkeypatch.setattr(model, "hess_x", lambda x, qq, sol=None: BodyModel.hess_x(model, x, qq))
    (Fe2, Te2, pe2), _ = stress_terms(lk.body, data, q[:3], qd[:3], 0)
    scale = max(np.abs(Fe).max(), 1.0)
    assert np.abs(Fe - Fe2).max() / scale < 1e-5
    assert np.abs(pe - pe2).max() / max(np.abs(pe).max(), 1.0) < 1e-5


# -- backward recursion --------------------------------------------------------------

def test_backward_recursion_zero_inputs(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    cache = forward_pass(pcc2, q, None, None, base_accel=np.zeros(3))
    wrenches = [(np.zeros(3),) * 4 for _ in pcc2.links]
    out = backward_recursion(pcc2, wrenches, cache)
    for m in out:
        assert np.abs(m).max() == 0.0


def test_backward_recursion_single_body_base_case(rng):
    chain = presets.pcc_chain(1)
    q, _, _ = sample_state(rng, chain.n)
    cache = forward_pass(chain, q, None, None, base_accel=np.zeros(3))
    kin = cache[0]
    F, Fs, T, Ts = (rng.normal(size=3) for _ in range(4))
    (m,) = backward_recursion(chain, [(F, Fs, T, Ts)], cache)
    expected = kin.Pv @ (F + Fs) + kin.Pw @ (T + Ts + np.cross(kin.data.p_com, F + Fs))
    assert np.abs(m - expected).max() < 1e-14


def test_backward_recursion_superposition(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    cache = forward_pass(pcc2, q, None, None, base_accel=np.zeros(3))
    w1 = [tuple(rng.normal(size=3) for _ in range(4)) for _ in pcc2.links]
    w2 = [tuple(rng.normal(size=3) for _ in range(4)) for _ in pcc2.links]
    a, b = 1.7, -0.4
    mixed = [tuple(a * x + b * y for x, y in zip(t1, t2)) for t1, t2 in zip(w1, w2)]
    m1 = backward_recursion(pcc2, w1, cache)
    m2 = backward_recursion(pcc2, w2, cache)
    mm = backward_recursion(pcc2, mixed, cache)
    for i in range(len(pcc2)):
        ref = a * m1[i] + b * m2[i]
        assert np.abs(mm[i] - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())


def test_backward_recursion_stacked_components(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    cache = forward_pass(pcc2, q, None, None, base_accel=np.zeros(3))
    stacks = [tuple(rng.normal(size=(3, 3)) for _ in range(4)) for _ in pcc2.links]
    out = backward_recursion(pcc2, stacks, cache)
    for c in range(3):
        single = [tuple(s[c] for s in st) for st in stacks]
        ref = backward_recursion(pcc2, single, cache)
        for i in range(len(pcc2)):
            assert np.allclose(out[i][c], ref[i], atol=1e-14)


# -- algorithms -------------------------------------------------------------------------

def test_iid_zero_motion_zero(pcc2, rng):
    for _ in range(5):
        q, _, _ = sample_state(rng, pcc2.n)
        assert np.abs(iid(pcc2, q, None, None)).max() < 1e-12


def test_point_mass_slider_mass_matrix():
    chain = slider_chain(mass=2.0)
    res = miid(chain, [0.3], None, None)
    assert np.allclose(res.mass, [[2.0]], atol=1e-12)


def test_iid_slider_newton():
    chain = slider_chain(mass=2.0)
    out = iid(chain, [0.1], [0.4], [3.0])
    assert np.allclose(out, [6.0], atol=1e-12)


def test_id_reduces_to_iid_without_fields(rng):
    chain = presets.pcc_chain(2, C=None, eta=None)
    chain.gravity = np.zeros(3)
    q, qd, qdd = sample_state(rng, chain.n)
    assert np.allclose(inverse_dynamics(chain, q, qd, qdd), iid(chain, q, qd, qdd), atol=1e-14)


def test_id_rest_equals_potential_forces(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n, q_range=1.0)
    res = chain_dynamics(pcc2, q, None, None)
    gs = res.components["gravity"] + res.components["elastic"] + res.components["damping"]
    assert np.allclose(res.force, gs, atol=1e-12)
    assert np.abs(res.components["inertial"]).max() < 1e-12
    assert np.abs(res.components["damping"]).max() == 0.0


def test_miid_columns_give_mass_matrix(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    res = miid(pcc2, q, None, None)
    cols = np.column_stack([iid(pcc2, q, None, e) for e in np.eye(pcc2.n)])
    assert np.abs(res.mass - cols).max() < 1e-10 * np.abs(cols).max()
    assert np.abs(res.mass - res.mass.T).max() < 1e-9 * np.abs(res.mass).max()


def test_miid_force_matches_iid(pcc2, rng):
    q, qd, qdd = sample_state(rng, pcc2.n)
    res = miid(pcc2, q, qd, qdd)
    assert np.array_equal(res.force, iid(pcc2, q, qd, qdd))


def test_mid_matches_id_and_miid_mass(pcc2, rng):
    q, qd, qdd = sample_state(rng, pcc2.n)
    res = mid(pcc2, q, qd, qdd)
    assert np.array_equal(res.force, inverse_dynamics(pcc2, q, qd, qdd))
    ref = miid(pcc2, q, qd, qdd).mass
    assert np.abs(res.mass - ref).max() < 1e-14 * max(1.0, np.abs(ref).max())


def test_one_body_solve_per_configuration(monkeypatch):
    # the three rods share one body model: it is solved once for all of
    # them, at q alone, also while they move (the rods' Jacobian rates come
    # from that solve, with no q +- h u); the stress pass reuses it
    from softid.bodies import CosseratRodBody

    chain = presets.pcc_chain(3, C=1e5, eta=0.1, order=(2, 8, 5))
    calls = {}
    for name in ("solve", "position", "jac_q", "jac_x", "hess_x", "jac_x_dq"):
        def counted(self, *args, _name=name, _original=getattr(CosseratRodBody, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(self, *args)

        monkeypatch.setattr(CosseratRodBody, name, counted)
    rng = np.random.default_rng(3)
    q, qd, qdd = (rng.uniform(-1, 1, chain.n) for _ in range(3))
    iid(chain, q, qd, qdd)
    assert calls == {"solve": 1, "position": 1, "jac_q": 1}
    calls.clear()
    mid(chain, q, qd, qdd)
    assert calls == {"solve": 1, "position": 1, "jac_q": 1,
                     "jac_x": 1, "hess_x": 1, "jac_x_dq": 1}


def test_mass_positive_definite_on_fixtures(rigid_2r, pcc2, pcs2, pac1, lvp1):
    # its own generator, so the states do not depend on which tests ran before;
    # this seed draws one LVP state outside the bending domain, which is redrawn
    rng = np.random.default_rng(1)
    redrawn = []
    for chain in (rigid_2r, pcc2, pcs2, pac1, lvp1):
        for q, _, _ in fixture_states(rng, chain, 3, redrawn):
            M = miid(chain, q, None, None).mass
            np.linalg.cholesky(0.5 * (M + M.T))  # raises if not SPD
    raised, note = check_redrawn(redrawn, miid)
    assert raised, note


def test_nonfinite_inputs_rejected(pcc2):
    with pytest.raises(ValueError):
        iid(pcc2, np.full(pcc2.n, np.nan), None, None)
    with pytest.raises(ValueError):
        iid(pcc2, np.zeros(3), None, None)  # wrong length
    # a state is (n,) or a stack (b, n) with b >= 1: no other shape is flattened
    # into one, and no empty stack reaches the staging
    chain = model_io.load_chain(MODELS / "pcc_2.json")
    for shape in ((1, 1, chain.n), (2, 1, chain.n), (0, chain.n)):
        for call in (lambda v: iid(chain, v, v, v), lambda v: forward_dynamics(chain, v, v)):
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                call(np.zeros(shape))


def mixed_widths_chain():
    # links of 3, 1 and 4 coordinates behind a fixed, a revolute and a prismatic joint
    doc = presets.pcc_description(2, C=1e5, eta=0.05, along_y=False, order=(2, 6, 5))
    doc["links"] = [doc["links"][0], presets.rigid_2r_description()["links"][0],
                    dict(doc["links"][1], joint={"kind": "prismatic", "axis": [0.2, -0.4, 1.0]})]
    return model_io.parse_chain(doc)


SWEEP_CHAINS = {p.stem: lambda p=p: model_io.load_chain(p) for p in sorted(MODELS.glob("*.json"))}
SWEEP_CHAINS.update(planar_pcc_32=lambda: presets.planar_pcc_chain(32, quadrature_order=(2, 8, 6)),
                    mixed_widths=mixed_widths_chain)


@pytest.mark.parametrize("name", sorted(SWEEP_CHAINS))
def test_sweep_matches_the_per_link_recursion(name):
    # one state moving and at rest, and a stack of 4 with every other row at rest
    chain = SWEEP_CHAINS[name]()
    rng = np.random.default_rng(17)
    q = []
    while len(q) < 4:
        row = rng.uniform(-0.5, 0.5, chain.n)
        if in_domain(chain, row):
            q.append(row)
    q, qd, qdd = np.array(q), rng.uniform(-2.0, 2.0, (4, chain.n)), rng.uniform(-5.0, 5.0, (4, chain.n))
    qd[1::2] = 0.0

    def close(x, ref):
        assert x.shape == ref.shape and np.abs(x - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1e-300)

    for state in ((q[0], qd[0], qdd[0]), (q[1], qd[1], qdd[1]), (q, qd, qdd)):
        stages = link_stages(chain, *state)
        res = chain_dynamics(chain, *state, mass=True, stages=stages)
        kins, force, M, components = reference_sweep(chain, *chain.check_state(*state), stages)
        for i, kin in enumerate(kins):
            for x, ref in zip((res.cache[i].v, res.cache[i].w, res.cache[i].a, res.cache[i].wdot), kin):
                close(x, ref)
        close(res.force, force)
        close(res.mass, M)
        for key, value in components.items():
            close(res.components[key], value)
