import numpy as np

from softid import presets
from softid.dynamics import chain_dynamics, iid, miid
from softid.oracle import (
    full_chain_jacobian,
    oracle_kane,
    oracle_mass,
    oracle_potential,
    oracle_stress,
)

from conftest import sample_state


def test_full_chain_jacobian_zero_successor_columns(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    jacs = full_chain_jacobian(pcc2, q)
    # body 0 positions cannot depend on body 1 coordinates
    assert np.abs(jacs[0][:, :, pcc2.slice(1)]).max() == 0.0


def test_oracle_kane_zero_motion(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    out = oracle_kane(pcc2, q, None, None)
    assert np.abs(out).max() < 1e-8


def test_oracle_kane_unit_accel_gives_mass_column(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    M = oracle_mass(pcc2, q)
    for j in (0, 3):
        e = np.zeros(pcc2.n)
        e[j] = 1.0
        col = oracle_kane(pcc2, q, None, e)
        assert np.abs(col - M[:, j]).max() < 1e-6 * max(1.0, np.abs(M).max())


def test_oracle_mass_symmetric_psd(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    M = oracle_mass(pcc2, q)
    assert np.abs(M - M.T).max() < 1e-14
    assert np.linalg.eigvalsh(M).min() > -1e-10


def test_oracle_mass_slider():
    from softid.kinematics import BodyHandle, ChainModel, prismatic_joint
    from softid.bodies import RigidBody
    from softid.quadrature import ReferenceDomain

    length, radius, mass = 0.2, 0.05, 1.5
    rho = mass / (np.pi * radius**2 * length)
    dom = ReferenceDomain.cylinder(radius, length)
    hb = BodyHandle(RigidBody(dom, rho, quadrature_order=(3, 8, 4)),
                    x_j=[0, 0, length], x_a=[radius, 0, length], x_b=[0, radius, length])
    chain = ChainModel([(prismatic_joint([0, 0, 1]), hb)], gravity=[0, 0, 0])
    assert np.allclose(oracle_mass(chain, np.zeros(1)), [[mass]], rtol=1e-6)


def test_oracle_matches_miid_mass(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    M = miid(pcc2, q, None, None).mass
    Mo = oracle_mass(pcc2, q)
    assert np.abs(M - Mo).max() / np.abs(Mo).max() < 1e-8


def test_oracle_equivalence_mixed_chain(rng):
    # mixed rigid + soft chain exercises joint and body coordinates together
    from softid.model_io import parse_chain

    doc = {
        "schema_version": 1,
        "gravity": [0, 0, -9.81],
        "links": [
            {"joint": {"kind": "revolute", "axis": [0, 1, 0]},
             "body": {"kind": "rigid",
                      "geometry": {"shape": "cylinder", "radius": 0.02, "length": 0.4},
                      "rho": 800.0, "quadrature_order": [3, 8, 4]}},
            {"joint": {"kind": "revolute", "axis": [1, 0, 0]},
             "body": {"kind": "pcc",
                      "geometry": {"shape": "cylinder", "radius": 0.01, "length": 0.3},
                      "rho": 1070.0, "quadrature_order": [2, 8, 6]}},
        ],
    }
    chain = parse_chain(doc)
    worst = 0.0
    for _ in range(10):
        q, qd, qdd = sample_state(rng, chain.n)
        a = iid(chain, q, qd, qdd)
        b = oracle_kane(chain, q, qd, qdd)
        worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(b))
    assert worst < 1e-6


def test_oracle_equivalence_near_zero_curvature(rng):
    # small curvatures, where the closed forms of the rotation kernels cancel
    # (evaluated directly they put IID 1e-4 off the oracle here)
    chain = presets.planar_pcc_chain(4, quadrature_order=(2, 8, 6))
    for value in (1e-3, -3e-4, 2e-2):
        q, qd, qdd = sample_state(rng, chain.n)
        q[1] = value
        a = iid(chain, q, qd, qdd)
        b = oracle_kane(chain, q, qd, qdd)
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-6


def test_oracle_kane_equals_coriolis_at_zero_accel(pcc2, rng):
    q, qd, _ = sample_state(rng, pcc2.n)
    c = oracle_kane(pcc2, q, qd, None)
    c_rec = iid(pcc2, q, qd, None)
    assert np.linalg.norm(c - c_rec) / max(np.linalg.norm(c_rec), 1.0) < 1e-6
    # c(q, 0) = 0
    assert np.abs(oracle_kane(pcc2, q, None, None)).max() < 1e-8


def test_oracle_potential_rigid_rod(rigid_2r):
    # horizontal rod: U = m g z_com summed over links
    q = np.array([np.pi / 2, 0.0])  # both links horizontal (rotated from vertical)
    _, U = oracle_potential(rigid_2r, q)
    assert abs(U) < 1e-10  # CoM heights are zero in this pose


def test_oracle_potential_symmetry(pcc2):
    # hanging straight: curvature gradient vanishes by symmetry
    chain = presets.pcc_chain(1, along_y=False)
    g, _ = oracle_potential(chain, np.zeros(3))
    assert abs(g[0]) < 1e-8 and abs(g[1]) < 1e-8


def test_oracle_potential_matches_gravity_terms(pcc2, rng):
    q, _, _ = sample_state(rng, pcc2.n)
    g_orc, _ = oracle_potential(pcc2, q)
    g_rec = chain_dynamics(pcc2, q, None, None, stress=False).force
    assert np.abs(g_orc - g_rec).max() / max(1.0, np.abs(g_rec).max()) < 1e-6


def test_oracle_stress_matches_recursive(pcc2, rng):
    q, qd, _ = sample_state(rng, pcc2.n, q_range=1.2, qd_range=3.0)
    s_rec = (chain_dynamics(pcc2, q, qd, None).components["elastic"]
             + chain_dynamics(pcc2, q, qd, None).components["damping"])
    s_orc = oracle_stress(pcc2, q, qd)
    assert np.abs(s_rec - s_orc).max() / max(1.0, np.abs(s_orc).max()) < 1e-6
