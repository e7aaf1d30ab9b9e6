import math

import numpy as np
import pytest

from softid import presets
from softid.bodies import (
    BendPrimitive,
    CosseratRodBody,
    LvpBody,
    RigidBody,
    ShearPrimitive,
    SourcePrimitive,
    StretchPrimitive,
    TwistPrimitive,
    VariableRadiusPccBody,
    pac_basis,
    pcc_basis,
    pcs_basis,
    pgc_basis,
)
from softid.bodies.strain import _so3_kernels
from softid.errors import CentroidConsistencyError
from softid.kinematics import BodyHandle, ChainModel, fixed_joint, forward_pass
from softid.quadrature import ReferenceDomain

L0 = 0.3
R0 = 0.01
RHO = 1070.0


def make_pcc(planar=False, order=(3, 8, 6)):
    dom = ReferenceDomain.cylinder(R0, L0)
    return CosseratRodBody(pcc_basis(L0, planar=planar), L0, dom, RHO, quadrature_order=order)


def one_link_integrals(hb, q, qd=None, qdd=None):
    """Inertial integrals of one body from the forward pass of a one-link chain."""
    return forward_pass(ChainModel([(fixed_joint(), hb)]), q, qd, qdd)[0].data


def make_body(kind, order=(3, 8, 6)):
    dom = ReferenceDomain.cylinder(R0, L0)
    basis = {"pcc": pcc_basis(L0), "pac": pac_basis(L0), "pcs": pcs_basis(L0),
             "pgc": pgc_basis(L0)}[kind]
    return CosseratRodBody(basis, L0, dom, RHO, quadrature_order=order)


def fd_jac_q(model, x, q, h=1e-7):
    out = np.empty((x.shape[0], 3, model.n_dof))
    for k in range(model.n_dof):
        dq = np.zeros(model.n_dof)
        dq[k] = h
        out[:, :, k] = (model.position(x, [q + dq])[0] - model.position(x, [q - dq])[0]) / (2 * h)
    return out


def fd_jac_x(model, x, q, h=1e-6):
    out = np.empty((x.shape[0], 3, 3))
    for c in range(3):
        dx = np.zeros(3)
        dx[c] = h
        out[:, :, c] = (model.position(x + dx, [q])[0] - model.position(x - dx, [q])[0]) / (2 * h)
    return out


# -- position maps ------------------------------------------------------------

def test_rigid_identity(rng):
    dom = ReferenceDomain.box([0.1, 0.1, 0.1])
    body = RigidBody(dom, 1000.0)
    x = rng.uniform(-0.1, 0.1, (10, 3))
    assert np.array_equal(body.position(x, np.zeros((1, 0)))[0], x)
    assert np.allclose(body.jac_x(x, np.zeros((1, 0)))[0], np.eye(3))
    assert body.jac_q(x, np.zeros((1, 0))).shape == (1, 10, 3, 0)


def test_pcc_zero_strain_is_identity(rng):
    body = make_pcc()
    x = np.column_stack([
        rng.uniform(-R0, R0, 20), rng.uniform(-R0, R0, 20), rng.uniform(0, L0, 20)
    ])
    assert np.abs(body.position(x, np.zeros((1, 3)))[0] - x).max() < 1e-14


def test_pcc_quarter_circle_tip():
    # kappa * L0 = pi/2, no elongation: tip on the closed-form arc
    body = make_pcc()
    q = np.array([np.pi / 2, 0.0, 0.0])
    tip = body.position(np.array([[0.0, 0.0, L0]]), [q])[0, 0]
    radius = L0 / (np.pi / 2)
    assert abs(abs(tip[1]) - radius * (1 - np.cos(np.pi / 2))) < 1e-12
    assert abs(tip[2] - radius * np.sin(np.pi / 2)) < 1e-12


def test_pcc_half_circle_tip():
    # kappa * L0 = pi: tip at 2 L0 / pi off-axis, zero height
    body = make_pcc()
    q = np.array([np.pi, 0.0, 0.0])
    tip = body.position(np.array([[0.0, 0.0, L0]]), [q])[0, 0]
    assert abs(abs(tip[1]) - 2 * L0 / np.pi) < 1e-12
    assert abs(tip[2]) < 1e-12
    assert abs(tip[0]) < 1e-12


def _kernel_reference(t):
    """alpha, beta, gamma, beta'/t, gamma'/t: Taylor series summed exactly
    rounded below t = 1, the closed forms above (no cancellation there);
    (beta'/t)'/t and (gamma'/t)'/t, whose closed forms cancel up to t = 2:
    the series at every t up to 6, where no term exceeds the sum much."""
    f = math.factorial

    def series(coeff):
        return math.fsum(coeff(j) * t ** (2 * j) for j in range(40))

    second = [series(lambda j: (-1) ** j * (2 * j + 2) * (2 * j + 4) / f(2 * j + 6)),
              series(lambda j: (-1) ** j * (2 * j + 2) * (2 * j + 4) / f(2 * j + 7))]
    if t < 1.0:
        return [
            series(lambda j: (-1) ** j / f(2 * j + 1)),
            series(lambda j: (-1) ** j / f(2 * j + 2)),
            series(lambda j: (-1) ** j / f(2 * j + 3)),
            series(lambda j: (-1) ** (j + 1) * (2 * j + 2) / f(2 * j + 4)),
            series(lambda j: (-1) ** (j + 1) * (2 * j + 2) / f(2 * j + 5)),
        ] + second
    s, c = math.sin(t), math.cos(t)
    return [s / t, (1 - c) / t**2, (t - s) / t**3,
            (t * s - 2 * (1 - c)) / t**4, (t * (1 - c) - 3 * (t - s)) / t**5] + second


def test_rotation_kernels_accurate_for_all_angles():
    # the closed forms cancel catastrophically at small t (beta'/t evaluated
    # directly has no correct digit at t = 1e-4); every kernel must stay near
    # full precision, including just above any series switch
    ts = np.concatenate([[0.0, 1e-12, 1e-8, 1.01e-4, 1e-3, 1e-2],
                         np.logspace(-1, np.log10(6.0), 60), [1.999999, 2.0, 2.000001]])
    got = _so3_kernels(ts)
    assert got.shape == (7, ts.size)
    for i, t in enumerate(ts):
        ref = _kernel_reference(float(t))
        for k in range(7):
            assert abs(got[k, i] - ref[k]) <= 1e-13 * abs(ref[k]), (k, t)
    assert np.array_equal(_so3_kernels(-ts), got)  # even in t


@pytest.mark.parametrize("kind", ["pac", "pgc"])
def test_backbone_frames_orthonormal(kind, rng):
    body = make_body(kind)
    s = np.linspace(0.0, L0, 17)
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, body.n_dof)
        R = body.solve(np.column_stack([0 * s, 0 * s, s]), [q])[0][0]
        gram = np.einsum("kab,kac->kbc", R, R)
        assert np.abs(gram - np.eye(3)).max() < 1e-13
        assert np.abs(np.linalg.det(R) - 1.0).max() < 1e-13


@pytest.mark.parametrize("name", ["pac_1", "pgc_2"])
def test_backbone_frame_independent_of_other_points(name):
    # the end-face frames solved alone equal those solved with the quadrature nodes
    chain = {"pac_1": presets.pac_chain, "pgc_2": presets.pgc_chain}[name]()
    rng = np.random.default_rng(8)
    q = rng.uniform(-1.0, 1.0, chain.n)
    for i, lk in enumerate(chain.links):
        handle, qb = lk.body, chain.split(i, q)[1]
        anchors = handle.points[:handle.n_anchors]
        alone = handle.model.solve(anchors, [qb])
        together = handle.model.solve(handle.points, [qb])
        for a, b in zip(alone, together):
            assert np.abs(a - b[:, :handle.n_anchors]).max() <= 1e-15 * max(1.0, np.abs(a).max())


@pytest.mark.parametrize("kind", ["pcc", "pac", "pcs", "pgc"])
def test_strain_jacobians_match_fd(kind, rng):
    body = make_body(kind)
    x = np.column_stack([
        rng.uniform(-R0 / 2, R0 / 2, 8), rng.uniform(-R0 / 2, R0 / 2, 8),
        rng.uniform(0, L0, 8)
    ])
    q = rng.uniform(-1.0, 1.0, body.n_dof)
    jq = body.jac_q(x, [q])[0]
    ref = fd_jac_q(body, x, q)
    assert np.abs(jq - ref).max() / max(np.abs(ref).max(), 1.0) < 1e-6
    jx = body.jac_x(x, [q])[0]
    refx = fd_jac_x(body, x, q)
    assert np.abs(jx - refx).max() / max(np.abs(refx).max(), 1.0) < 1e-7


@pytest.mark.parametrize("kind", ["pcc", "pac", "pgc"])
def test_strain_hessian_matches_fd(kind, rng):
    body = make_body(kind)
    x = np.column_stack([
        rng.uniform(-R0 / 2, R0 / 2, 5), rng.uniform(-R0 / 2, R0 / 2, 5),
        rng.uniform(0.02, L0 - 0.02, 5)
    ])
    q = rng.uniform(-1.0, 1.0, body.n_dof)
    H = body.hess_x(x, [q])[0]
    h = 1e-6
    for c in range(3):
        dx = np.zeros(3)
        dx[c] = h
        ref = (body.jac_x(x + dx, [q])[0] - body.jac_x(x - dx, [q])[0]) / (2 * h)
        assert np.abs(H[:, :, :, c] - ref).max() < 1e-5


def test_pgc_gaussian_peak_at_midlength():
    basis = pgc_basis(L0)
    phi_mid = basis.matrix(np.array([L0 / 2.0]))[0]
    assert abs(phi_mid[1, 1] * L0 - 1.0) < 1e-14  # modulated column weight e^0 = 1
    phi_end = basis.matrix(np.array([0.0]))[0]
    assert phi_end[1, 1] * L0 < 1.0


def test_pcs_identity_basis():
    basis = pcs_basis(L0)
    phi = basis.matrix(np.zeros(1))[0]
    assert np.allclose(phi, np.eye(6) / L0)


# -- inertial integrals --------------------------------------------------------

def test_rigid_cylinder_mass_and_inertia():
    dom = ReferenceDomain.cylinder(R0, L0)
    body = RigidBody(dom, RHO, quadrature_order=(4, 8, 6))
    hb = BodyHandle(body, x_j=[0, 0, L0], x_a=[R0 / 2, 0, L0], x_b=[0, R0 / 2, L0])
    data = one_link_integrals(hb, np.zeros(0))
    m_exact = RHO * np.pi * R0**2 * L0
    assert abs(data.mass - m_exact) < 1e-3 * m_exact
    assert abs(data.mass - 0.10085) < 5e-4  # rho pi R^2 L at the tabulated values
    i_trans = m_exact * (L0**2 / 12 + R0**2 / 4)
    i_axial = m_exact * R0**2 / 2
    exact = np.diag([i_trans, i_trans, i_axial])
    assert np.abs(data.inertia - exact).max() < 1e-3 * i_trans


def test_frozen_configuration_rates_vanish(rng):
    body = make_pcc()
    hb = BodyHandle(body, x_j=[0, 0, L0], x_a=[R0 / 2, 0, L0], x_b=[0, R0 / 2, L0])
    q = rng.uniform(-1, 1, 3)
    data = one_link_integrals(hb, q, np.zeros(3), np.zeros(3))
    assert np.array_equal(data.inertia_rate, np.zeros((3, 3)))
    assert np.array_equal(data.mom_rd, np.zeros(3))


def test_inertia_rate_matches_fd(rng):
    body = make_pcc()
    hb = BodyHandle(body, x_j=[0, 0, L0], x_a=[R0 / 2, 0, L0], x_b=[0, R0 / 2, L0])
    q = rng.uniform(-1, 1, 3)
    qd = rng.uniform(-1, 1, 3)
    data = one_link_integrals(hb, q, qd, np.zeros(3))
    dt = 1e-6
    ip = one_link_integrals(hb, q + dt * qd)
    im = one_link_integrals(hb, q - dt * qd)
    ref = (ip.inertia - im.inertia) / (2 * dt)
    assert np.abs(data.inertia_rate - ref).max() / np.abs(ref).max() < 1e-5


def test_centroid_property(rng):
    for make in (lambda: make_body("pcc"), lambda: make_body("pcs"), lambda: make_body("pgc")):
        body = make()
        hb = BodyHandle(body, x_j=[0, 0, L0], x_a=[R0 / 2, 0, L0], x_b=[0, R0 / 2, L0])
        q = rng.uniform(-1, 1, body.n_dof)
        qd = rng.uniform(-5, 5, body.n_dof)
        data = one_link_integrals(hb, q, qd)
        lscale = data.mass * body.domain.length_scale
        assert np.linalg.norm(data.weights_mass @ data.r) < 1e-6 * lscale
        assert np.linalg.norm(data.weights_mass @ data.rdot) < 1e-6 * lscale * max(1, np.linalg.norm(qd))


def test_mass_constant_in_configuration(rng):
    body = make_body("pcs")
    hb = BodyHandle(body, x_j=[0, 0, L0], x_a=[R0 / 2, 0, L0], x_b=[0, R0 / 2, L0])
    masses = [one_link_integrals(hb, rng.uniform(-1, 1, 6)).mass for _ in range(4)]
    assert np.ptp(masses) < 1e-12 * masses[0]


def test_centroid_failure_on_nan():
    class BrokenBody(RigidBody):
        def position(self, x, q, sol=None):
            out = super().position(x, q)
            out[:, 0, 0] = np.nan
            return out

    dom = ReferenceDomain.cylinder(R0, L0)
    body = BrokenBody(dom, RHO)
    with pytest.raises(CentroidConsistencyError):
        one_link_integrals(BodyHandle(body, free_tip=True), np.zeros(0))


# -- variable-radius PCC --------------------------------------------------------

def test_bump_support():
    dom = ReferenceDomain.cylinder(R0, L0)
    body = VariableRadiusPccBody(L0, R0, dom, RHO)
    s = np.array([0.0, L0, L0 / 2, -0.01, L0 + 0.01])
    phi = np.array([np.pi / 2] * 5)
    b = body.bump(s, phi)
    assert b[0] == 0.0 and b[1] == 0.0 and b[3] == 0.0 and b[4] == 0.0
    assert b[2] > 0.0
    # phi boundaries
    b2 = body.bump(np.full(3, L0 / 2), np.array([0.0, np.pi, np.pi / 2]))
    assert b2[0] == 0.0 and b2[1] == 0.0 and b2[2] > 0.0


def test_variable_radius_jac_matches_fd(rng):
    dom = ReferenceDomain.cylinder(R0, L0)
    body = VariableRadiusPccBody(L0, R0, dom, RHO)
    x = np.column_stack([
        rng.uniform(0.2 * R0, 0.8 * R0, 6), rng.uniform(0.2 * R0, 0.8 * R0, 6),
        rng.uniform(0.05, L0 - 0.05, 6)
    ])
    # radial weights are ~exp(-4/L0): scale coordinates up so they matter
    q = np.array([0.4, 0.02, 2e7, -1e7])
    ref = fd_jac_q(body, x, q, h=1e-2)
    jq = body.jac_q(x, [q])[0]
    assert np.abs(jq - ref).max() / np.abs(ref).max() < 1e-5


def test_variable_radius_end_faces_rigid():
    dom = ReferenceDomain.cylinder(R0, L0)
    body = VariableRadiusPccBody(L0, R0, dom, RHO)
    q = np.array([0.0, 0.0, 3e7, 1e7])
    face = np.array([[R0, 0, L0], [0, R0, L0], [R0 / 2, R0 / 2, 0.0]])
    assert np.abs(body.position(face, [q])[0] - face).max() < 1e-12


# -- LVP primitives --------------------------------------------------------------

LLVP = 0.1
RLVP = 0.02


def lvp_points(rng, m=12, hollow=False):
    r = rng.uniform(0.3 if hollow else 0.05, 0.9, m) * RLVP
    phi = rng.uniform(0, 2 * np.pi, m)
    z = rng.uniform(0.02, 0.98, m) * LLVP
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@pytest.mark.parametrize("prim,qmag", [
    (StretchPrimitive(LLVP, [0]), 2.0),
    (BendPrimitive(LLVP, [0, 1], plane=1), 1.0),
    (BendPrimitive(LLVP, [0, 1], plane=2), 1.0),
    (TwistPrimitive(LLVP, [0]), 2.0),
    (ShearPrimitive(LLVP, [0], axis=1), 0.05),
    (SourcePrimitive(LLVP, [0]), 1e-5),
])
def test_primitive_unit_determinant_and_jacobians(prim, qmag, rng):
    x = lvp_points(rng, hollow=isinstance(prim, SourcePrimitive))
    nq = max(prim.indices) + 1
    q = rng.uniform(-qmag, qmag, nq)
    if isinstance(prim, SourcePrimitive):
        q = np.abs(q)
    J = prim.jac_x(x, q)
    det = np.linalg.det(J)
    assert np.abs(det - 1.0).max() < 1e-8

    # analytic jac_x vs FD of apply
    h = 1e-7
    for c in range(3):
        dx = np.zeros(3)
        dx[c] = h
        ref = (prim.apply(x + dx, q) - prim.apply(x - dx, q)) / (2 * h)
        assert np.abs(J[:, :, c] - ref).max() < 1e-6

    # analytic jac_coeffs vs FD (step scaled to the coefficient magnitude)
    own = prim.jac_coeffs(x, q)
    hq = 1e-6 * qmag
    for j in range(len(prim.indices)):
        dq = np.zeros(nq)
        dq[prim.indices[j]] = hq
        ref = (prim.apply(x, q + dq) - prim.apply(x, q - dq)) / (2 * hq)
        assert np.abs(own[:, :, j] - ref).max() < 1e-6 * max(1.0, np.abs(ref).max())


def test_lvp_composition_unit_determinant(rng):
    dom = ReferenceDomain.cylinder(RLVP, LLVP)
    body = LvpBody(
        [StretchPrimitive(LLVP, [0]), BendPrimitive(LLVP, [1, 2], plane=1),
         TwistPrimitive(LLVP, [3])],
        4, dom, 960.0,
    )
    x = lvp_points(rng)
    for _ in range(5):
        q = rng.uniform(-1, 1, 4)
        det = np.linalg.det(body.jac_x(x, [q])[0])
        assert np.abs(det - 1.0).max() < 1e-6


def test_lvp_composition_jac_q_matches_fd(rng):
    dom = ReferenceDomain.cylinder(RLVP, LLVP)
    body = LvpBody(
        [StretchPrimitive(LLVP, [0]), BendPrimitive(LLVP, [1, 2], plane=1)],
        3, dom, 960.0,
    )
    x = lvp_points(rng)
    q = rng.uniform(-0.8, 0.8, 3)
    ref = fd_jac_q(body, x, q)
    assert np.abs(body.jac_q(x, [q])[0] - ref).max() < 1e-6


def test_lvp_zero_configuration_identity(rng):
    dom = ReferenceDomain.cylinder(RLVP, LLVP)
    body = LvpBody(
        [StretchPrimitive(LLVP, [0]), BendPrimitive(LLVP, [1, 2], plane=1)],
        3, dom, 960.0,
    )
    x = lvp_points(rng)
    assert np.abs(body.position(x, np.zeros((1, 3)))[0] - x).max() < 1e-12


def test_lvp_stretch_volume_preserved_in_mass(rng):
    # mass from the reference domain must not depend on q
    dom = ReferenceDomain.cylinder(RLVP, LLVP)
    body = LvpBody([StretchPrimitive(LLVP, [0])], 1, dom, 960.0)
    hb = BodyHandle(body, free_tip=True)
    m0 = one_link_integrals(hb, np.zeros(1)).mass
    m1 = one_link_integrals(hb, np.array([1.5])).mass
    assert abs(m0 - m1) < 1e-12 * m0
