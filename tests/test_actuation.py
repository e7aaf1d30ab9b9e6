import numpy as np
import pytest

from softid import model_io, presets
from softid.actuation import ChamberActuation, TendonActuation
from softid.bodies import integrals
from softid.dynamics import link_stages
from softid.harness import solve_statics
from softid.oracle import _conf_gradient
from softid.quadrature import ReferenceDomain

from conftest import sample_state
from test_harness import fd_state, statics_case, three_tendons


def two_tendon_map():
    # antagonistic pair along +x1 / -x1 through the tips of both bodies
    off = 0.008
    return TendonActuation([
        [(-1, [off, 0, 0]), (0, [off, 0, 0.3]), (1, [off, 0, 0.3])],
        [(-1, [-off, 0, 0]), (0, [-off, 0, 0.3]), (1, [-off, 0, 0.3])],
    ])


def rod_tendons(chain, base_z=0.0, offset=0.004, fractions=(0.35, 1.0)):
    """Three tendons 120 degrees apart from the base through points along every rod."""
    routes = []
    for angle in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
        a, b = offset * np.cos(angle), offset * np.sin(angle)
        route = [(-1, [a, b, base_z])]
        for i, lk in enumerate(chain.links):
            route += [(i, [a, b, f * lk.body.model.length]) for f in fractions]
        routes.append(route)
    return TendonActuation(routes)


def prismatic_chain():
    # a revolute joint ahead of the first rod, a prismatic joint ahead of the second
    doc = presets.pcc_description(2, C=1e5, eta=None, along_y=False, order=(2, 6, 5))
    doc["links"][0]["joint"] = {"kind": "revolute", "axis": [0.3, 1.0, 0.2]}
    doc["links"][1]["joint"] = {"kind": "prismatic", "axis": [0.2, -0.4, 1.0]}
    return model_io.parse_chain(doc)


def rigid_2r_tendons():
    # via points on the base and on both links, on either side of the joint axes
    return TendonActuation([
        [(-1, [0, 0.02, -0.1]), (0, [0, 0.02, 0.5]), (0, [0, 0.02, 1.0]),
         (1, [0, 0.02, 0.5]), (1, [0, 0.02, 1.0])],
        [(-1, [0, -0.02, -0.1]), (0, [0, -0.02, 1.0]), (1, [0.01, -0.02, 0.7])],
    ])


def assert_matches_stencil(act, chain, q, tol=1e-8):
    """Analytic A(q) against the 5-point stencil of the lengths (or volumes)."""
    A = act.matrix(chain, q)
    ref = _conf_gradient(lambda qv: act.lengths(chain, qv), q).T
    assert A.shape == (chain.n, act.n_inputs)
    assert np.abs(A - ref).max() <= tol * np.abs(ref).max()


def tendon_case(name):
    """(chain, tendon map) for the geometries the analytic A(q) is checked on."""
    if name == "pcc_2":
        return presets.pcc_chain(2, order=(2, 6, 5)), two_tendon_map()
    if name == "rigid_2r":
        return presets.rigid_2r_chain(), rigid_2r_tendons()
    if name == "prismatic":
        chain = prismatic_chain()
        return chain, rod_tendons(chain, base_z=-0.05)
    if name == "pgc_2":
        chain = presets.pgc_chain(2, order=(2, 6, 5))
        return chain, rod_tendons(chain, offset=0.002, fractions=(0.3, 0.65, 1.0))
    chain = {"tendon_statics": lambda: presets.pcc_chain(2, C=0.555e6, order=(2, 6, 5),
                                                        elongation=False),
             "pac_1": lambda: presets.pac_chain(1, order=(2, 6, 5))}[name]()
    return chain, rod_tendons(chain)


@pytest.mark.parametrize("name", ["tendon_statics", "pcc_2", "rigid_2r", "prismatic",
                                  "pac_1", "pgc_2"])
def test_tendon_matrix_matches_length_stencil(name):
    chain, act = tendon_case(name)
    rng = np.random.default_rng(5)
    for _ in range(3):
        assert_matches_stencil(act, chain, rng.uniform(-1.0, 1.0, chain.n))


@pytest.mark.parametrize("fixture", ["pcc2", "pcs2"])
def test_chamber_matrix_matches_volume_stencil(fixture, request):
    chain = request.getfixturevalue(fixture)
    cavity = ReferenceDomain.cylinder(0.005, 0.3)
    act = ChamberActuation([(0, cavity), (1, cavity)], quadrature_order=(3, 6, 4))
    rng = np.random.default_rng(6)
    for _ in range(3):
        assert_matches_stencil(act, chain, rng.uniform(-0.5, 0.5, chain.n))


def test_one_body_solve_per_body_per_matrix(monkeypatch, pcc2):
    calls = []
    original = type(pcc2.links[0].body.model).solve

    def counted(self, x, q, qd=None):
        calls.append(self)
        return original(self, x, q, qd)

    monkeypatch.setattr(type(pcc2.links[0].body.model), "solve", counted)
    q = np.full(pcc2.n, 0.2)
    # the two rods share one body model: one solve of their stage group
    two_tendon_map().matrix(pcc2, q)
    assert pcc2.groups == ((0, 1),)
    assert calls == [pcc2.links[0].body.model]
    calls.clear()
    cavity = ReferenceDomain.cylinder(0.005, 0.3)
    ChamberActuation([(1, cavity)], quadrature_order=(3, 6, 4)).matrix(pcc2, q)
    assert calls == [pcc2.links[1].body.model]


def test_tendon_lengths_straight(pcc2):
    act = two_tendon_map()
    lengths = act.lengths(pcc2, np.zeros(6))
    # straight configuration: each tendon spans two straight 0.3 m segments
    assert np.allclose(lengths, 0.6, atol=1e-12)


def test_virtual_work_consistency(pcc2, rng):
    act = two_tendon_map()
    q, _, _ = sample_state(rng, 6, q_range=1.0)
    u = rng.uniform(0, 5, act.n_inputs)
    A = act.matrix(pcc2, q)
    nu = A @ u
    # delta q^T nu must equal delta l^T u for random virtual displacements
    for _ in range(5):
        dq = 1e-6 * rng.normal(size=6)
        dl = act.lengths(pcc2, q + dq) - act.lengths(pcc2, q - dq)
        lhs = 2.0 * dq @ nu
        rhs = dl @ u
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_tendon_statics_pulls_toward_tendon():
    chain = presets.pcc_chain(2, C=1e6, eta=None, along_y=False)
    chain.gravity = np.zeros(3)
    act = two_tendon_map()
    u = np.array([5.0, 0.0])  # tension on the +x1 side only
    st = solve_statics(chain, actuation=act, u=u, q_guess=np.zeros(6),
                       tol=1e-8, max_iter=60)
    assert st.converged
    # pulling the +x1 tendon bends the arm; curvature appears in both bodies
    assert abs(st.q[1]) > 1e-4 and abs(st.q[4]) > 1e-4


def test_tendon_statics_curvature_only_rods():
    # without elongation coordinates no rod can be pulled to zero length
    chain = presets.pcc_chain(2, C=1e6, eta=None, along_y=False, elongation=False)
    chain.gravity = np.zeros(3)
    act = two_tendon_map()
    u = np.array([5.0, 0.0])
    st = solve_statics(chain, actuation=act, u=u, q_guess=np.zeros(4),
                       tol=1e-8, max_iter=60)
    assert st.converged
    assert abs(st.q[1]) > 1e-4 and abs(st.q[3]) > 1e-4


def test_zero_length_segment_adds_nothing(pcc2):
    # the base via point sits on body 0's root, so the first segment has
    # zero length at every configuration
    off = 0.008
    act = TendonActuation([[(-1, [off, 0, 0]), (0, [off, 0, 0]), (0, [off, 0, 0.3]),
                            (1, [off, 0, 0.3])]])
    rng = np.random.default_rng(7)
    for _ in range(3):
        q = rng.uniform(-1.0, 1.0, pcc2.n)
        assert np.all(np.isfinite(act.matrix(pcc2, q)))
        assert_matches_stencil(act, pcc2, q)


def test_chamber_volume_reference(lvp1):
    cavity = ReferenceDomain.cylinder(0.01, 0.1)
    act = ChamberActuation([(0, cavity)], quadrature_order=(3, 6, 4))
    v0 = act.lengths(lvp1, np.zeros(3))
    assert abs(v0[0] - cavity.analytic_volume()) < 1e-3 * v0[0]
    # LVP maps preserve volume exactly: chamber volume stays constant,
    # so the projected force is zero for volume-preserving kinematics
    A = act.matrix(lvp1, np.array([0.5, 0.3, -0.2]))
    assert np.abs(A).max() < 1e-6


def test_chamber_volume_responds_for_compressible_map(pcc2):
    cavity = ReferenceDomain.cylinder(0.005, 0.3)
    act = ChamberActuation([(0, cavity)], quadrature_order=(3, 6, 4))
    v_straight = act.lengths(pcc2, np.zeros(6))[0]
    v_stretched = act.lengths(pcc2, np.array([0, 0, 0.1, 0, 0, 0]))[0]
    # elongation scales the deformed volume by lambda = 1 + dL/L0
    assert abs(v_stretched / v_straight - (1 + 0.1 / 0.3)) < 1e-6


def test_tendon_needs_two_points():
    with pytest.raises(ValueError):
        TendonActuation([[(-1, [0, 0, 0])]])


def test_tendon_rejects_body_index_below_base():
    # -1 is the base; no lower index names anything
    with pytest.raises(ValueError, match="via-point body index"):
        TendonActuation([[(-2, [0.008, 0, 0]), (0, [0.008, 0, 0.3])]])


def assert_rejects_body_beyond_chain(act, chain, message):
    # standalone, and in the statics residual, whose stages carry the map's terms
    q = np.zeros(chain.n)
    for call in (lambda: act.matrix(chain, q),
                 lambda: solve_statics(chain, actuation=act, u=np.ones(act.n_inputs), q_guess=q)):
        with pytest.raises(ValueError, match=message):
            call()


def test_chamber_rejects_body_index_beyond_chain():
    chain = presets.pcc_chain(2)
    chambers = ChamberActuation([(5, ReferenceDomain.cylinder(0.005, 0.3))])
    assert_rejects_body_beyond_chain(chambers, chain, "body 5 of a 2-body chain")


def test_tendon_rejects_body_index_beyond_chain():
    chain = presets.pcc_chain(2)
    tendons = TendonActuation([[(-1, [0.008, 0, 0]), (0, [0.008, 0, 0.3]), (3, [0.008, 0, 0.3])]])
    assert_rejects_body_beyond_chain(tendons, chain, "body 3 of a 2-body chain")


@pytest.mark.parametrize("name", ["pcc_3", "revolute_prismatic"])
def test_standalone_map_equals_the_staged_path(monkeypatch, name):
    # a standalone call places the map's points alone: no nodes, no integrals,
    # and bitwise the terms that the dynamics stages carry
    chain, act, _ = statics_case(name)
    q = np.array([fd_state(chain, seed)[0] for seed in (3, 4, 5)])
    for maps in {type(act): act, TendonActuation: three_tendons(chain)}.values():
        for qs in (q[0], q):
            staged = link_stages(chain, qs, actuation=maps)
            lengths, grad = maps._measure(chain, qs, staged)
            with monkeypatch.context() as m:
                m.setattr(integrals, "body_integrals", None)
                assert np.array_equal(maps.lengths(chain, qs), lengths)
                assert np.array_equal(maps.matrix(chain, qs), grad.swapaxes(-1, -2))
