from collections import Counter

import numpy as np
import pytest

from softid import dynamics, kinematics, model_io, presets
from softid.actuation import ChamberActuation, TendonActuation
from softid.bodies import CosseratRodBody
from softid.dynamics import chain_dynamics, inverse_dynamics, miid
from softid.errors import BodyDomainError, NonFiniteDynamicsError, SingularMassError
from softid.harness import (
    FORCE_JACOBIAN_STEP,
    PDPlusController,
    Trajectory,
    _equilibrium,
    _force_jacobians,
    _solve_spd,
    _statics_jacobian,
    benchmark_scaling,
    forward_dynamics,
    pd_plus,
    simulate,
    solve_statics,
)
from softid.kinematics import BodyHandle
from softid.quadrature import ReferenceDomain

from conftest import central_difference, in_domain, sample_state
from test_kinematics import WALK_CHAINS


# -- forward dynamics ---------------------------------------------------------

def test_fd_id_roundtrip_rigid(rigid_2r, rng):
    for _ in range(5):
        q, qd, qdd = sample_state(rng, 2)
        nu = inverse_dynamics(rigid_2r, q, qd, qdd)
        back = forward_dynamics(rigid_2r, q, qd, nu)
        assert np.abs(back - qdd).max() < 1e-8 * max(1.0, np.abs(qdd).max())


def test_fd_id_roundtrip_soft(pcc2, rng):
    for _ in range(5):
        q, qd, qdd = sample_state(rng, pcc2.n)
        nu = inverse_dynamics(pcc2, q, qd, qdd)
        back = forward_dynamics(pcc2, q, qd, nu)
        assert np.abs(back - qdd).max() < 1e-7 * max(1.0, np.abs(qdd).max())


def test_fd_equilibrium_stays_at_rest(rigid_2r):
    # hanging pose is an equilibrium: q = 0 points straight down? links along z;
    # gravity -z, so q = pi is the hanging pose of the first link
    q = np.array([np.pi, 0.0])
    nu = inverse_dynamics(rigid_2r, q, None, None)
    qdd = forward_dynamics(rigid_2r, q, np.zeros(2), nu)
    assert np.abs(qdd).max() < 1e-9


def test_singular_mass_reported():
    # two coincident slider dofs along the same axis -> singular M
    from softid.bodies import RigidBody
    from softid.kinematics import BodyHandle, ChainModel, prismatic_joint
    from softid.quadrature import ReferenceDomain

    length, radius = 0.2, 0.05
    dom = ReferenceDomain.cylinder(radius, length)

    def hb(rho):
        return BodyHandle(RigidBody(dom, rho, quadrature_order=(2, 6, 4)),
                          x_j=[0, 0, length], x_a=[radius, 0, length], x_b=[0, radius, length])

    # M = [[m1+m2, m2], [m2, m2]]; a massless first body makes it rank one
    chain = ChainModel(
        [(prismatic_joint([0, 0, 1]), hb(1e-30)), (prismatic_joint([0, 0, 1]), hb(100.0))],
        gravity=[0, 0, 0],
    )
    with pytest.raises(SingularMassError) as err:
        forward_dynamics(chain, np.zeros(2), np.zeros(2), np.zeros(2))
    assert err.value.smallest_eigenvalue is not None


def test_solve_spd_reports_an_indefinite_matrix():
    M = np.array([[2.0, 1.0, 0.0], [1.0, -1.0, 0.5], [0.0, 0.5, 3.0]])
    with pytest.raises(SingularMassError) as err:
        _solve_spd(M, np.ones(3))
    assert err.value.smallest_eigenvalue < 0


def test_solve_spd_names_the_first_failing_row():
    good = np.diag([2.0, 1.0, 3.0])
    bad = np.array([[2.0, 1.0, 0.0], [1.0, -1.0, 0.5], [0.0, 0.5, 3.0]])
    with pytest.raises(SingularMassError, match="row 1 ") as err:
        _solve_spd(np.stack([good, bad, good, bad]), np.ones((4, 3)))
    assert err.value.smallest_eigenvalue == np.linalg.eigvalsh(bad)[0]


@pytest.mark.parametrize("fixture", ["rigid_2r", "pcc2"])
def test_forward_dynamics_rows_equal_single_calls(fixture, request):
    chain = request.getfixturevalue(fixture)
    rng = np.random.default_rng(8)
    q, qd, nu = (rng.uniform(-0.5, 0.5, (4, chain.n)) for _ in range(3))
    qdd = forward_dynamics(chain, q, qd, nu)
    assert qdd.shape == (4, chain.n)
    for r in range(4):
        assert np.array_equal(qdd[r], forward_dynamics(chain, q[r], qd[r], nu[r]))


def test_solve_spd_matches_a_general_solve():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 6))
    M = A @ A.T + 6 * np.eye(6)
    rhs = rng.normal(size=6)
    ref = np.linalg.solve(M, rhs)
    assert np.abs(_solve_spd(M, rhs) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_nonfinite_sweep_raises_typed_error():
    # a speed of 1e200 overflows the sweep (the overflow is deliberate here)
    chain = presets.rigid_pendulum_chain()
    with pytest.raises(NonFiniteDynamicsError):
        forward_dynamics(chain, [0.3], [1e200], None)


# -- simulation ----------------------------------------------------------------

@pytest.mark.parametrize("method", ["rk4", "semi_implicit"])
def test_simulate_aborts_on_nonfinite_sweep(method):
    chain = presets.rigid_pendulum_chain()
    traj = simulate(chain, [0.3], [1e200], t_end=0.01, dt=1e-3, method=method)
    assert traj.aborted_at == 0 and len(traj) == 0

@pytest.mark.slow
def test_pendulum_energy_conservation():
    chain = presets.rigid_pendulum_chain()
    q0 = np.array([2.0])
    traj = simulate(chain, q0, np.zeros(1), t_end=10.0, dt=1e-3)
    e = traj.total_energy
    scale = max(traj.kinetic.max(), np.ptp(e), 1e-12)
    drift = np.abs(e - e[0]).max() / scale
    assert drift < 1e-5
    assert traj.aborted_at is None
    assert np.all(np.diff(traj.t) > 0)


def test_simulate_aborts_on_singular_mass():
    # RK4 at dt = 1e-3 is far too coarse for the GPa rod: the state runs
    # into an indefinite mass matrix within a few steps
    chain = presets.pcc_chain(2)
    zero = np.zeros(chain.n)
    traj = simulate(chain, zero, zero, t_end=0.05, dt=1e-3)
    assert traj.aborted_at is not None and 0 < traj.aborted_at <= 50
    assert len(traj) == traj.aborted_at
    assert np.all(np.isfinite(traj.q)) and np.all(np.isfinite(traj.kinetic))


@pytest.mark.slow
def test_pcc_energy_conservation_undamped():
    # elastic oscillation at zero gravity: the work-ledger total is conserved
    # within integrator error.  Curvature-only body: with an elongation
    # coordinate the asymmetric curvature-elongation stiffness acts as a
    # circulatory force and flutters the undamped dynamics.
    chain = presets.pcc_chain(1, C=5e4, eta=None, order=(2, 8, 5), elongation=False)
    chain.gravity = np.zeros(3)
    q0 = np.array([0.4, -0.2])
    traj = simulate(chain, q0, np.zeros(2), t_end=1.0, dt=2e-4)
    e = traj.total_energy
    scale = max(traj.kinetic.max(), np.ptp(e), 1e-12)
    assert np.abs(e - e[0]).max() / scale < 1e-3
    assert np.abs(traj.dissipated).max() == 0.0


@pytest.mark.slow
def test_damped_free_evolution_dissipative():
    chain = presets.pcc_chain(1, C=2e3, eta=0.05, order=(2, 8, 5))
    q0 = np.array([0.3, 0.2, 0.0])
    traj = simulate(chain, q0, np.zeros(3), t_end=1.0, dt=2e-4)
    e = traj.total_energy
    slack = 1e-9 * max(np.ptp(e), traj.kinetic.max(), abs(e[0]))
    assert np.all(np.diff(e) <= slack)
    assert np.all(np.diff(traj.dissipated) >= -1e-12)
    assert traj.dissipated[-1] > 0.0


def test_semi_implicit_matches_rk4_on_mild_problem():
    chain = presets.rigid_pendulum_chain()
    q0 = np.array([1.0])
    a = simulate(chain, q0, np.zeros(1), t_end=0.5, dt=1e-3)
    b = simulate(chain, q0, np.zeros(1), t_end=0.5, dt=1e-4, method="semi_implicit")
    assert np.abs(a.q[-1] - b.q[-1]).max() < 5e-3


def test_semi_implicit_without_coordinates():
    # a welded rigid body: no column to difference, so K and D are 0 x 0
    from softid.bodies import RigidBody
    from softid.kinematics import BodyHandle, ChainModel, fixed_joint
    from softid.quadrature import ReferenceDomain

    dom = ReferenceDomain.cylinder(0.05, 0.2)
    hb = BodyHandle(RigidBody(dom, 10.0, quadrature_order=(2, 6, 4)),
                    x_j=[0, 0, 0.2], x_a=[0.05, 0, 0.2], x_b=[0, 0.05, 0.2])
    traj = simulate(ChainModel([(fixed_joint(), hb)]), [], [], t_end=0.003, dt=1e-3,
                    method="semi_implicit")
    assert len(traj) == 4 and traj.aborted_at is None and traj.q.shape == (4, 0)


def test_simulate_rejects_bad_dt(pcc2):
    with pytest.raises(ValueError):
        simulate(pcc2, np.zeros(6), np.zeros(6), dt=-1.0)
    with pytest.raises(ValueError):
        simulate(pcc2, np.zeros(6), np.zeros(6), method="leapfrog")


@pytest.mark.parametrize("t_end, dt", [(-1.0, 1e-3), (np.inf, 1e-3), (np.nan, 1e-3),
                                       (1.0, np.nan), (1.0, np.inf), (1.0, 0.0)])
def test_simulate_rejects_bad_times(pcc2, t_end, dt):
    with pytest.raises(ValueError):
        simulate(pcc2, np.zeros(6), np.zeros(6), t_end=t_end, dt=dt)


@pytest.mark.parametrize("every", [0, -1, 2.5, 5.0, None])
def test_simulate_rejects_bad_jacobian_every(pcc2, every):
    with pytest.raises(ValueError):
        simulate(pcc2, np.zeros(6), np.zeros(6), method="semi_implicit", jacobian_every=every)


def test_trajectory_shape(pcc2):
    traj = simulate(pcc2, np.zeros(6), np.zeros(6), t_end=0.01, dt=1e-3,
                    method="semi_implicit")
    assert isinstance(traj, Trajectory)
    assert traj.q.shape == (len(traj), 6)
    assert traj.qd.shape == traj.q.shape


# -- finite-difference columns ------------------------------------------------------

def three_tendons(chain):
    """Three tendons 120 degrees apart, from the base through every rod's tip."""
    routes = []
    for angle in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
        a, b = 0.008 * np.cos(angle), 0.008 * np.sin(angle)
        routes.append([(-1, [a, b, 0.0])] + [(i, [a, b, lk.body.model.length])
                                             for i, lk in enumerate(chain.links)])
    return TendonActuation(routes)


def joint_chain():
    # a revolute joint ahead of the first rod, a prismatic joint ahead of the second
    doc = presets.pcc_description(2, C=1e5, eta=0.05, along_y=False, order=(2, 6, 5))
    doc["links"][0]["joint"] = {"kind": "revolute", "axis": [0.3, 1.0, 0.2]}
    doc["links"][1]["joint"] = {"kind": "prismatic", "axis": [0.2, -0.4, 1.0]}
    return model_io.parse_chain(doc)


FD_CHAINS = {
    "pcc_3": lambda: presets.pcc_chain(3, C=1e5, eta=0.1, order=(2, 6, 5)),
    "revolute_prismatic": joint_chain,
    "variable_radius_3": lambda: presets.variable_radius_chain(3, order=(2, 4, 3)),
    "lvp_1": presets.lvp_chain,
    # a rod behind a revolute joint, a rigid body behind a prismatic one: links of widths 4 and 1
    "rod_rigid": WALK_CHAINS["revolute_prismatic"],
}


def fd_state(chain, seed, scale=0.4):
    """A state whose configuration lies inside every body map's domain."""
    rng = np.random.default_rng(seed)
    while True:
        q = rng.uniform(-scale, scale, chain.n)
        if in_domain(chain, q):
            return q, rng.uniform(-2.0, 2.0, chain.n)


def count_solves(monkeypatch):
    calls = []
    original = CosseratRodBody.solve

    def counted(self, x, q, qd=None):
        calls.append(self)
        return original(self, x, q, qd)

    monkeypatch.setattr(CosseratRodBody, "solve", counted)
    return calls


def test_force_jacobians_stage_only_the_stepped_link(monkeypatch):
    chain = presets.pcc_chain(3, C=1e5, eta=0.1, order=(2, 6, 5))
    q, qd = fd_state(chain, 1)
    base = chain_dynamics(chain, q, qd, None, mass=True).cache.stages
    calls = count_solves(monkeypatch)
    _force_jacobians(chain, q, qd, base)
    # the 4 n_i column points of a link, each at q_i and q_i +- h u, are one
    # solve of its body (a full sweep per point would solve all three links);
    # the rods share one model, so the solves are listed per call
    assert calls == [lk.body.model for lk in chain.links]


def test_statics_jacobian_stages_only_the_stepped_link(monkeypatch):
    chain = presets.pcc_chain(3, C=1e5, eta=0.1, order=(2, 6, 5))
    act = three_tendons(chain)
    residual = _equilibrium(chain, act, np.array([1.0, 0.5, 0.2]))
    q, _ = fd_state(chain, 2)
    _, base = residual(q)
    calls = count_solves(monkeypatch)
    assert _statics_jacobian(chain, residual, q, base) is not None
    # the 2 n_i column points of a link are one stack, whose stage solves
    # its body once for the dynamics and the tendons together
    assert calls == [lk.body.model for lk in chain.links]


def test_residual_stages_every_link_once(monkeypatch):
    # the rods of pcc_3 share one handle, and so do the rods behind the
    # revolute and the prismatic joint of revolute_prismatic: one group each
    def counting(seen, original):
        def counted(*args):
            seen.append(args[0])
            return original(*args)
        return counted

    for name in ("pcc_3", "revolute_prismatic"):
        chain, act, u = statics_case(name)
        assert len(chain.groups) == 1
        residual = _equilibrium(chain, act, u)
        q, _ = fd_state(chain, 2)
        with monkeypatch.context() as patch:
            calls = count_solves(patch)
            frames, links = [], []
            patch.setattr(BodyHandle, "contact_frame_data", counting(frames, BodyHandle.contact_frame_data))
            patch.setattr(kinematics, "link_jacobians", counting(links, kinematics.link_jacobians))
            r, _ = residual(q)
        assert r is not None
        # the actuation map reads the dynamics stage's solve: one per stage
        # group, not two; one contact frame and one link-Jacobian call per
        # stage group, over all of its links' rows
        assert calls == [chain.links[g[0]].body.model for g in chain.groups], name
        assert frames == [chain.links[g[0]].body for g in chain.groups], name
        assert len(links) == len(chain.groups), name


def count_stress_calls(monkeypatch):
    """Calls of the stress pass and of the rod's material derivatives, by
    name: the rods of a preset share one body model."""
    calls = Counter()

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    monkeypatch.setattr(dynamics, "stress_terms", counting("stress_terms", dynamics.stress_terms))
    for name in ("jac_x", "hess_x", "jac_x_dq"):
        monkeypatch.setattr(CosseratRodBody, name, counting(name, getattr(CosseratRodBody, name)))
    return calls


def test_force_jacobians_take_the_stress_once_per_link(monkeypatch):
    # the 4 n_i column points of a link are one stress pass over every row:
    # one call of each material derivative (a count holds under host load)
    chain = FD_CHAINS["pcc_3"]()
    q, qd = fd_state(chain, 1)
    base = chain_dynamics(chain, q, qd, None, mass=True).cache.stages
    calls = count_stress_calls(monkeypatch)
    _force_jacobians(chain, q, qd, base)
    names = ("stress_terms", "jac_x", "hess_x", "jac_x_dq")
    assert calls == Counter({name: len(chain) for name in names})


def test_statics_jacobian_takes_the_stress_once_per_link(monkeypatch):
    # at rest the damping pass is skipped: no jac_x_dq
    chain = FD_CHAINS["pcc_3"]()
    residual = _equilibrium(chain, three_tendons(chain), np.array([1.0, 0.5, 0.2]))
    q, _ = fd_state(chain, 2)
    _, base = residual(q)
    calls = count_stress_calls(monkeypatch)
    assert _statics_jacobian(chain, residual, q, base) is not None
    names = ("stress_terms", "jac_x", "hess_x")
    assert calls == Counter({name: len(chain) for name in names})


@pytest.mark.parametrize("name", sorted(FD_CHAINS))
def test_force_jacobians_equal_full_sweep_differences(name):
    chain = FD_CHAINS[name]()
    q, qd = fd_state(chain, 3)
    K, D = _force_jacobians(chain, q, qd, chain_dynamics(chain, q, qd, None, mass=True).cache.stages)
    h = FORCE_JACOBIAN_STEP
    K_full = central_difference(lambda qs: chain_dynamics(chain, qs, qd, None).force,
                                q, h * np.maximum(1.0, np.abs(q)))
    D_full = central_difference(lambda vs: chain_dynamics(chain, q, vs, None).force,
                                qd, h * np.maximum(1.0, np.abs(qd)))
    assert np.array_equal(K, K_full)
    assert np.array_equal(D, D_full)


def statics_case(name):
    """(chain, actuation, u) for the statics Jacobian checks."""
    chain = FD_CHAINS[name]()
    if name == "pcc_3":
        return chain, three_tendons(chain), np.array([1.0, 0.5, 0.2])
    if name == "revolute_prismatic":
        cavity = ReferenceDomain.cylinder(0.005, 0.3)
        return chain, ChamberActuation([(0, cavity), (1, cavity)], quadrature_order=(3, 6, 4)), \
            np.array([2e3, 1e3])
    return chain, None, None


@pytest.mark.parametrize("name", sorted(FD_CHAINS))
def test_statics_jacobian_equals_full_residual_differences(name):
    chain, act, u = statics_case(name)
    q, _ = fd_state(chain, 4)
    residual = _equilibrium(chain, act, u)
    _, base = residual(q)

    def full(qs):
        r = inverse_dynamics(chain, qs, None, None)
        return r if act is None else r - act.matrix(chain, qs) @ u

    J_full = central_difference(full, q, 1e-6 * np.maximum(1.0, np.abs(q)))
    assert np.array_equal(_statics_jacobian(chain, residual, q, base), J_full)


# -- statics ---------------------------------------------------------------------

def test_statics_rejects_an_input_without_actuation():
    with pytest.raises(ValueError, match="actuation map"):
        solve_statics(presets.rigid_pendulum_chain(), u=[1.0], q_guess=[2.5])


@pytest.mark.parametrize("u", [[1.0, 0.5], [1.0, np.nan, 0.2], [[1.0, 0.5, 0.2]]])
def test_statics_rejects_a_constant_input_that_is_not_n_inputs_finite_numbers(u):
    chain = FD_CHAINS["pcc_3"]()
    with pytest.raises(ValueError, match="3 finite numbers"):
        solve_statics(chain, actuation=three_tendons(chain), u=u, q_guess=np.zeros(chain.n))


@pytest.mark.parametrize("u, got", [(lambda q: np.ones(2), r"shape \(2,\)"),
                                    (lambda q: np.array([1.0, np.nan, 0.0]), r"shape \(3,\)")])
def test_statics_rejects_a_regulator_that_does_not_return_n_inputs_finite_numbers(u, got):
    chain = FD_CHAINS["pcc_3"]()
    with pytest.raises(ValueError, match=f"3 finite numbers per state, got .* of {got}"):
        solve_statics(chain, actuation=three_tendons(chain), u=u, q_guess=np.zeros(chain.n))


def test_statics_pendulum_gravity_aligned():
    chain = presets.rigid_pendulum_chain()
    st = solve_statics(chain, q_guess=np.array([2.5]))
    assert st.converged
    assert abs(abs(st.q[0]) - np.pi) < 1e-8  # hanging straight down


def test_statics_zero_gravity_elastic_rest():
    # the curvature coordinates relax to zero; uniform stretch is force-free
    # for this stress law (div B vanishes for constant deformation gradients),
    # so the elongation coordinate is only determined up to that neutral set
    chain = presets.pcc_chain(1, C=1e5, eta=None)
    chain.gravity = np.zeros(3)
    st = solve_statics(chain, q_guess=np.array([0.3, -0.2, 0.01]))
    assert st.converged
    assert np.abs(st.q[:2]).max() < 1e-6
    assert st.residual_norm < 1e-8


def test_statics_nonconvergence_reports_best():
    chain = presets.rigid_pendulum_chain()
    st = solve_statics(chain, q_guess=np.array([1.0]), max_iter=1, tol=1e-14)
    assert not st.converged
    assert np.isfinite(st.residual_norm)


def test_statics_unevaluable_guess_reports_not_converged(caplog):
    # the LVP bending map has no value at this curvature (2 kappa x_r >= 1)
    chain = presets.lvp_chain()
    guess = np.array([0.0, 3.0, 0.0])
    st = solve_statics(chain, q_guess=guess)
    assert not st.converged
    assert st.iterations == 0
    assert st.residual_norm == np.inf
    assert np.array_equal(st.q, guess)
    assert "initial guess" in caplog.text


def test_statics_unevaluable_jacobian_column_stops(caplog):
    # the body map ends at q_0 = 0.2: both difference steps of the first
    # Jacobian column leave its domain, so the solve stops at the best iterate
    chain = presets.pcc_chain(1, C=1e5, eta=None)
    chain.gravity = np.zeros(3)
    model = chain.links[0].body.model
    solve = model.solve

    def capped(x, q, qd=None):
        if np.any(q[:, 0] > 0.2):
            raise BodyDomainError("curvature beyond the test cap")
        return solve(x, q, qd)

    model.solve = capped
    guess = np.array([0.2, -0.1, 0.0])
    st = solve_statics(chain, q_guess=guess)
    assert not st.converged
    assert st.iterations == 0
    assert np.array_equal(st.q, guess)
    assert np.isfinite(st.residual_norm)
    assert "Jacobian" in caplog.text


def test_statics_stops_where_no_step_is_evaluable(caplog):
    # the body map exists only within 5e-8 of the guess's first coordinate:
    # the Jacobian is differenced at the smaller step, but no trial point
    # along the Newton step can be evaluated
    chain = presets.pcc_chain(1, C=1e5, eta=None)
    chain.gravity = np.zeros(3)
    model = chain.links[0].body.model
    solve = model.solve

    def capped(x, q, qd=None):
        if np.any(np.abs(q[:, 0] + 0.1) > 5e-8):
            raise BodyDomainError("curvature beyond the test cap")
        return solve(x, q, qd)

    model.solve = capped
    guess = np.array([-0.1, 0.0, 0.0])
    st = solve_statics(chain, q_guess=guess)
    assert not st.converged
    assert st.iterations == 1
    assert np.array_equal(st.q, guess)
    assert "no evaluable step" in caplog.text


# -- PD+ regulation ----------------------------------------------------------------

def test_pd_plus_at_setpoint_is_feedforward(pcc2):
    q_d = 0.2 * np.ones(6)
    ff = inverse_dynamics(pcc2, q_d, None, None)
    nu = pd_plus(q_d, q_d, np.zeros(6), 0.2, 0.1, ff)
    assert np.array_equal(nu, ff)


def test_pd_plus_rejects_bad_gains(pcc2):
    with pytest.raises(ValueError):
        PDPlusController(pcc2, kp=0.0, kd=0.1, q_d=np.zeros(6))


def test_pd_plus_regulates_rigid_2r(rigid_2r):
    q_d = np.array([2.6, 0.4])
    ctl = PDPlusController(rigid_2r, kp=60.0, kd=25.0, q_d=q_d)
    traj = simulate(rigid_2r, np.array([np.pi, 0.0]), np.zeros(2),
                    controller=ctl, t_end=6.0, dt=2e-3)
    assert np.abs(traj.q[-1] - q_d).max() < 1e-2


@pytest.mark.parametrize("output", [lambda t, q, qd: 1.0, lambda t, q, qd: np.ones(3)], ids=["scalar", "length_3"])
def test_simulate_rejects_a_controller_output_of_another_shape(rigid_2r, output):
    # a scalar would broadcast into nu silently, a longer vector fail inside numpy
    with pytest.raises(ValueError, match=r"shape \(2,\), got shape \((3,)?\)"):
        simulate(rigid_2r, np.array([np.pi, 0.0]), np.zeros(2), controller=output, t_end=0.01, dt=2e-3)
    # a PD+ controller returns (n,) and runs
    ctl = PDPlusController(rigid_2r, kp=60.0, kd=25.0, q_d=np.array([2.6, 0.4]))
    traj = simulate(rigid_2r, np.array([np.pi, 0.0]), np.zeros(2), controller=ctl, t_end=0.01, dt=2e-3)
    assert traj.aborted_at is None and traj.nu.shape == (6, 2)


@pytest.mark.slow
def test_pd_plus_gain_sweep_monotone_error(rigid_2r):
    # steady-state error decreases as the proportional gain grows
    q_d = np.array([2.2, 0.3])
    errs = []
    for kp in (20.0, 60.0, 180.0):
        ctl = PDPlusController(rigid_2r, kp=kp, kd=0.8 * np.sqrt(kp), q_d=q_d)
        traj = simulate(rigid_2r, np.array([np.pi, 0.0]), np.zeros(2),
                        controller=ctl, t_end=8.0, dt=2e-3)
        errs.append(np.abs(traj.q[-1] - q_d).max())
    assert errs[0] > errs[1] > errs[2]


# -- benchmark ----------------------------------------------------------------------

def test_benchmark_rows_and_agreement():
    rows = benchmark_scaling([1, 2], trials=10, seed=3)
    assert [r.n_bodies for r in rows] == [1, 2]
    for r in rows:
        assert r.rel_diff_mean < 1e-6
        assert r.recursive_median_ns > 0
        assert r.oracle_median_ns > 0


def test_benchmark_rejects_few_trials():
    with pytest.raises(ValueError):
        benchmark_scaling([1], trials=3)
