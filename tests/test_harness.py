import numpy as np
import pytest

from softid import presets
from softid.dynamics import inverse_dynamics, miid
from softid.errors import BodyDomainError, NonFiniteDynamicsError, SingularMassError
from softid.harness import (
    PDPlusController,
    Trajectory,
    benchmark_scaling,
    forward_dynamics,
    pd_plus,
    simulate,
    solve_statics,
)

from conftest import sample_state


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


def test_nonfinite_sweep_raises_typed_error():
    # a speed of 1e200 overflows the sweep (the overflow is deliberate here)
    chain = presets.rigid_pendulum_chain()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteDynamicsError):
        forward_dynamics(chain, [0.3], [1e200], None)


# -- simulation ----------------------------------------------------------------

@pytest.mark.parametrize("method", ["rk4", "semi_implicit"])
def test_simulate_aborts_on_nonfinite_sweep(method):
    chain = presets.rigid_pendulum_chain()
    with np.errstate(over="ignore", invalid="ignore"):
        traj = simulate(chain, [0.3], [1e200], t_end=0.01, dt=1e-3, method=method)
    assert traj.aborted_at == 0 and len(traj) == 0

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


def test_trajectory_shape(pcc2):
    traj = simulate(pcc2, np.zeros(6), np.zeros(6), t_end=0.01, dt=1e-3,
                    method="semi_implicit")
    assert isinstance(traj, Trajectory)
    assert traj.q.shape == (len(traj), 6)
    assert traj.qd.shape == traj.q.shape


# -- statics ---------------------------------------------------------------------

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

    def capped(x, q):
        if q[0] > 0.2:
            raise BodyDomainError("curvature beyond the test cap")
        return solve(x, q)

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

    def capped(x, q):
        if abs(q[0] + 0.1) > 5e-8:
            raise BodyDomainError("curvature beyond the test cap")
        return solve(x, q)

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
