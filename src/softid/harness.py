"""Forward dynamics, time integration, statics, regulation, and benchmarks.

Forward dynamics follows the two-step scheme: one mass-augmented inverse
dynamics call at zero acceleration gives the bias force c + g + s together
with M(q), and a positive-definite solve returns the acceleration.

The energy ledger tracks kinetic energy, potential energy (gravity plus the
accumulated work done against the stress field), and dissipated energy (the
accumulated work of the viscous forces).  The stress force of the
incompressible Neo-Hookean density is not an exact gradient, so stored
stress energy is bookkept as a work integral; with zero input this makes
kinetic + potential non-increasing by exactly the dissipated work, up to
integrator error.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .bodies.base import central_difference
from .dynamics import chain_dynamics, inverse_dynamics
from .errors import NonFiniteDynamicsError, SingularMassError, SoftIDError
from .kinematics import ChainModel
from .oracle import oracle_kane

Array = np.ndarray

logger = logging.getLogger(__name__)


def _solve_spd(M: Array, rhs: Array) -> Array:
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(rhs))):
        raise NonFiniteDynamicsError("mass matrix or right-hand side is not finite")
    try:
        return cho_solve(cho_factor(M), rhs)
    except LinAlgError as exc:
        smallest = float(np.linalg.eigvalsh(M)[0])
        raise SingularMassError(
            f"mass matrix is not positive definite (smallest eigenvalue {smallest:.3e})",
            smallest_eigenvalue=smallest,
        ) from exc


def forward_dynamics(chain: ChainModel, q, qd, nu=None) -> Array:
    """Acceleration from the two-step scheme: solve M qdd = nu - (c + g + s)."""
    q, qd, nu = chain.check_state(q, qd, nu)
    res = chain_dynamics(chain, q, qd, None, mass=True)
    return _solve_spd(res.mass, nu - res.force)


def gravitational_energy(chain: ChainModel, cache) -> float:
    """Potential energy of gravity from a forward-pass cache."""
    u = 0.0
    for kin in cache.bodies:
        p = kin.t_base + kin.R_base @ kin.data.p_com
        u -= kin.data.mass * float(chain.gravity @ p)
    return u


@dataclass
class Trajectory:
    """Simulation record on a strictly increasing time grid."""

    t: Array
    q: Array
    qd: Array
    nu: Array
    kinetic: Array
    potential: Array
    dissipated: Array
    aborted_at: int | None = None

    @property
    def total_energy(self) -> Array:
        return self.kinetic + self.potential

    def __len__(self) -> int:
        return self.t.shape[0]


def _force_jacobians(chain, q, qd, h=1e-5):
    """Stiffness K = dF/dq and damping D = dF/dqd of the bias force F = c+g+s."""
    K = central_difference(lambda qs: chain_dynamics(chain, qs, qd, None).force,
                           q, h * np.maximum(1.0, np.abs(q)))
    D = central_difference(lambda vs: chain_dynamics(chain, q, vs, None).force,
                           qd, h * np.maximum(1.0, np.abs(qd)))
    return K, D


def simulate(
    chain: ChainModel,
    q0,
    qd0,
    controller=None,
    t_end: float = 1.0,
    dt: float = 1e-3,
    method: str = "rk4",
    jacobian_every: int = 5,
) -> Trajectory:
    """Fixed-step integration of the chain under a state-feedback controller.

    ``controller(t, q, qd) -> nu`` or None for free evolution.  ``method``:

    - ``rk4``: explicit fourth order; the step must resolve the fastest
      mode, which GPa-stiff Kelvin-Voigt materials push to ~1e-7 s.
    - ``semi_implicit``: linearly-implicit Euler treating the
      finite-differenced stiffness and damping of the bias force implicitly,
      (M + dt D + dt^2 K) qd+ = (M + dt D) qd + dt (nu - F); stable at
      settling-scale steps for stiff materials.  The linearization is
      refreshed every ``jacobian_every`` steps.

    Aborts on a non-finite state or a :class:`SoftIDError` from any stage or
    linearization refresh (e.g. a singular mass matrix), returning the states
    recorded before it; ``aborted_at`` is then the trajectory's length.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if method not in ("rk4", "semi_implicit"):
        raise ValueError(f"unknown integration method {method!r}")
    q, qd = (v.copy() for v in chain.check_state(q0, qd0))
    steps = int(round(t_end / dt))
    n = chain.n
    ts = np.empty(steps + 1)
    qs = np.empty((steps + 1, n))
    qds = np.empty((steps + 1, n))
    nus = np.zeros((steps + 1, n))
    kin_e = np.empty(steps + 1)
    pot_e = np.empty(steps + 1)
    diss = np.zeros(steps + 1)

    zero = np.zeros(n)

    def control(t, q, qd):
        return zero if controller is None else np.asarray(controller(t, q, qd), dtype=float)

    def eval_dyn(t, q, qd):
        nu = control(t, q, qd)
        res = chain_dynamics(chain, q, qd, None, mass=True)
        qdd = _solve_spd(res.mass, nu - res.force)
        return qdd, res, nu

    def powers(res, qd):
        return (float(qd @ res.components["elastic"]),
                float(qd @ res.components["damping"]))

    aborted = None
    recorded = 0  # states written so far
    stress_work = 0.0
    diss_acc = 0.0
    K = D = None
    q_lin = qd_lin = None
    p_start = None  # semi-implicit: the last step's start powers, its trapezoid still open
    try:
        for k in range(steps + 1):
            t = k * dt
            if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qd))):
                aborted = k
                logger.warning("simulation aborted at step %d: non-finite state", k)
                break
            qdd1, res1, nu1 = eval_dyn(t, q, qd)
            p1 = powers(res1, qd)
            if p_start is not None:
                # this state's sweep closes the last step's trapezoid
                stress_work += 0.5 * dt * (p_start[0] + p1[0])
                diss_acc += 0.5 * dt * (p_start[1] + p1[1])
            ts[k] = t
            qs[k] = q
            qds[k] = qd
            nus[k] = nu1
            kin_e[k] = 0.5 * float(qd @ res1.mass @ qd)
            pot_e[k] = gravitational_energy(chain, res1.cache) + stress_work
            diss[k] = diss_acc
            recorded = k + 1
            if k == steps:
                break

            if method == "semi_implicit":
                # refresh the linearization after drifting away from its state
                stale = (
                    K is None
                    or k % max(jacobian_every, 1) == 0
                    or np.linalg.norm(q - q_lin) > 0.02 * max(1.0, np.linalg.norm(q_lin))
                    or np.linalg.norm(qd - qd_lin) > 0.1 * max(1.0, np.linalg.norm(qd_lin))
                )
                if stale:
                    K, D = _force_jacobians(chain, q, qd)
                    q_lin, qd_lin = q.copy(), qd.copy()
                M = res1.mass
                lhs = M + dt * D + dt * dt * K
                rhs = (M + dt * D) @ qd + dt * (nu1 - res1.force)
                qd = np.linalg.solve(lhs, rhs)
                q = q + dt * qd
                p_start = p1
            else:
                # work integrals ride the same RK4 stages as the state
                k1q, k1v = qd, qdd1
                qd2 = qd + dt / 2 * k1v
                k2v, res2, _ = eval_dyn(t + dt / 2, q + dt / 2 * k1q, qd2)
                p2 = powers(res2, qd2)
                k2q = qd2
                qd3 = qd + dt / 2 * k2v
                k3v, res3, _ = eval_dyn(t + dt / 2, q + dt / 2 * k2q, qd3)
                p3 = powers(res3, qd3)
                k3q = qd3
                qd4 = qd + dt * k3v
                k4v, res4, _ = eval_dyn(t + dt, q + dt * k3q, qd4)
                p4 = powers(res4, qd4)
                k4q = qd4
                q = q + dt / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
                qd = qd + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
                stress_work += dt / 6 * (p1[0] + 2 * p2[0] + 2 * p3[0] + p4[0])
                diss_acc += dt / 6 * (p1[1] + 2 * p2[1] + 2 * p3[1] + p4[1])
    except SoftIDError as exc:
        aborted = recorded
        logger.warning("simulation aborted at step %d: %s", aborted, exc)

    sl = slice(0, recorded)
    return Trajectory(
        t=ts[sl], q=qs[sl], qd=qds[sl], nu=nus[sl],
        kinetic=kin_e[sl], potential=pot_e[sl], dissipated=diss[sl],
        aborted_at=aborted,
    )


# -- statics ---------------------------------------------------------------------

@dataclass
class StaticsResult:
    q: Array
    converged: bool
    residual_norm: float
    iterations: int


def solve_statics(
    chain: ChainModel,
    actuation=None,
    u=None,
    q_guess=None,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> StaticsResult:
    """Newton-Raphson on the equilibrium residual ID(q, 0, 0) - A(q) u.

    ``u`` may be a constant input vector or a callable u(q) (regulator).
    The Jacobian is finite-differenced from the residual; steps use a
    backtracking line search on its norm.  An iterate counts as converged
    when the residual norm is below ``tol`` and the Newton correction that
    the Jacobian in hand predicts from it is below ``tol * max(1, |q|)``: where
    the stiffness is small, a small residual alone leaves q far from the
    root.  Trial points where the chain cannot be evaluated (a typed
    :class:`SoftIDError`) make the line search backtrack; where no trial
    point lowers the norm, the whole step is taken.  Without convergence the
    best iterate is returned with ``converged = False`` (an unevaluable guess
    with zero iterations and an infinite residual).
    """
    (q,) = chain.check_state(q_guess)
    q = q.copy()
    n = chain.n

    def residual(qv):
        """Equilibrium residual; None marks an unevaluable trial point."""
        try:
            r = inverse_dynamics(chain, qv, None, None)
            if actuation is not None:
                uv = u(qv) if callable(u) else (np.zeros(actuation.n_inputs) if u is None else np.asarray(u, dtype=float))
                r = r - actuation.matrix(chain, qv) @ uv
        except (SoftIDError, np.linalg.LinAlgError):
            return None
        return r if np.all(np.isfinite(r)) else None

    def jacobian(qv):
        """Finite-difference Jacobian; None if some column is unevaluable."""
        J = np.empty((n, n))
        for k in range(n):
            for step in (1e-6, 1e-8):  # the smaller step where the larger one leaves the domain
                dq = np.zeros(n)
                dq[k] = step * max(1.0, abs(float(qv[k])))
                rp, rm = residual(qv + dq), residual(qv - dq)
                if rp is not None and rm is not None:
                    break
            else:
                return None
            J[:, k] = (rp - rm) / (2.0 * dq[k])
        return J

    def newton_step(J, rv):
        try:
            return np.linalg.solve(J, -rv)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(J, -rv, rcond=None)[0]

    def stopped(why, iterations):
        logger.warning("statics stopped: %s; best residual %.3e", why, best[0])
        return StaticsResult(q=best[1], converged=False, residual_norm=float(best[0]), iterations=iterations)

    r = residual(q)
    best = (np.inf if r is None else np.linalg.norm(r), q.copy())
    if r is None:
        return stopped("the residual is not evaluable at the initial guess", 0)
    step_cap = max(2.0, 0.5 * float(np.linalg.norm(q)))
    J = None  # Jacobian of the previous iterate
    for it in range(1, max_iter + 1):
        rn = np.linalg.norm(r)
        at_q = rn < tol and J is None  # a root at the guess: its own Jacobian decides
        if at_q:
            J = jacobian(q)
        if rn < tol and J is not None and np.linalg.norm(newton_step(J, r)) <= tol * max(1.0, float(np.linalg.norm(q))):
            return StaticsResult(q=q, converged=True, residual_norm=float(rn), iterations=it - 1)
        J = J if at_q else jacobian(q)
        if J is None:
            return stopped("a Jacobian column is not evaluable", it - 1)
        step = newton_step(J, r)
        norm = float(np.linalg.norm(step))
        if norm > step_cap:
            step *= step_cap / norm
        alpha = 1.0
        while alpha > 1e-6:
            cand = q + alpha * step
            r_cand = residual(cand)
            if r_cand is not None and np.linalg.norm(r_cand) < (1.0 - 1e-4 * alpha) * rn:
                q, r = cand, r_cand
                break
            alpha *= 0.5
        else:
            # no trial point lowers |r| (a kink of the residual can hold the
            # search): take the whole step, the best iterate being kept
            q, r = q + step, residual(q + step)
            if r is None:
                return stopped("no evaluable step lowers the residual", it)
        if np.linalg.norm(r) < best[0]:
            best = (np.linalg.norm(r), q.copy())
    return stopped(f"no convergence in {max_iter} iterations", max_iter)


# -- PD+ regulation ---------------------------------------------------------------

def pd_plus(q_d, q, qd, kp, kd, feedforward) -> Array:
    """PD action about the setpoint plus the potential-force feedforward.

    ``feedforward`` is ID(q_d, 0, 0), computed once per setpoint.
    """
    q_d, q, qd = (np.asarray(v, dtype=float) for v in (q_d, q, qd))
    kp = np.asarray(kp, dtype=float)
    kd = np.asarray(kd, dtype=float)
    return kp * (q_d - q) - kd * qd + np.asarray(feedforward, dtype=float)


class PDPlusController:
    """Stateful PD+ regulator caching the feedforward per setpoint.

    Gains are diagonal, given as scalars or per-coordinate vectors; the
    setpoint may be changed on the fly (step references).
    """

    def __init__(self, chain: ChainModel, kp, kd, q_d=None):
        self.chain = chain
        self.kp = np.broadcast_to(np.asarray(kp, dtype=float), (chain.n,)).copy()
        self.kd = np.broadcast_to(np.asarray(kd, dtype=float), (chain.n,)).copy()
        if np.any(self.kp <= 0) or np.any(self.kd <= 0):
            raise ValueError("PD+ gains must be positive")
        self.q_d = None
        self.feedforward = None
        if q_d is not None:
            self.set_setpoint(q_d)

    def set_setpoint(self, q_d):
        (q_d,) = self.chain.check_state(q_d)
        self.q_d = q_d
        self.feedforward = inverse_dynamics(self.chain, q_d, None, None)

    def __call__(self, t, q, qd) -> Array:
        if self.q_d is None:
            raise ValueError("setpoint not set")
        return pd_plus(self.q_d, q, qd, self.kp, self.kd, self.feedforward)


# -- scaling benchmark --------------------------------------------------------------

@dataclass
class BenchmarkRow:
    n_bodies: int
    build_seconds: float
    recursive_median_ns: float
    recursive_std_ns: float
    oracle_median_ns: float
    oracle_std_ns: float
    rel_diff_mean: float
    rel_diff_std: float


def benchmark_scaling(
    body_counts,
    trials: int = 10,
    seed: int = 0,
    quadrature_order=(2, 8, 6),
    chain_factory=None,
) -> list[BenchmarkRow]:
    """Median wall times of the recursive IID against the direct Kane oracle.

    States are drawn uniformly from q in [-pi, pi], qd in [-10, 10],
    qdd in [-100, 100] per coordinate.  ``chain_factory(N)`` defaults to
    planar constant-curvature chains.  Model construction time is reported
    but not comparable across toolchains (no symbolic stage here).  Trials
    run round-robin over the chain sizes, so a drift in host speed during
    the run shifts every size alike instead of bending the growth curve.
    """
    if trials < 10:
        raise ValueError("benchmark needs at least 10 trials")
    if chain_factory is None:
        from .presets import planar_pcc_chain

        def chain_factory(N):
            return planar_pcc_chain(N, quadrature_order=quadrature_order)

    from .dynamics import iid

    rng = np.random.default_rng(seed)
    sizes = [int(N) for N in body_counts]
    chains, builds, states = [], [], []
    for N in sizes:
        t0 = time.perf_counter()
        chain = chain_factory(N)
        builds.append(time.perf_counter() - t0)
        n = chain.n
        states.append([
            (rng.uniform(-np.pi, np.pi, n), rng.uniform(-10, 10, n), rng.uniform(-100, 100, n))
            for _ in range(trials)
        ])
        iid(chain, *states[-1][0])  # warm node caches
        chains.append(chain)
    t_rec, t_orc, rel = ([[] for _ in sizes] for _ in range(3))
    for trial in range(trials):
        for i, chain in enumerate(chains):
            q, qd, qdd = states[i][trial]
            t0 = time.perf_counter_ns()
            a = iid(chain, q, qd, qdd)
            t_rec[i].append(time.perf_counter_ns() - t0)
            t0 = time.perf_counter_ns()
            b = oracle_kane(chain, q, qd, qdd)
            t_orc[i].append(time.perf_counter_ns() - t0)
            rel[i].append(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))
    return [
        BenchmarkRow(
            n_bodies=N,
            build_seconds=builds[i],
            recursive_median_ns=float(np.median(t_rec[i])),
            recursive_std_ns=float(np.std(t_rec[i])),
            oracle_median_ns=float(np.median(t_orc[i])),
            oracle_std_ns=float(np.std(t_orc[i])),
            rel_diff_mean=float(np.mean(rel[i])),
            rel_diff_std=float(np.std(rel[i])),
        )
        for i, N in enumerate(sizes)
    ]
