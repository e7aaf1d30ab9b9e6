"""The benchmark workloads: seeded inputs, calls, accuracy gates and latency.

Every workload draws a small pool of inputs from the seed and cycles through
it, handing softid only arrays.  Every timed call is then covered by a gate
evaluated once per input after the timed window, and a repeat that returns a
different output fails.  An input comes back only after four other calls on
the same chain (soft_rod_sim: after a whole simulation), by which time
softid's body-map memos (at most 9 or 17 entries) have been cleared, so every
repeat is a cold call.  Gates use the acceptance tolerances of the
verification suite.

Host speed on a shared machine drifts by tens of percent over tens of
seconds: over 150 s, 10 s window medians of the same 32-body iid call read
93-134 ms, and for 20 s no call ran faster than 120 ms.  The time of each
call divided by the time of a fixed numpy loop run next to it stayed within
32.5-34.4 in every window.  The gated latency is therefore that ratio, in
units of the reference loop; milliseconds are reported beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator

import numpy as np

from softid import dynamics, harness, presets
from softid.actuation import TendonActuation
from softid.errors import SoftIDError
from softid.model_io import load_chain
from softid.oracle import oracle_kane

TOL_ORACLE = 1e-6       # criterion 1: IID against the direct Kane summation
TOL_MASS = 1e-10        # criterion 2: M qdd = iid(q, qd, qdd) - iid(q, qd, 0)
TOL_SYMMETRY = 1e-9     # criterion 2: symmetry of M
TOL_STATICS = 1e-8      # solve_statics default tolerance

# Bundled fixtures that fixture_zoo leaves out: at the commit that introduced
# the benchmark, calls on them or their gates fail on part of the acceptance
# box, and a workload must be one on which no operation fails.  A later
# benchmark change adds each fixture back once its ROADMAP fix lands.
LEFT_OUT = {
    "pac_1": "the oracle gate raises AssertionError on most box states: RK4 backbone "
             "frames drift off SO(3) (ROADMAP item 1, fix: item 3)",
    "pgc_2": "the oracle gate raises AssertionError on most box states: RK4 backbone "
             "frames drift off SO(3) (ROADMAP item 1, fix: item 3)",
    "lvp_1": "mid raises a bare ValueError on 50 of 300 box states and misses "
             "criterion 1 on 1 (ROADMAP item 1, LVP state domain)",
    "variable_radius_3": "IID misses criterion 1 (up to 2e-3 against 1e-6) on 3 of "
                         "1000 box states, each with a curvature near zero (NOTES.md)",
}

# On the planar PCC chain IID misses criterion 1 (up to 1e-4 against 1e-6)
# when a curvature lies within about 2e-3 of zero but above about 1e-5: the
# closed-form kernels of bodies/strain.py lose digits to cancellation just
# above their series switch.  4 of 750 box states of the 32-body chain have
# such a coordinate.  chain32_sweep redraws q while some |q_k| is below this margin,
# which at 5e-3 leaves errors under 5e-8 (see NOTES.md).
CURVATURE_MARGIN = 5e-3
ENERGY_NOTE = ("soft-rod energy-ledger rises are reported, not gated: the strong-form "
               "Kelvin-Voigt operator is indefinite (ROADMAP items 1 and 6)")


def failure_kind(exc: BaseException) -> str:
    if isinstance(exc, SoftIDError):
        return "SoftIDError"
    if isinstance(exc, AssertionError):
        return "AssertionError"
    if isinstance(exc, ValueError):
        return "ValueError"
    return "other_error"


def sample_state(rng, n, avoid=0.0):
    """One state from the acceptance box, q redrawn while some |q_k| < avoid."""
    q = rng.uniform(-np.pi, np.pi, n)
    while np.any(np.abs(q) < avoid):
        q = rng.uniform(-np.pi, np.pi, n)
    return q, rng.uniform(-10.0, 10.0, n), rng.uniform(-100.0, 100.0, n)


def same_output(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_output(x, y) for x, y in zip(a, b))
    return bool(np.array_equal(a, b))


def tail(values):
    """Highest percentile with at least ten samples beyond it: (pct, value)."""
    values = sorted(values)
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, values[n - 11]


def _reference_data():
    rng = np.random.default_rng(0)
    return rng.standard_normal((61, 3, 3)), rng.standard_normal((61, 3))


_REF_X, _REF_V = _reference_data()


def reference_loop() -> float:
    """Fixed small-array numpy work (about 3 ms) that shares no code with softid."""
    acc = 0.0
    for i in range(60):
        R = _REF_X[i]
        w = np.cross(_REF_V[i], R @ _REF_V[i + 1])
        M = np.einsum("mab,mb->ma", _REF_X, _REF_V)
        acc += float(np.linalg.norm(w) + M[0, 0]) + float(np.trace(R @ R.T))
    return acc


def ref_ratio(records, tags=None) -> float | None:
    """Call time / adjacent reference time: median per input, mean over inputs.

    Only calls that returned count.  The mean keeps every pool input's weight
    equal however many times the timed window happened to reach it.
    """
    ratios = {}
    for r in records:
        if r.error is None and (tags is None or r.tag in tags):
            ratios.setdefault(r.key, []).append(r.seconds / r.ref)
    return float(np.mean([np.median(v) for v in ratios.values()])) if ratios else None


def median_ms(records, tags=None) -> tuple[float, int]:
    times = [r.seconds for r in records if r.error is None and (tags is None or r.tag in tags)]
    return 1e3 * float(np.median(times)), len(times)


@dataclass(frozen=True)
class Op:
    """One end-to-end call.  Calls with equal keys get equal inputs."""

    tag: str
    key: tuple
    call: Callable[[], object]


@dataclass
class Verdict:
    """Gate outcome for one input: a failure kind, or None when it passes."""

    failure: str | None = None
    failed_units: int | None = None  # None: every unit of the call failed
    values: dict = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    units = 1          # end-to-end operations per call (steps per simulate call)
    trace_calls = 1    # calls in one traced pass
    pool_size = 5

    def __init__(self, root: Path, seed: int):
        self.root = Path(root)
        self.seed = int(seed)
        self.oracle_ns = 0
        self.oracle_calls = 0
        self._references = {}

    def ops(self) -> Iterator[Op]:
        """The endless, seed-determined call sequence."""
        raise NotImplementedError

    def gate(self, key, out) -> Verdict:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        return same_output(a, b)

    def n_bodies(self, tag) -> int:
        """Bodies in the chain that operations tagged ``tag`` run on."""
        return len(self.chain)

    def latency_ref(self, records) -> float | None:
        """Gated latency per end-to-end operation, in reference-loop units."""
        ratio = ref_ratio(records)
        return None if ratio is None else ratio / self.units

    def report(self, records, ops_per_s):
        """Print the workload's own names for its end-to-end readings."""

    def reference(self, pool_key, chain, state):
        """oracle_kane at a pool state, evaluated once; its exception re-raised."""
        if pool_key not in self._references:
            start = perf_counter_ns()
            try:
                self._references[pool_key] = oracle_kane(chain, *state)
            except Exception as exc:  # kept: every call on this state fails alike
                self._references[pool_key] = exc
            self.oracle_ns += perf_counter_ns() - start
            self.oracle_calls += 1
        ref = self._references[pool_key]
        if isinstance(ref, Exception):
            raise ref
        return ref


def _mid_out(chain, state):
    res = dynamics.mid(chain, *state)
    return res.force, res.mass, res.components["inertial"]


def sweep_gates(workload: Workload, pool_key, chain, state, inertial, mass=None) -> Verdict:
    """Criterion 1 on the inertial force; criterion 2 and symmetry on M."""
    q, qd, qdd = state
    try:
        ref = workload.reference(pool_key, chain, state)
        bias = None if mass is None else dynamics.iid(chain, q, qd, np.zeros_like(qdd))
    except Exception as exc:  # the gate cannot be evaluated at this state
        return Verdict(failure_kind(exc))
    values = {"oracle_rel_err": float(np.linalg.norm(inertial - ref) / np.linalg.norm(ref))}
    ok = values["oracle_rel_err"] <= TOL_ORACLE
    if mass is not None:
        target = inertial - bias
        values["mass_consistency"] = float(np.abs(mass @ qdd - target).max() / np.abs(target).max())
        symmetry = float(np.abs(mass - mass.T).max() / np.abs(mass).max())
        ok = ok and values["mass_consistency"] <= TOL_MASS and symmetry <= TOL_SYMMETRY
    return Verdict(None if ok else "gate_violated", values=values)


class Chain32Sweep(Workload):
    name = "chain32_sweep"
    why = ("iid/mid alternating on the 32-body planar PCC chain: the per-body recursion "
           "dominates; no stress model, no SPD solve")
    trace_calls = 10

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.chain = presets.planar_pcc_chain(32, quadrature_order=(2, 8, 6))
        rng = np.random.default_rng(self.seed)
        warm = sample_state(rng, self.chain.n, CURVATURE_MARGIN)
        self.pool = [sample_state(rng, self.chain.n, CURVATURE_MARGIN)
                     for _ in range(self.pool_size)]
        dynamics.iid(self.chain, *warm)

    def ops(self):
        i = 0
        while True:
            # the odd pool size gives each state both kinds in turn
            kind, k = ("iid", "mid")[i % 2], i % self.pool_size
            state = self.pool[k]
            if kind == "iid":
                call = lambda s=state: dynamics.iid(self.chain, *s)  # noqa: E731
            else:
                call = lambda s=state: _mid_out(self.chain, s)  # noqa: E731
            yield Op(kind, (kind, k), call)
            i += 1

    def gate(self, key, out):
        kind, k = key
        if kind == "iid":
            return sweep_gates(self, k, self.chain, self.pool[k], out)
        _, mass, inertial = out
        return sweep_gates(self, k, self.chain, self.pool[k], inertial, mass)

    def report(self, records, ops_per_s):
        print(f"  sweep_calls_per_s {ops_per_s:.4f} 1/s")
        ms, n = median_ms(records)
        print(f"  sweep_ms_p50 {ms:.4f} ms (n={n})")
        t = tail([1e3 * r.seconds for r in records if r.error is None])
        if t is None:
            print("  sweep_ms_tail: fewer than 11 samples")
        else:
            print(f"  sweep_ms_tail p{t[0]:.1f} {t[1]:.4f} ms (n={n}, 10 beyond)")
        for kind in ("iid", "mid"):
            ms, n = median_ms(records, {kind})
            print(f"    {kind}_ms_p50 {ms:.4f} ms (n={n}), {ref_ratio(records, {kind}):.3f} ref")
        print(f"  states: box states, q redrawn while some |q_k| < {CURVATURE_MARGIN:g} "
              "(IID misses criterion 1 near zero curvature; NOTES.md)")


class FixtureZoo(Workload):
    name = "fixture_zoo"
    why = ("mid round-robin over the bundled rigid, PCC and PCS fixtures, whose gates pass: "
           "short chains, so body maps and per-call cost dominate, not the recursion")
    fixtures = ("rigid_2r", "pcc_2", "pcs_2")
    trace_calls = 15

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.chains = {f: load_chain(self.root / "models" / f"{f}.json") for f in self.fixtures}
        rng = np.random.default_rng(self.seed)
        self.pools = {f: [sample_state(rng, c.n) for _ in range(self.pool_size)]
                      for f, c in self.chains.items()}
        for chain in self.chains.values():
            dynamics.mid(chain, *(np.zeros(chain.n),) * 3)

    def ops(self):
        r = 0
        while True:
            k = r % self.pool_size
            for f in self.fixtures:
                yield Op(f, (f, k), lambda c=self.chains[f], s=self.pools[f][k]: _mid_out(c, s))
            r += 1

    def gate(self, key, out):
        f, k = key
        _, mass, inertial = out
        return sweep_gates(self, key, self.chains[f], self.pools[f][k], inertial, mass)

    def n_bodies(self, tag):
        return len(self.chains[tag])

    def latency_ref(self, records):
        """Geometric mean over fixtures, so a 10x gain on one fixture and a 2x
        gain on another both show."""
        per_fixture = [ref_ratio(records, {f}) for f in self.fixtures]
        per_fixture = [x for x in per_fixture if x is not None]
        return float(np.exp(np.mean(np.log(per_fixture)))) if per_fixture else None

    def report(self, records, ops_per_s):
        medians = {f: median_ms(records, {f}) for f in self.fixtures
                   if any(r.tag == f and r.error is None for r in records)}
        geomean = np.exp(np.mean(np.log([ms for ms, _ in medians.values()])))
        print(f"  zoo_ms_geomean (of per-fixture medians) {geomean:.4f} ms")
        for f, (ms, n) in medians.items():
            print(f"    zoo.{f}.ms_p50 {ms:.4f} ms (n={n}), {ref_ratio(records, {f}):.3f} ref")
        for f, reason in LEFT_OUT.items():
            print(f"    left out: {f}: {reason}")


class SoftRodSim(Workload):
    name = "soft_rod_sim"
    why = ("semi-implicit simulate on the criterion-7 soft rod: FD stiffness/damping "
           "refreshes, stress terms and SPD solves dominate")
    units = 5  # steps per simulate call, always from t = 0
    trace_calls = 2
    dt = 5e-4
    q0 = np.array([0.3, 0.2, 0.0, 0.2, -0.2, 0.02])

    def __init__(self, root, seed):
        # the criterion-7 initial state is fixed; the seed does not enter
        super().__init__(root, seed)
        self.chain = presets.pcc_chain(2, C=0.555e6, order=(2, 6, 5))
        self._simulate(1)

    def _simulate(self, steps):
        return harness.simulate(self.chain, self.q0, np.zeros(self.chain.n),
                                t_end=steps * self.dt, dt=self.dt,
                                method="semi_implicit", jacobian_every=100)

    def ops(self):
        while True:
            yield Op("simulate", ("simulate",), lambda: self._simulate(self.units))

    def same(self, a, b):
        return same_output((a.q, a.qd), (b.q, b.qd))

    def gate(self, key, traj):
        values = {"energy_rises": int(np.sum(np.diff(traj.total_energy) > 0))}
        if traj.aborted_at is not None:
            # the state after step aborted_at is not finite; later steps never ran
            failed = min(self.units, self.units - traj.aborted_at + 1)
            return Verdict("aborted", failed_units=failed, values=values)
        if len(traj) != self.units + 1 or not np.all(np.isfinite(traj.q)):
            return Verdict("aborted", values=values)
        return Verdict(values=values)

    def report(self, records, ops_per_s):
        ms, n = median_ms(records)
        print(f"  sim_steps_per_s {ops_per_s:.4f} 1/s ({n} calls of {self.units} steps "
              f"from t = 0; median {ms / self.units:.4f} ms per step)")


class TendonStatics(Workload):
    name = "tendon_statics"
    why = ("solve_statics with three tendons on the curvature-only rod: no velocity, "
           "no mass matrix; actuation map and Newton FD Jacobians")
    trace_calls = 4
    # A solve takes 46-86 residual evaluations depending on its input, so the
    # pool is large and a Latin hypercube, which spreads the problems evenly
    # along every input.  The ten-seed spread of the latency was 3.5-5.9% with
    # 16 problems (each solved once or twice), 9-12% over 6 seeds with 8.
    pool_size = 16

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.chain = presets.pcc_chain(2, C=0.555e6, order=(2, 6, 5), elongation=False)
        # three tendons 120 degrees apart, 8 mm off the axis of the 10 mm rod,
        # from the root cross-section (rigid with the base) through both tips
        routes = []
        for angle in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
            a, b = 0.008 * np.cos(angle), 0.008 * np.sin(angle)
            routes.append([(0, [a, b, 0.0]), (0, [a, b, 0.3]), (1, [a, b, 0.3])])
        self.actuation = TendonActuation(routes)
        m, n = self.actuation.n_inputs, self.chain.n
        rng = np.random.default_rng(self.seed)
        shape = (self.pool_size, m + n)
        unit = (np.argsort(rng.random(shape), axis=0) + rng.random(shape)) / self.pool_size
        # tensions in [0, 2] N, guesses in [-0.5, 0.5]
        self.pool = [(2.0 * p[:m], p[m:] - 0.5) for p in unit]
        zero = np.zeros(n)
        dynamics.inverse_dynamics(self.chain, zero, None, None)
        self.actuation.matrix(self.chain, zero)

    def ops(self):
        i = 0
        while True:
            k = i % self.pool_size
            u, guess = self.pool[k]
            yield Op("solve", ("solve", k), lambda u=u, g=guess: harness.solve_statics(
                self.chain, actuation=self.actuation, u=u, q_guess=g, tol=TOL_STATICS))
            i += 1

    def same(self, a, b):
        return same_output(a.q, b.q)

    def gate(self, key, res):
        if not res.converged:
            return Verdict("not_converged", values={"iterations": res.iterations})
        u, _ = self.pool[key[1]]
        r = (dynamics.inverse_dynamics(self.chain, res.q, None, None)
             - self.actuation.matrix(self.chain, res.q) @ u)
        residual = float(np.linalg.norm(r))
        return Verdict(None if residual <= TOL_STATICS else "gate_violated",
                       values={"iterations": res.iterations, "statics_residual": residual})

    def report(self, records, ops_per_s):
        ms, n = median_ms(records)
        print(f"  statics_s_p50 {ms / 1e3:.4f} s (n={n})")


WORKLOADS = {w.name: w for w in (Chain32Sweep, FixtureZoo, SoftRodSim, TendonStatics)}
