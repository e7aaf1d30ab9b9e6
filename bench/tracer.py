"""Per-layer spans and exact call counts for the traced benchmark run.

The tracer replaces softid functions and methods with timing wrappers at the
attribute each caller looks up (``dynamics`` calls ``forward_pass`` through
its own module globals, ``harness`` through its imported ``chain_dynamics``,
bodies through their class dictionaries), and puts the originals back on
exit.  A span's self time is its duration minus the time of the spans it
encloses.  Stats are keyed by (tag, span) so one run can split them by
fixture.

A target whose module, class or attribute no longer exists is skipped, and
every metric derived only from it reads ``None`` instead of failing the run.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

BODY_METHODS = ("position", "jac_q", "jac_x", "hess_x")
BODY_CLASSES = (
    "softid.bodies.base:BodyModel",
    "softid.bodies.base:RigidBody",
    "softid.bodies.strain:CosseratRodBody",
    "softid.bodies.strain:VariableRadiusPccBody",
    "softid.bodies.lvp:LvpBody",
)

# (span, owner, attribute); owner is "module" or "module:Class"
TARGETS = (
    ("kinematics.forward_pass", "softid.dynamics", "forward_pass"),
    ("kinematics.link_jacobians", "softid.kinematics", "link_jacobians"),
    ("kinematics.contact_frame_data", "softid.kinematics:BodyHandle", "contact_frame_data"),
    ("kinematics.framed_jacobian", "softid.kinematics:BodyHandle", "framed_jacobian"),
    ("integrals.body_integrals", "softid.bodies.integrals", "body_integrals"),
    ("dynamics.inertial_terms", "softid.dynamics", "inertial_terms"),
    ("dynamics.stress_terms", "softid.dynamics", "stress_terms"),
    ("dynamics.backward_recursion", "softid.dynamics", "backward_recursion"),
    ("dynamics.mass_matrix", "softid.dynamics", "_mass_matrix"),
    ("dynamics.chain_dynamics", "softid.dynamics", "chain_dynamics"),
    ("dynamics.chain_dynamics", "softid.harness", "chain_dynamics"),
    ("harness.inverse_dynamics", "softid.harness", "inverse_dynamics"),
    ("harness.solve_spd", "softid.harness", "_solve_spd"),
    ("harness.force_jacobians", "softid.harness", "_force_jacobians"),
    ("harness.simulate", "softid.harness", "simulate"),
    ("harness.statics", "softid.harness", "solve_statics"),
    ("actuation.matrix", "softid.actuation:ActuationMap", "matrix"),
) + tuple(
    (f"bodies.{method}", cls, method) for cls in BODY_CLASSES for method in BODY_METHODS
)

SPANS = tuple(dict.fromkeys(span for span, _, _ in TARGETS))


def _resolve(owner: str):
    """The module or class named by ``owner``, or None if it is gone."""
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Context manager that wraps every target while active.

    ``tag`` labels the spans recorded until it changes (the benchmark sets it
    to the fixture or operation kind before each operation).
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.tag = None
        self.calls: dict[tuple, int] = {}
        self.self_ns: dict[tuple, int] = {}
        self.raised: dict[tuple, int] = {}
        self.wrapped: set[str] = set()
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def __enter__(self):
        for span, owner_name, attr in self.targets:
            owner = _resolve(owner_name)
            if owner is None or attr not in vars(owner):
                continue  # inherited, or removed by a refactor
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(span, original))
            self._patches.append((owner, attr, original))
            self.wrapped.add(span)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    @property
    def missing(self) -> set[str]:
        """Spans none of whose targets could be wrapped."""
        return {span for span, _, _ in self.targets} - self.wrapped

    def _wrap(self, span, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            # an override calling its base implementation stays one span
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            frame = [span, 0]
            stack.append(frame)
            key = (self.tag, span)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised[key] = self.raised.get(key, 0) + 1
                raise
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[key] = self.calls.get(key, 0) + 1
                self.self_ns[key] = self.self_ns.get(key, 0) + elapsed - frame[1]

        traced.__wrapped__ = fn
        return traced

    # -- aggregation ----------------------------------------------------------

    def _sum(self, table, spans, tags=None):
        return sum(v for (tag, span), v in table.items()
                   if span in spans and (tags is None or tag in tags))

    def count(self, span, tags=None):
        """Calls of ``span`` (optionally only under ``tags``); None if unwrapped."""
        return self._sum(self.calls, {span}, tags) if span in self.wrapped else None

    def self_ms(self, spans, tags=None):
        """Summed self time of ``spans`` in ms; None if none was wrapped."""
        spans = set(spans) & self.wrapped
        return self._sum(self.self_ns, spans, tags) / 1e6 if spans else None

    def failures(self, span, tags=None):
        return self._sum(self.raised, {span}, tags) if span in self.wrapped else None
