"""Self-checks of the benchmark's tracer and of BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3
# calls per workload: enough for every listed span to fire
SMALL = {"chain32_sweep": 2, "fixture_zoo": 3, "soft_rod_sim": 1, "tendon_statics": 1}
# each span and the workload on which it must fire
FIRES_ON = {
    "bodies.position": "chain32_sweep",
    "bodies.jac_q": "chain32_sweep",
    "bodies.jac_x": "fixture_zoo",
    "bodies.hess_x": "fixture_zoo",
    "kinematics.forward_pass": "chain32_sweep",
    "kinematics.link_jacobians": "chain32_sweep",
    "kinematics.contact_frame_data": "chain32_sweep",
    "kinematics.framed_jacobian": "chain32_sweep",
    "integrals.body_integrals": "chain32_sweep",
    "dynamics.chain_dynamics": "chain32_sweep",
    "dynamics.inertial_terms": "chain32_sweep",
    "dynamics.backward_recursion": "chain32_sweep",
    "dynamics.mass_matrix": "chain32_sweep",
    "dynamics.stress_terms": "soft_rod_sim",
    "harness.force_jacobians": "soft_rod_sim",
    "harness.solve_spd": "soft_rod_sim",
    "harness.simulate": "soft_rod_sim",
    "harness.inverse_dynamics": "tendon_statics",
    "harness.statics": "tendon_statics",
    "actuation.matrix": "tendon_statics",
}


def traced_pass(name, targets=tracing.TARGETS):
    workload = wl.WORKLOADS[name](ROOT, SEED)
    outputs, mismatched = {}, set()
    with tracing.Tracer(targets) as tracer:
        result = run.run_pass(workload, outputs, mismatched, calls=SMALL[name], tracer=tracer)
    assert not mismatched
    return workload, tracer, result, outputs


@pytest.fixture(scope="module")
def first_passes():
    return {name: traced_pass(name) for name in SMALL}


def test_every_span_has_a_workload():
    assert set(FIRES_ON) == set(tracing.SPANS)


@pytest.mark.parametrize("span", sorted(FIRES_ON))
def test_span_fires_on_its_workload(first_passes, span):
    _, tracer, _, _ = first_passes[FIRES_ON[span]]
    assert tracer.count(span) > 0
    assert tracer.self_ms([span]) > 0.0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_call_counts_repeat_exactly(first_passes, name):
    _, first, _, _ = first_passes[name]
    _, second, _, _ = traced_pass(name)
    assert second.calls == first.calls


def test_wrappers_are_removed_on_exit():
    def current():
        out = {}
        for span, owner_name, attr in tracing.TARGETS:
            owner = tracing._resolve(owner_name)
            if attr in vars(owner):
                out[(owner_name, attr)] = vars(owner)[attr]
        return out

    before = current()
    assert len(before) > len(set(tracing.SPANS))
    with tracing.Tracer():
        during = current()
        assert all(during[k] is not v for k, v in before.items())
    after = current()
    assert all(after[k] is v for k, v in before.items())


def test_wrappers_are_removed_when_a_call_raises():
    from softid import dynamics

    original = dynamics.chain_dynamics
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("interrupted run")
    assert dynamics.chain_dynamics is original


def test_removed_names_read_null():
    gone = (
        ("gone.function", "softid.dynamics", "no_such_function"),
        ("gone.class", "softid.kinematics:NoSuchClass", "position"),
        ("gone.module", "softid.no_such_module", "anything"),
    )
    # as if a refactor had renamed kinematics.link_jacobians
    targets = tuple((span, owner, attr + "_renamed" if span == "kinematics.link_jacobians" else attr)
                    for span, owner, attr in tracing.TARGETS) + gone
    workload, tracer, result, outputs = traced_pass("chain32_sweep", targets)
    assert tracer.missing == {"kinematics.link_jacobians", *(span for span, _, _ in gone)}
    assert tracer.count("gone.function") is None
    assert tracer.self_ms(["gone.module"]) is None

    verdicts, failed = run.judge(workload, outputs, set(), result.records)
    values = run.layer_metrics(workload, tracer, result.records, verdicts, failed, 1.0)
    assert set(values) == {name for name, _ in run.PER_LAYER}
    assert values["kinematics.link_jacobians.calls"] is None
    assert all(v is not None for k, v in values.items() if k != "kinematics.link_jacobians.calls")
    assert json.loads(json.dumps(values))["kinematics.link_jacobians.calls"] is None


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in wl.WORKLOADS.items()}
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert run.FIXTURES == wl.FixtureZoo.fixtures


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain32_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
