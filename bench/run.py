"""softid benchmark: end-to-end metrics per workload, or a traced per-layer split.

Run from the repository root:

    python3 bench/run.py --workload chain32_sweep --seed 1 --seconds 20 --trace 0

One process and one closed-loop caller: each call starts when the previous
one has returned.  BLAS and OpenMP pools are pinned to one thread before
numpy loads.  Set-up (imports, model build, first warm call) is timed in
fresh child processes and reported as the median.

--trace 0 times calls for --seconds and reports the end-to-end metrics.
--trace 1 runs each workload's fixed call list traced, plain, plain and
traced, so the per-layer call counts repeat exactly for a seed, and reports
the per-layer metrics (per end-to-end operation) and the tracing overhead.
See NOTES.md for the workloads, the metrics and the inputs left out.

Gates run after the calls, outside the timed region.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are a readable report.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
SETUP_REF_LOOPS = 10
SETUP_TIMEOUT_S = 120
REF_SHARE = 0.05      # reference-loop time per call, as a share of the call
REF_NOMINAL_S = 3e-3  # typical time of one reference loop; the unit setup_s is scaled to

E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_latency_ref", "ref"),
)
FIXTURES = ("rigid_2r", "pcc_2", "pcs_2")
FAILURE_KINDS = ("SoftIDError", "ValueError", "AssertionError", "other_error",
                 "gate_violated", "not_converged", "aborted")
PER_LAYER = (
    ("bodies.position.calls", "count"),
    ("bodies.jac_q.calls", "count"),
    ("bodies.jac_x.calls", "count"),
    ("bodies.hess_x.calls", "count"),
    ("bodies.evals_per_body_sweep", "count"),
    ("bodies.self_ms", "ms"),
    *((f"bodies.self_ms.{f}", "ms") for f in FIXTURES),
    ("kinematics.forward_pass.self_ms", "ms"),
    ("kinematics.link_jacobians.calls", "count"),
    ("kinematics.contact_frame_data.calls", "count"),
    ("kinematics.framed_jacobian.calls", "count"),
    ("integrals.body_integrals.calls", "count"),
    ("integrals.body_integrals.self_ms", "ms"),
    ("dynamics.chain_dynamics.calls", "count"),
    ("dynamics.chain_dynamics.self_ms", "ms"),
    ("dynamics.inertial_terms.self_ms", "ms"),
    ("dynamics.stress_terms.self_ms", "ms"),
    ("dynamics.backward_recursion.self_ms", "ms"),
    ("dynamics.mass_matrix.self_ms", "ms"),
    ("harness.force_jacobians.calls", "count"),
    ("harness.force_jacobians.self_ms", "ms"),
    ("harness.solve_spd.calls", "count"),
    ("harness.solve_spd.self_ms", "ms"),
    ("harness.solve_spd.failures", "count"),
    ("harness.statics.iterations", "count"),
    ("harness.statics.residual_evals", "count"),
    ("harness.statics.self_ms", "ms"),
    ("actuation.matrix.calls", "count"),
    ("actuation.matrix.self_ms", "ms"),
    ("oracle.oracle_kane.self_ms", "ms"),
    ("gates.oracle_rel_err_max", "ratio"),
    ("gates.mass_consistency_max", "ratio"),
    ("gates.sim_energy_rises", "count"),
    *((f"gates.failures.{kind}", "count") for kind in FAILURE_KINDS),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Record:
    tag: str
    key: tuple
    seconds: float
    error: str | None
    ref: float  # mean time of the reference loop run just before and after


@dataclass
class Pass:
    records: list
    seconds: float
    messages: dict  # (tag, failure kind) -> first exception text


def run_pass(workload, outputs, mismatched, *, calls=None, seconds=None, tracer=None):
    """Run calls until ``calls`` are done or ``seconds`` have passed.

    The first output per key goes into ``outputs``; a later output for the
    same key that differs adds the key to ``mismatched``.
    """
    from workloads import failure_kind, reference_loop

    def timed_reference(after_seconds):
        """Mean reference-loop time over a block of about REF_SHARE of the call."""
        repeats = min(10, max(1, round(REF_SHARE * after_seconds / REF_NOMINAL_S)))
        t0 = time.perf_counter()
        for _ in range(repeats):
            reference_loop()
        return (time.perf_counter() - t0) / repeats

    records, messages = [], {}
    start = time.perf_counter()
    ref_before = timed_reference(0.0)
    for op in workload.ops():
        if tracer is not None:
            tracer.tag = op.tag
        t0 = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a failed call is counted, not fatal
            out, error = None, failure_kind(exc)
            messages.setdefault((op.tag, error), f"{type(exc).__name__}: {exc}")
        took = time.perf_counter() - t0
        ref_after = timed_reference(took)
        records.append(Record(op.tag, op.key, took, error, 0.5 * (ref_before + ref_after)))
        ref_before = ref_after
        if error is None:
            first = outputs.setdefault(op.key, out)
            if first is not out and not workload.same(first, out):
                mismatched.add(op.key)
        elapsed = time.perf_counter() - start
        if (calls is not None and len(records) >= calls) or (seconds is not None and elapsed >= seconds):
            return Pass(records, elapsed, messages)


def judge(workload, outputs, mismatched, records):
    """Gate every distinct input; count failed operations by (tag, kind)."""
    verdicts = {key: workload.gate(key, out) for key, out in outputs.items()}
    for key in mismatched:
        verdicts[key].failure = "gate_violated"  # equal inputs gave unequal outputs
    failed = Counter()
    for r in records:
        if r.error is not None:
            failed[(r.tag, r.error)] += workload.units
            continue
        v = verdicts[r.key]
        if v.failure is not None:
            failed[(r.tag, v.failure)] += v.failed_units or workload.units
    return verdicts, failed


def measure_setup(args) -> tuple[float, float]:
    """Set-up seconds in a fresh process and its reference-loop time right after.

    Set-up runs from the first line of this script, before numpy loads, to
    the end of the first warm call.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=True)
    setup, ref = done.stdout.split()[-2:]
    return float(setup), float(ref)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')}-{blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} blas={blas} "
            f"commit={commit()}")


def _per(x, n):
    if x is None:
        return None
    return x / n if n else 0.0


def layer_metrics(workload, tracer, records, verdicts, failed, overhead) -> dict:
    """Per-layer readings per end-to-end operation (per step for simulate)."""
    from tracer import BODY_METHODS

    units = len(records) * workload.units
    tag_units = Counter()
    for r in records:
        tag_units[r.tag] += workload.units
    body_spans = [f"bodies.{m}" for m in BODY_METHODS]
    m = {f"bodies.{name}.calls": _per(tracer.count(f"bodies.{name}"), units)
         for name in BODY_METHODS}

    body_calls = [tracer.count(s) for s in body_spans]
    sweeps = [tracer.count("dynamics.chain_dynamics", {tag}) for tag in tag_units]
    if None in body_calls or None in sweeps:
        m["bodies.evals_per_body_sweep"] = None
    else:
        body_sweeps = sum(s * workload.n_bodies(tag) for s, tag in zip(sweeps, tag_units))
        m["bodies.evals_per_body_sweep"] = _per(sum(body_calls), body_sweeps)
    m["bodies.self_ms"] = _per(tracer.self_ms(body_spans), units)
    for f in FIXTURES:
        m[f"bodies.self_ms.{f}"] = _per(tracer.self_ms(body_spans, {f}), tag_units[f])

    def calls(span):
        return _per(tracer.count(span), units)

    def self_ms(span):
        return _per(tracer.self_ms([span]), units)

    m["kinematics.forward_pass.self_ms"] = self_ms("kinematics.forward_pass")
    for span in ("kinematics.link_jacobians", "kinematics.contact_frame_data",
                 "kinematics.framed_jacobian"):
        m[f"{span}.calls"] = calls(span)
    m["integrals.body_integrals.calls"] = calls("integrals.body_integrals")
    m["integrals.body_integrals.self_ms"] = self_ms("integrals.body_integrals")
    m["dynamics.chain_dynamics.calls"] = calls("dynamics.chain_dynamics")
    for span in ("dynamics.chain_dynamics", "dynamics.inertial_terms", "dynamics.stress_terms",
                 "dynamics.backward_recursion", "dynamics.mass_matrix"):
        m[f"{span}.self_ms"] = self_ms(span)
    m["harness.force_jacobians.calls"] = calls("harness.force_jacobians")
    m["harness.force_jacobians.self_ms"] = self_ms("harness.force_jacobians")
    m["harness.solve_spd.calls"] = calls("harness.solve_spd")
    m["harness.solve_spd.self_ms"] = self_ms("harness.solve_spd")
    m["harness.solve_spd.failures"] = _per(tracer.failures("harness.solve_spd"), units)
    iterations = sum(verdicts[r.key].values.get("iterations", 0)
                     for r in records if r.key in verdicts)
    m["harness.statics.iterations"] = _per(iterations, units)
    m["harness.statics.residual_evals"] = calls("harness.inverse_dynamics")
    m["harness.statics.self_ms"] = self_ms("harness.statics")
    m["actuation.matrix.calls"] = calls("actuation.matrix")
    m["actuation.matrix.self_ms"] = self_ms("actuation.matrix")
    m["oracle.oracle_kane.self_ms"] = _per(workload.oracle_ns / 1e6, workload.oracle_calls)
    m.update(gate_readings(verdicts))
    for kind in FAILURE_KINDS:
        m[f"gates.failures.{kind}"] = sum(n for (_, k), n in failed.items() if k == kind)
    m["trace.overhead_ratio"] = overhead
    return m


def worst(verdicts, name):
    return max((v.values[name] for v in verdicts.values() if name in v.values), default=0.0)


def gate_readings(verdicts) -> dict:
    return {
        "gates.oracle_rel_err_max": worst(verdicts, "oracle_rel_err"),
        "gates.mass_consistency_max": worst(verdicts, "mass_consistency"),
        "gates.sim_energy_rises": worst(verdicts, "energy_rises"),
    }


def report_gates(workload, verdicts, failed, messages, attempted):
    import workloads as wl

    print(f"gates: {len(verdicts)} distinct inputs gated")
    for name, tol in (("oracle_rel_err", wl.TOL_ORACLE), ("mass_consistency", wl.TOL_MASS),
                      ("statics_residual", wl.TOL_STATICS)):
        if any(name in v.values for v in verdicts.values()):
            print(f"  {name}_max {worst(verdicts, name):.3e} (tol {tol:.0e})")
    if any("energy_rises" in v.values for v in verdicts.values()):
        print(f"  sim_energy_rises {worst(verdicts, 'energy_rises')} of {workload.units} "
              f"steps per call ({wl.ENERGY_NOTE})")
    total = sum(failed.values())
    print(f"failed_fraction {total}/{attempted} = {total / attempted:.4f}")
    for (tag, kind), n in sorted(failed.items()):
        print(f"  failures {tag} {kind}: {n}")
        if (tag, kind) in messages:
            print(f"    first: {messages[(tag, kind)][:200]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "softid" / "__init__.py").is_file() or not (ROOT / "models").is_dir():
        print(f"bench: no softid sources (src/softid, models/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl  # numpy and softid load here

    if args.workload not in wl.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        wl.WORKLOADS[args.workload](ROOT, args.seed)
        setup = time.perf_counter() - _T0
        t0 = time.perf_counter()
        for _ in range(SETUP_REF_LOOPS):
            wl.reference_loop()
        print(setup, (time.perf_counter() - t0) / SETUP_REF_LOOPS)
        return 0

    setups = [measure_setup(args) for _ in range(SETUP_REPEATS)]
    workload = wl.WORKLOADS[args.workload](ROOT, args.seed)
    print(f"softid benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {environment()}")
    print(f"why: {workload.why}")
    print(f"setup seconds per run: {', '.join(f'{s:.4f}' for s, _ in setups)}")
    outputs, mismatched = {}, set()

    if args.trace:
        from tracer import Tracer

        # traced, plain, plain, traced: a linear drift of host speed cancels
        # in the overhead, and the traced call sequence is the same every run
        tracer, traced, plain = Tracer(), [], []
        for use_tracer in (True, False, False, True):
            if use_tracer:
                with tracer:
                    traced.append(run_pass(workload, outputs, mismatched,
                                           calls=workload.trace_calls, tracer=tracer))
            else:
                plain.append(run_pass(workload, outputs, mismatched, calls=workload.trace_calls))
        run = Pass([r for p in traced for r in p.records], sum(p.seconds for p in traced),
                   {k: v for p in traced for k, v in p.messages.items()})
        plain_seconds = sum(p.seconds for p in plain)
        # in reference-loop units, like the gated latency, so host drift cancels
        overhead = (workload.latency_ref(run.records)
                    / workload.latency_ref([r for p in plain for r in p.records]))
    else:
        run = run_pass(workload, outputs, mismatched, seconds=args.seconds)
        rss = peak_rss_mb()

    attempted = len(run.records) * workload.units
    verdicts, failed = judge(workload, outputs, mismatched, run.records)
    n_failed = sum(failed.values())
    correct = not any(v.failure == "gate_violated" for v in verdicts.values())

    if args.trace:
        values = layer_metrics(workload, tracer, run.records, verdicts, failed, overhead)
        units = dict(PER_LAYER)
        print(f"traced calls {len(run.records)} ({attempted} operations) in two passes: traced "
              f"{run.seconds:.3f} s, plain {plain_seconds:.3f} s, "
              f"tracing overhead {100 * (overhead - 1):+.1f}%")
        if tracer.missing:
            print(f"spans not found (reported as null): {', '.join(sorted(tracer.missing))}")
        for name, unit in PER_LAYER:
            value = values[name]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {name:<40} {shown:>14} {unit}")
    else:
        values = {
            # scaled to a host on which one reference loop takes REF_NOMINAL_S
            "setup_s": statistics.median(s / ref for s, ref in setups) * REF_NOMINAL_S,
            "peak_rss_mb": rss,
            "op_latency_ref": workload.latency_ref(run.records),
        }
        units = dict(E2E)
        print(f"calls {len(run.records)} ({attempted} operations) in {run.seconds:.3f} s")
        for name, unit in E2E:
            print(f"  {name:<14} {values[name]!s:>22} {unit}")
        if values["op_latency_ref"] is not None:
            # throughput over time spent in softid calls: the reference loops
            # between calls belong to the benchmark, not to the closed loop
            workload.report(run.records, attempted / sum(r.seconds for r in run.records))
    report_gates(workload, verdicts, failed, run.messages, attempted)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
