"""Command-line front end.

Grammar: ``softid <validate|eval|verify|simulate|statics|benchmark> [flags] MODEL.json``.

Exit codes: 0 success, 2 validation failure, 3 numerical verification
failure, 4 non-convergence.  All randomness is seeded through ``--seed``
(``verify`` and ``benchmark``, the commands that sample); configuration comes
from explicit flags only, and each command accepts only the flags it reads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import astuple, fields

import numpy as np

from . import model_io
from .dynamics import DynamicsResult, iid, inverse_dynamics, mid, miid
from .errors import SoftIDError
from .harness import BenchmarkRow, benchmark_scaling, simulate, solve_statics
from .verify import run_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGENCE = 4

VERIFY_MAX_DOF = 24
BENCHMARK_MIN_TRIALS = 10  # benchmark_scaling's minimum
ALGORITHMS = {"iid": iid, "id": inverse_dynamics, "miid": miid, "mid": mid}


def _at_least(convert, low, *, strict=False):
    """argparse type: ``convert(text)``, finite and >= low (> low if strict)."""
    def parse(text):
        value = convert(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {'>' if strict else '>='} {low}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its messages
    return parse


_positive_int = _at_least(int, 1)
_positive_float = _at_least(float, 0.0, strict=True)


def _sizes(text):
    """argparse type: comma-separated positive body counts."""
    try:
        return [_positive_int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated body counts, got {text!r}") from None


def _document(args):
    """The model document, with ``--quadrature-order`` written into every body."""
    doc = model_io.load_document(args.model)
    order = args.quadrature_order
    if order is not None and isinstance(doc, dict):
        for link in doc.get("links") or ():
            if isinstance(link, dict) and isinstance(link.get("body"), dict):
                link["body"]["quadrature_order"] = order[0] if len(order) == 1 else order
    return doc


def _load_model(args):
    return model_io.parse_chain(_document(args))


def _load_state(path, n):
    """(q, qd, qdd) from a JSON object whose present fields are arrays of n
    finite numbers; an absent field is zeros.  Anything else is a ModelError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise model_io.ModelError(f"state file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise model_io.ModelError("state file must hold a JSON object with q, qd, qdd arrays")
    out = []
    for key in ("q", "qd", "qdd"):
        v = doc.get(key, [0.0] * n)
        try:
            ok = (isinstance(v, list) and len(v) == n and not any(isinstance(x, bool) for x in v)
                  and all(math.isfinite(x) for x in v))
        except (TypeError, OverflowError):  # not a number, or an integer beyond float range
            ok = False
        if not ok:
            raise model_io.ModelError(f"state field {key!r} must be an array of {n} finite numbers")
        out.append(np.array(v, dtype=float))
    return out


def _write_json(path, payload):
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_validate(args) -> int:
    doc = _document(args)
    findings = model_io.validate_document(doc)
    if findings:
        for line in findings:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    chain = model_io.parse_chain(doc)
    print(model_io.summarize(chain))
    return EXIT_OK


def cmd_eval(args) -> int:
    chain = _load_model(args)
    q, qd, qdd = _load_state(args.state, chain.n)
    t0 = time.perf_counter()
    res = ALGORITHMS[args.algorithm](chain, q, qd, qdd)
    elapsed = time.perf_counter() - t0
    force, mass = (res.force, res.mass) if isinstance(res, DynamicsResult) else (res, None)
    payload = {
        "model": str(args.model),
        "algorithm": args.algorithm,
        "q": q.tolist(), "qd": qd.tolist(), "qdd": qdd.tolist(),
        "force": force.tolist(),
        "elapsed_seconds": elapsed,
    }
    if mass is not None:
        payload["mass_matrix"] = mass.tolist()
    _write_json(args.output, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    chain = _load_model(args)
    if chain.n > VERIFY_MAX_DOF:
        print(f"error: verify is limited to n <= {VERIFY_MAX_DOF} dof "
              f"(oracle cost); model has n = {chain.n}", file=sys.stderr)
        return EXIT_VALIDATION
    results = run_suite(chain, trials=args.trials, seed=args.seed)
    failed = False
    for r in results:
        print(r)
        failed |= not r.passed
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_simulate(args) -> int:
    chain = _load_model(args)
    q0 = qd0 = np.zeros(chain.n)
    if args.state is not None:
        q0, qd0, _ = _load_state(args.state, chain.n)
    traj = simulate(chain, q0, qd0, t_end=args.t_end, dt=args.dt, method=args.method)
    n = chain.n
    header = (["t"] + [f"q{i}" for i in range(n)] + [f"qd{i}" for i in range(n)]
              + ["kinetic", "potential", "dissipated"])
    rows = np.column_stack([traj.t, traj.q, traj.qd, traj.kinetic, traj.potential, traj.dissipated])
    _write_csv(args.output, header, rows)
    if traj.aborted_at is not None:
        print(f"error: simulation aborted at step {traj.aborted_at}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_statics(args) -> int:
    chain = _load_model(args)
    q_guess = np.zeros(chain.n) if args.state is None else _load_state(args.state, chain.n)[0]
    res = solve_statics(chain, q_guess=q_guess, tol=args.tol)
    payload = {
        "model": str(args.model),
        "q_eq": res.q.tolist(),
        "converged": res.converged,
        "residual_norm": res.residual_norm,
        "iterations": res.iterations,
    }
    _write_json(args.output, payload)
    return EXIT_OK if res.converged else EXIT_NONCONVERGENCE


def cmd_benchmark(args) -> int:
    rows = benchmark_scaling(args.sizes, trials=args.trials, seed=args.seed)
    header = [f.name for f in fields(BenchmarkRow)]
    _write_csv(args.output, header, np.asarray([astuple(r) for r in rows], dtype=float))
    return EXIT_OK


def _write_csv(path, header, rows):
    fh = sys.stdout if path is None else open(path, "w", newline="")
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.atleast_2d(rows):
            writer.writerow([repr(float(v)) for v in row])
    finally:
        if path is not None:
            fh.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softid",
        description="Recursive inverse dynamics for serial soft-rigid chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *, model=True, seed=False, output=False):
        p = sub.add_parser(name, help=summary)
        if model:
            p.add_argument("model", help="chain description JSON file")
            p.add_argument("--quadrature-order", type=int, nargs="+", default=None,
                           metavar="N", help="override per-body quadrature order (1 or 3 values)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed for sampled states")
        if output:
            p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "parse a model file and check its invariants")

    p = command("eval", cmd_eval, "evaluate one algorithm at a state", output=True)
    p.add_argument("--algorithm", choices=tuple(ALGORITHMS), required=True)
    p.add_argument("--state", required=True, help="JSON file with q, qd, qdd arrays")

    p = command("verify", cmd_verify, "run the numerical verification suite", seed=True)
    p.add_argument("--trials", type=_positive_int, default=20)

    p = command("simulate", cmd_simulate, "integrate free evolution and export CSV", output=True)
    p.add_argument("--state", default=None, help="JSON file with initial q, qd")
    p.add_argument("--t-end", type=_at_least(float, 0.0), default=1.0)
    p.add_argument("--dt", type=_positive_float, default=1e-3)
    p.add_argument("--method", choices=("rk4", "semi_implicit"), default="rk4")

    p = command("statics", cmd_statics, "solve the unactuated equilibrium", output=True)
    p.add_argument("--state", default=None, help="JSON file with the initial guess q")
    p.add_argument("--tol", type=_positive_float, default=1e-8)

    p = command("benchmark", cmd_benchmark, "scaling benchmark over planar chains",
                model=False, seed=True, output=True)
    p.add_argument("--sizes", type=_sizes, default=[2, 4, 8], help="comma-separated body counts")
    p.add_argument("--trials", type=_at_least(int, BENCHMARK_MIN_TRIALS), default=10)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except model_io.ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SoftIDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
