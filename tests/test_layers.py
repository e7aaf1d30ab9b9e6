"""Import layering of the package, read from its source with ``ast``.

- Every import of a softid module sits at module level, so the import graph
  is the one a reader sees at the top of each file (no hidden cycles).
- The body-model library (``softid/bodies``) depends on nothing of the
  package but the quadrature rules, the spatial algebra and the errors.
- No reuse is keyed on object identity or bytes: the package calls neither
  ``.tobytes()`` nor the builtin ``id()``, so what a computation reuses is
  passed to it explicitly.
- No ``einsum``: every contraction outside the oracle is a BLAS product of
  a row's own matrices or an elementwise multiply-add over the 3-axis; the
  oracle keeps its einsums as the independent reference.
- No control flow rests on ``assert``: the package has no assert statement,
  so every check also holds under ``python -O``.
- The actuation maps only read the links' stages: ``actuation.py`` calls
  none of the body-evaluation methods (``place``, ``evaluate``, ``solve``,
  ``position``, ``jac_q``), so a map adds no solve to the one of a stage.
- One central-difference quotient: a subtraction divided by ``2.0 * ...``
  appears once in the package (``bodies.base.central_difference``), so the
  body-model defaults, among them the default Jacobian rate, the K/D refresh
  and the statics Jacobian share one stencil that can be swapped in one
  place.
- The runtime needs numpy alone: every import in the package resolves to
  the standard library (``sys.stdlib_module_names``), ``numpy`` or the
  package itself.
- The oracle stays independent of the recursion it checks: from the package
  it imports only the chain and its walk (``ChainModel``,
  ``forward_kinematics``) and the shared constitutive law (``_div_green``),
  nothing that runs a sweep (``forward_pass``, ``link_stage(s)``,
  ``chain_dynamics``, ``iid``, ...).
- One body solve per stage group: a full sweep calls ``BodyModel.solve``
  once for all the links that share a body model, so once per distinct
  non-rigid body document of a chain, besides the solves of material
  derivatives that difference the position map (a count, which host load
  does not move).
- One array sweep over the links: an ``iid`` or ``mid`` on the planar PCC
  chain calls ``spatial.cross`` as often at 32 bodies as at 8, so no
  per-link term is taken link by link (a count, which host load does not
  move).
- Jacobian rates from the body model: a moving ``iid`` evaluates the
  position map of every bundled body at its state rows alone, none at
  q +- h u (a count of rows, which host load does not move), and the stage
  differences nothing: ``central_difference`` is defined in
  ``bodies/base.py`` and called only there and in the harness (K/D,
  statics), ``JAC_RATE_STEP`` exists only in ``bodies/base.py``, and the
  sweep's modules import neither.
- One stage record per sweep: the stages that ``chain_dynamics`` hands to
  ``forward_pass`` are one ``LinkStage`` on the link axis, built from one
  record per stage group, and no record is built per link; the K/D refresh
  adds one group record per link it stages again.
"""

import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from softid import dynamics, presets, spatial
from softid.bodies import BodyModel
from softid.dynamics import chain_dynamics, iid, mid
from softid.harness import _force_jacobians
from softid.kinematics import LinkStage
from softid.model_io import load_chain

from conftest import in_domain

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "softid"
MODELS = PACKAGE.parent.parent / "models"
BODIES_MAY_IMPORT = {"quadrature", "spatial", "errors"}
ORACLE_MAY_IMPORT = {"kinematics": {"ChainModel", "forward_kinematics"}, "dynamics": {"_div_green"}}
BODY_EVALUATIONS = {"place", "evaluate", "solve", "position", "jac_q"}
RUNTIME_DEPENDENCIES = {"numpy", "softid"}


def _sources():
    return sorted(PACKAGE.rglob("*.py"))


def _package_imports(path: Path, node):
    """Modules of the package an import node depends on, dotted below ``softid``
    ("" for the package itself)."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        module = node.module or ""
        if node.level:
            here = ["softid", *path.relative_to(PACKAGE).parent.parts]
            module = ".".join(here[:len(here) - node.level + 1] + ([module] if module else []))
        # ``from softid import x`` and ``from . import x`` at the top name modules
        names = [f"{module}.{a.name}" for a in node.names] if module == "softid" else [module]
    return [n[len("softid."):] for n in names if n == "softid" or n.startswith("softid.")]


def _function_level_imports(tree):
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for node in ast.walk(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node


def test_package_imports_at_module_level():
    found = []
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _function_level_imports(tree):
            if _package_imports(path, node):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, f"imports of softid modules inside functions or classes: {found}"


def test_bodies_import_only_lower_layers():
    found = []
    for path in sorted((PACKAGE / "bodies").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for name in _package_imports(path, node):
                top = name.split(".")[0]
                if top != "bodies" and top not in BODIES_MAY_IMPORT:
                    found.append(f"{path.name}:{node.lineno} imports {name or 'softid'}")
    assert not found, f"bodies/ reaches above its layer: {found}"


def test_no_identity_or_bytes_keys():
    found = []
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "tobytes") or \
                    (isinstance(f, ast.Name) and f.id == "id"):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, f"calls of .tobytes() or id() in the package: {found}"


def test_no_einsum_in_the_package():
    found = []
    for path in _sources():
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "einsum") or \
                    (isinstance(node, ast.Name) and node.id == "einsum") or \
                    (isinstance(node, ast.alias) and node.name == "einsum"):
                found.append(f"{path.relative_to(PACKAGE)}:{getattr(node, 'lineno', '?')}")
    assert not found, f"einsum outside the oracle: {found}"


def test_package_imports_only_stdlib_and_numpy():
    found = []
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                tops = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            found += [f"{path.relative_to(PACKAGE)}:{node.lineno} imports {top}" for top in tops
                      if top not in sys.stdlib_module_names and top not in RUNTIME_DEPENDENCIES]
    assert not found, f"imports outside the standard library and numpy: {found}"


def test_oracle_imports_no_recursion():
    path = PACKAGE / "oracle.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for module in _package_imports(path, node):
            names = {a.name for a in node.names} if isinstance(node, ast.ImportFrom) else {"*"}
            extra = names - ORACLE_MAY_IMPORT.get(module, set())
            if extra:
                found.append(f"oracle.py:{node.lineno} imports {sorted(extra)} from {module or 'softid'}")
    assert not found, f"the oracle reaches into the recursion: {found}"


def test_actuation_maps_only_read_stages():
    path = PACKAGE / "actuation.py"
    found = [f"actuation.py:{node.lineno} calls .{node.func.attr}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in BODY_EVALUATIONS]
    assert not found, f"an actuation map evaluates a body itself: {found}"


def test_no_assert_statements():
    found = []
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package (stripped under python -O): {found}"


def _is_central_quotient(node):
    """``(a - b) / (2.0 * h)``: a subtraction divided by a product led by 2."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)
            and isinstance(node.right.left, ast.Constant) and node.right.left.value == 2)


def test_one_central_difference_quotient():
    found = []
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                  if _is_central_quotient(node)]
    assert len(found) == 1, f"central-difference quotients in the package: {found}"


def _names(tree, kind):
    """The names that ``tree`` defines (``def``), calls (``call``), imports with ``from`` (``import``)
    or reads or binds anywhere (``name``)."""
    for node in ast.walk(tree):
        if kind == "def" and isinstance(node, ast.FunctionDef):
            yield node.name
        elif kind == "call" and isinstance(node, ast.Call):
            f = node.func
            yield f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        elif kind == "import" and isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)
        elif kind == "name" and isinstance(node, (ast.Name, ast.Attribute)):
            yield node.id if isinstance(node, ast.Name) else node.attr


def test_the_stage_differences_nothing():
    # the one quotient is the body models' (their FD defaults and the default
    # Jacobian rate) and the harness's (K/D, statics); no layer of the sweep
    # differences, and the rate's step is the body models' alone
    found = {kind: {str(p.relative_to(PACKAGE)) for p in _sources()
                    if name in _names(ast.parse(p.read_text(), filename=str(p)), kind)}
             for kind, name in (("def", "central_difference"), ("call", "central_difference"),
                                ("name", "JAC_RATE_STEP"))}
    assert found == {"def": {"bodies/base.py"}, "call": {"bodies/base.py", "harness.py"}, "name": {"bodies/base.py"}}
    for module in ("kinematics.py", "dynamics.py", "bodies/integrals.py", "actuation.py"):
        imported = set(_names(ast.parse((PACKAGE / module).read_text()), "import"))
        assert not imported & {"central_difference", "JAC_RATE_STEP"}, module


def _count_solves(monkeypatch):
    """The models of the ``BodyModel.solve`` calls from now on, one per call."""
    calls = []
    classes = [BodyModel]
    for cls in classes:
        classes += cls.__subclasses__()
        if "solve" in vars(cls):
            def counted(self, x, q, qd=None, _original=vars(cls)["solve"]):
                calls.append(self)
                return _original(self, x, q, qd)
            monkeypatch.setattr(cls, "solve", counted)
    return calls


@pytest.mark.parametrize("n_bodies", [2, 8, 32])
def test_iid_solves_the_planar_chain_once(monkeypatch, n_bodies):
    chain = presets.planar_pcc_chain(n_bodies, quadrature_order=(2, 8, 6))
    q, qd, qdd = np.random.default_rng(n_bodies).uniform(-0.5, 0.5, (3, chain.n))
    calls = _count_solves(monkeypatch)
    iid(chain, q, qd, qdd)
    assert calls == [chain.links[0].body.model]


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.json")), ids=lambda p: p.stem)
def test_mid_solves_each_distinct_body_document_once(monkeypatch, path):
    # the variable-radius rod's material derivatives difference its position
    # map, which solves again: three more solves in its stress pass
    links = json.loads(path.read_text())["links"]
    distinct = {json.dumps(ld["body"], sort_keys=True): 4 if ld["body"]["kind"] == "pcc_variable_radius" else 1
                for ld in links if ld["body"]["kind"] != "rigid"}
    chain = load_chain(path)
    rng = np.random.default_rng(0)
    q = rng.uniform(-0.3, 0.3, chain.n)
    while not in_domain(chain, q):
        q = rng.uniform(-0.3, 0.3, chain.n)
    calls = _count_solves(monkeypatch)
    mid(chain, q, rng.uniform(-1.0, 1.0, chain.n), rng.uniform(-1.0, 1.0, chain.n))
    assert len(calls) == sum(distinct.values())


def _count_position_rows(monkeypatch):
    """The number of configurations of each ``BodyModel.position`` call from now on."""
    rows = []
    classes = [BodyModel]
    for cls in classes:
        classes += cls.__subclasses__()
        if "position" in vars(cls):
            def counted(self, x, q, sol=None, _original=vars(cls)["position"]):
                rows.append(len(q))
                return _original(self, x, q, sol)
            monkeypatch.setattr(cls, "position", counted)
    return rows


@pytest.mark.parametrize("name", ["planar_8", "rigid_2r", "pcs_2", "pac_1", "pgc_2", "lvp_1", "variable_radius_3"])
def test_moving_iid_positions_only_the_state_rows(monkeypatch, name):
    chain = presets.planar_pcc_chain(8, quadrature_order=(2, 8, 6)) if name == "planar_8" else \
        load_chain(MODELS / f"{name}.json")
    soft = sum(lk.body.rigid is None for lk in chain.links)  # a rigid handle's evaluation is its own
    rng = np.random.default_rng(9)
    rows = _count_position_rows(monkeypatch)
    for b in (None, 3):
        q, qd, qdd = rng.uniform(-0.5, 0.5, (3, chain.n) if b is None else (3, b, chain.n))
        rows.clear()
        iid(chain, q, qd, qdd)
        assert sum(rows) == soft * (b or 1), (b, rows)


def _count_cross(monkeypatch):
    """One entry per call of ``spatial.cross`` from now on, from every
    module of the package that imported it."""
    calls, original = [], spatial.cross
    modules = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "softid" and getattr(m, "cross", None) is original]
    for module in modules:
        monkeypatch.setattr(module, "cross", lambda a, b: calls.append(1) or original(a, b))
    return calls


@pytest.mark.parametrize("algorithm", [iid, mid])
def test_cross_products_do_not_grow_with_the_chain(monkeypatch, algorithm):
    calls, counts = _count_cross(monkeypatch), {}
    for n_bodies in (8, 32):
        chain = presets.planar_pcc_chain(n_bodies, quadrature_order=(2, 8, 6))
        q, qd, qdd = np.random.default_rng(n_bodies).uniform(-0.5, 0.5, (3, chain.n))
        calls.clear()
        algorithm(chain, q, qd, qdd)
        counts[n_bodies] = len(calls)
    assert counts[8] == counts[32] > 0, counts


def _count_records(monkeypatch):
    """From now on: every ``LinkStage`` its constructor builds, the groups
    that ``dynamics`` stages (``link_stage``) and the stages each
    ``forward_pass`` of ``chain_dynamics`` reads."""
    built, staged, swept = [], [], []
    new, stage, sweep = LinkStage.__new__, dynamics.link_stage, dynamics.forward_pass
    monkeypatch.setattr(LinkStage, "__new__", lambda cls, *args, **kw: built.append(1) or new(cls, *args, **kw))
    monkeypatch.setattr(dynamics, "link_stage", lambda *args: staged.append(args[1]) or stage(*args))
    monkeypatch.setattr(dynamics, "forward_pass", lambda *args: swept.append(args[5]) or sweep(*args))
    return built, staged, swept


# chains and their stage groups: the planar rods share one body, the two cones of pgc_2 are groups of one
RECORD_CHAINS = {"planar_8": (lambda: presets.planar_pcc_chain(8, quadrature_order=(2, 8, 6)), 1),
                 "planar_32": (lambda: presets.planar_pcc_chain(32, quadrature_order=(2, 8, 6)), 1),
                 "pgc_2": (lambda: load_chain(MODELS / "pgc_2.json"), 2)}


@pytest.mark.parametrize("name", sorted(RECORD_CHAINS))
def test_one_stage_record_per_sweep(monkeypatch, name):
    make, groups = RECORD_CHAINS[name]
    chain = make()
    q, qd, qdd = np.random.default_rng(len(chain)).uniform(-0.3, 0.3, (3, chain.n))
    built, staged, swept = _count_records(monkeypatch)
    mid(chain, q, qd, qdd)
    (stages,) = swept
    assert isinstance(stages, LinkStage) and stages.R_rel.shape == (len(chain), 3, 3)
    assert staged == list(chain.groups) and len(staged) == groups
    assert len(built) == groups + 1  # each group's record and the sweep's


@pytest.mark.parametrize("name", ["pgc_2", "planar_8"])
def test_force_jacobians_stage_one_group_record_per_link(monkeypatch, name):
    chain = RECORD_CHAINS[name][0]()
    q, qd = np.random.default_rng(len(chain)).uniform(-0.3, 0.3, (2, chain.n))
    base = chain_dynamics(chain, q, qd, None, mass=True).cache.stages
    built, staged, swept = _count_records(monkeypatch)
    _force_jacobians(chain, q, qd, base)
    assert staged == [(i,) for i in range(len(chain))]
    assert all(isinstance(st, LinkStage) and st.R_rel.shape[:2] == (len(chain), 4 * chain.links[i].n_dof)
               for i, st in enumerate(swept))
    assert len(built) == 2 * len(chain)  # per link its group of one and the sweep's record
