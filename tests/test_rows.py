"""The leading configuration axis of the body map, the link stager and the
sweep.

A stack of configurations is solved, staged and swept in one call, and row r
of every result is, bitwise, the value at that configuration alone: the K/D
refresh and the statics Jacobian sweep all column points of a link together
and must equal full sweeps, and the links of a stage group are the blocks
of rows of one stack, each bitwise the link staged alone.
"""

import copy
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from softid.actuation import ChamberActuation
from softid.bodies import BodyModel
from softid import presets
from softid.dynamics import chain_dynamics, iid, inverse_dynamics, link_stages
from softid.errors import BodyDomainError, CentroidConsistencyError, DegenerateContactError
from softid.harness import _equilibrium, _statics_jacobian
from softid.kinematics import BodyHandle, ChainModel, Link, fixed_joint, forward_pass
from softid.model_io import load_chain
from softid.quadrature import ReferenceDomain

from conftest import central_difference, in_domain, ref_link_rates, stage_alone
from test_harness import FD_CHAINS, fd_state, statics_case, three_tendons

MODELS = Path(__file__).resolve().parent.parent / "models"
# one bundled model per body kind
KINDS = {
    "rigid": "rigid_2r",
    "pcc": "pcc_2",
    "pcs": "pcs_2",
    "pac": "pac_1",
    "pgc": "pgc_2",
    "lvp": "lvp_1",
    "variable_radius": "variable_radius_3",
}
ROWS = (1, 3, 12)


def chain_of(kind):
    return load_chain(MODELS / f"{KINDS[kind]}.json")


def stacked_states(chain, b, seed):
    """b in-domain states; every other row at rest."""
    rng = np.random.default_rng(seed)
    q = []
    while len(q) < b:
        row = rng.uniform(-0.6, 0.6, chain.n)
        if in_domain(chain, row):
            q.append(row)
    qd = rng.uniform(-2.0, 2.0, (b, chain.n))
    qd[1::2] = 0.0
    return np.array(q), qd, rng.uniform(-5.0, 5.0, (b, chain.n))


def arrays(value):
    """Every array of a (nested) stage or evaluation record, in order."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in arrays(v)]
    if hasattr(value, "__dataclass_fields__"):
        return [a for name in value.__dataclass_fields__ for a in arrays(getattr(value, name))]
    return []


def same(a, b):
    xs, ys = arrays(a), arrays(b)
    return len(xs) == len(ys) and all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(xs, ys))


@pytest.mark.parametrize("b", ROWS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_body_map_rows_equal_single_rows(kind, b):
    chain = chain_of(kind)
    q, _, _ = stacked_states(chain, b, seed=b)
    for i, lk in enumerate(chain.links):
        handle, model = lk.body, lk.body.model
        qb = q[:, chain.slice(i)][:, lk.joint.n_dof:]
        x = handle.points
        sol = model.solve(x, qb)
        f, jq = model.position(x, qb, sol), model.jac_q(x, qb, sol)
        ev = handle.evaluate(qb)
        assert f.shape == (b,) + x.shape and jq.shape == (b,) + x.shape + (model.n_dof,)
        for r in range(b):
            one = qb[r:r + 1]
            alone = model.solve(x, one)
            assert sol is None and alone is None or same([a[r] for a in sol], [a[0] for a in alone])
            assert np.array_equal(f[r], model.position(x, one)[0])
            assert np.array_equal(jq[r], model.jac_q(x, one)[0])
            assert same(ev.take(r), handle.evaluate(one).take(0))
        # the material derivatives at the nodes (steps in x would leave the
        # domain at the end-face anchors), from the stacked solve there
        nodes = model.nodes()[0]
        sol = model.solve(nodes, qb)
        for name, trailing in (("jac_x", (3, 3)), ("jac_x_dq", (3, 3, model.n_dof)), ("hess_x", (3, 3, 3))):
            method = getattr(model, name)
            stacked = method(nodes, qb, sol)
            assert stacked.shape == (b, nodes.shape[0]) + trailing, name
            for r in range(b):
                one = qb[r:r + 1]
                assert np.array_equal(stacked[r], method(nodes, one, model.solve(nodes, one))[0]), (name, r)


def stage_row(st, r):
    """Row r of a stacked stage (a rigid body's integrals have no rows; the
    mass and the nodes are shared by the rows of a stack)."""
    data = st.data
    if data.p_com.ndim > 1:
        shared = ("mass", "nodes", "weights_mass", "ev")
        data = replace(data, ev=data.ev.take(r),
                       **{f.name: getattr(data, f.name)[r] for f in fields(data) if f.name not in shared})
    stress = None if st.stress is None else tuple(tuple(a[r] for a in w) for w in st.stress)
    return st._replace(R_rel=st.R_rel[r], t_rel=st.t_rel[r], Jt=st.Jt[r], Jw=st.Jw[r],
                       Jt_dot=st.Jt_dot[r], Jw_dot=st.Jw_dot[r], data=data, stress=stress)


@pytest.mark.parametrize("b", ROWS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_stage_rows_equal_states_staged_alone(kind, b):
    chain = chain_of(kind)
    q, qd, qdd = stacked_states(chain, b, seed=10 + b)
    for i in range(len(chain)):
        stage = stage_alone(chain, i, q, qd, qdd)
        assert stage.R_rel.shape == (b, 3, 3)
        for r in range(b):
            alone = stage_alone(chain, i, q[r], qd[r], qdd[r])
            assert alone.R_rel.shape == (1, 3, 3)  # one state, one row
            assert same(stage_row(stage, r), stage_row(alone, 0)), (i, r)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_rates_match_the_difference_along_u(kind):
    # a stack whose odd rows rest, and one moving state: the exact rates (the
    # strain rods) and the default's differenced ones (LVP) within 1e-8 of the largest
    # entry of the stencil's: of the link's twist rate (Jt_dot, Jw_dot)
    # together, whose angular part is zero on the variable-radius rod, and of
    # the node Jacobian's rate; exactly zero at rest
    chain = chain_of(kind)
    q, qd, qdd = stacked_states(chain, 4, seed=70)
    for i, lk in enumerate(chain.links):
        nj = lk.joint.n_dof
        for rows in (slice(None), slice(0, 1)):
            qs, vs = q[rows], qd[rows]
            stage = stage_alone(chain, i, qs, vs, qdd[rows])
            jac_dot = lk.body.evaluate(qs[:, chain.slice(i)][:, nj:], None, vs[:, chain.slice(i)][:, nj:]).jac_dot
            Jt_dot, Jw_dot, node = ref_link_rates(chain, i, qs, vs)
            twist = max(np.abs(Jt_dot).max(), np.abs(Jw_dot).max())
            for got, ref, scale, what in ((stage.Jt_dot, Jt_dot, twist, "Jt_dot"), (stage.Jw_dot, Jw_dot, twist, "Jw_dot"),
                                          (jac_dot, node, np.abs(node).max(initial=0.0), "node Jacobian")):
                assert got.shape == ref.shape, (i, what)
                assert np.abs(got - ref).max(initial=0.0) <= 1e-8 * scale, (i, what)
                assert not got[1::2].any(), (i, what)  # rows at rest


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_rates_are_exact_and_leave_the_values_alone(kind):
    # a stack whose odd rows rest: the solve at the velocities has the
    # layout of the one without, and the same position and Jacobian,
    # bitwise; the s-varying and the variable-radius rods' rates match a
    # fourth-order difference of jac_q along qd (error ~1e-12), which the
    # along-u test's 1e-8 cannot tell from the stencil they replace, also
    # from a solution without the velocities
    chain = chain_of(kind)
    q, qd, _ = stacked_states(chain, 4, seed=80)
    for i, lk in enumerate(chain.links):
        model, x, cols = lk.body.model, lk.body.points, chain.slice(i)
        qb, vb = q[:, cols][:, lk.joint.n_dof:], qd[:, cols][:, lk.joint.n_dof:]
        moving, rest = model.solve(x, qb, vb), model.solve(x, qb)
        assert moving is None and rest is None or [a.shape for a in moving] == [a.shape for a in rest], i
        assert np.array_equal(model.position(x, qb, moving), model.position(x, qb, rest)), i
        assert np.array_equal(model.jac_q(x, qb, moving), model.jac_q(x, qb, rest)), i
        if kind in ("pac", "pgc", "variable_radius"):
            h = 1e-3
            jq = [model.jac_q(x, qb + t * h * vb) for t in (2, 1, -1, -2)]
            ref = (-jq[0] + 8.0 * jq[1] - 8.0 * jq[2] + jq[3]) / (12.0 * h)
            rate = model.jac_q_rate(x, qb, vb, moving)
            assert np.abs(rate - ref).max() <= 1e-10 * np.abs(ref).max(), i
            assert not rate[1::2].any(), i  # rows at rest
            # a solution without the velocities holds no rates: it is solved again with them
            assert np.array_equal(model.jac_q_rate(x, qb, vb, rest), rate), i


def assert_terms_rows_equal_states_alone(chain, act, q):
    """Row r of each link's actuation terms, staged at rest over the stack q,
    is bitwise the terms of state r staged alone; returns the stacked terms."""
    b = len(q)
    rest = np.zeros_like(q)
    stacked = []
    for i in range(len(chain)):
        (terms,) = stage_alone(chain, i, q, rest, rest, act).actuation
        for r in range(b):
            (alone,) = stage_alone(chain, i, q[r], rest[r], rest[r], act).actuation
            # a joint transform that is the same for every row has an axis of 1
            rows = [np.broadcast_to(a, (b,) + a.shape[1:])[r, ...] for a in arrays(terms)]
            assert same(rows, alone), (i, r)
        stacked.append(terms)
    return stacked


@pytest.mark.parametrize("b", ROWS)
def test_chamber_stage_rows_equal_states_staged_alone(b):
    # a chamber on every body, and a second one on the middle body
    chain = chain_of("variable_radius")
    cavity = ReferenceDomain.cylinder(0.008, 0.2)
    act = ChamberActuation([(0, cavity), (1, cavity), (1, ReferenceDomain.cylinder(0.004, 0.1)),
                            (2, cavity)], quadrature_order=(2, 4, 3))
    q, _, _ = stacked_states(chain, b, seed=20 + b)
    stacked = assert_terms_rows_equal_states_alone(chain, act, q)
    assert [[v.shape for v, _ in terms] for terms in stacked] == [[(b,)], [(b,), (b,)], [(b,)]]


@pytest.mark.parametrize("b", ROWS)
def test_tendon_stage_rows_equal_states_staged_alone(b):
    chain = FD_CHAINS["pcc_3"]()
    q, _, _ = stacked_states(chain, b, seed=30 + b)
    stacked = assert_terms_rows_equal_states_alone(chain, three_tendons(chain), q)
    # each body carries one via point of each of the three tendons
    assert [terms[0].shape for terms in stacked] == [(b, 3, 3)] * len(chain)


def assert_grouped_stages_equal_links_alone(chain, q, qd, qdd, act=None):
    # link i's slot of the sweep's record and its per-link integrals, bitwise
    # as in the record whose slot i is link i staged alone, a group of one
    grouped = link_stages(chain, q, qd, qdd, actuation=act)
    for i in range(len(chain)):
        alone = link_stages(chain, q, qd, qdd, base=grouped, link=i, actuation=act)
        assert same(grouped[:-1], alone[:-1]), i
        assert same(*(forward_pass(chain, q, qd, qdd, stages=st)[i].data for st in (grouped, alone))), i


@pytest.mark.parametrize("b", ROWS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_grouped_stages_equal_links_staged_alone(kind, b):
    # moving (every other row at rest) and at rest, a stack and one state
    chain = chain_of(kind)
    q, qd, qdd = stacked_states(chain, b, seed=40 + b)
    for v in (qd, np.zeros_like(qd)):
        assert_grouped_stages_equal_links_alone(chain, q, v, qdd)
    assert_grouped_stages_equal_links_alone(chain, q[0], qd[0], qdd[0])


def test_grouped_stages_behind_joints_equal_links_staged_alone():
    # one rod handle behind a revolute and a prismatic joint, one group, one
    # link-Jacobian call: moving (every other row at rest) and at rest
    chain = FD_CHAINS["revolute_prismatic"]()
    assert len(chain.groups) == 1 and [lk.joint.kind for lk in chain.links] == ["revolute", "prismatic"]
    q, qd, qdd = stacked_states(chain, 3, seed=60)
    for v in (qd, np.zeros_like(qd)):
        assert_grouped_stages_equal_links_alone(chain, q, v, qdd)
    assert_grouped_stages_equal_links_alone(chain, q[0], qd[0], qdd[0])


@pytest.mark.parametrize("name", ["pcc_3", "revolute_prismatic"])
def test_grouped_actuation_terms_equal_links_staged_alone(name):
    # the tendons on every rod, the chambers behind a revolute and a prismatic joint
    chain, act, _ = statics_case(name)
    assert len(chain.groups) == 1
    q, _, _ = stacked_states(chain, 3, seed=50)
    rest = np.zeros_like(q)
    assert_grouped_stages_equal_links_alone(chain, q, rest, rest, act)
    assert_grouped_stages_equal_links_alone(chain, q[0], rest[0], rest[0], act)


def block_states(chain, q, qd, qdd, i, b, seed):
    """b in-domain states that differ from (q, qd, qdd) in link i's block
    only; the third is at rest in that block."""
    rng = np.random.default_rng(seed)
    sl = chain.slice(i)
    qs, vs, accs = (np.repeat(v[None], b, axis=0) for v in (q, qd, qdd))
    for r in range(b):
        while True:
            qs[r, sl] = q[sl] + rng.uniform(-0.05, 0.05, sl.stop - sl.start)
            if in_domain(chain, qs[r]):
                break
    vs[:, sl] += rng.uniform(-1.0, 1.0, (b, sl.stop - sl.start))
    vs[2, sl] = 0.0
    accs[:, sl] += rng.uniform(-3.0, 3.0, (b, sl.stop - sl.start))
    return qs, vs, accs


@pytest.mark.parametrize("name", sorted(FD_CHAINS))
def test_stacked_sweep_rows_equal_single_sweeps(name):
    # link i staged over a stack, every other link's stage taken from one
    # state, without a row axis or with a row axis of 1
    chain = FD_CHAINS[name]()
    q, qd = fd_state(chain, 6)
    qdd = np.random.default_rng(6).uniform(-3.0, 3.0, chain.n)
    base = link_stages(chain, q, qd, qdd)
    one_row = link_stages(chain, q[None], qd[None], qdd[None])
    assert base.R_rel.shape == (len(chain), 3, 3) and one_row.R_rel.shape == (len(chain), 1, 3, 3)
    for i in range(len(chain)):
        qs, vs, accs = block_states(chain, q, qd, qdd, i, 4, seed=i)
        for others in (base, one_row):
            stages = link_stages(chain, qs, vs, accs, base=others, link=i)
            res = chain_dynamics(chain, qs, vs, accs, mass=True, stages=stages)
            assert res.force.shape == (4, chain.n) and res.mass.shape == (4, chain.n, chain.n)
            for r in range(4):
                alone = chain_dynamics(chain, qs[r], vs[r], accs[r], mass=True)
                assert np.array_equal(res.force[r], alone.force), (i, r)
                assert np.array_equal(res.mass[r], alone.mass), (i, r)
                for key, value in alone.components.items():
                    assert np.array_equal(res.components[key][r], value), (i, r, key)


def test_statics_jacobian_retries_one_column_at_the_small_step():
    # body 1's first coordinate may grow by 5e-7 at most: of link 1's stack
    # only that column leaves the domain, and it alone takes the 1e-8 step
    chain = presets.pcc_chain(3, C=1e5, eta=0.1, order=(2, 6, 5))
    # link 1 gets a handle and a model of its own, so the cap reaches its rows alone
    links, lk = list(chain.links), chain.links[1]
    links[1] = Link(lk.joint, BodyHandle(copy.copy(lk.body.model), lk.body.x_j, lk.body.x_a, lk.body.x_b))
    chain = ChainModel(links, chain.gravity, chain.base)
    act = three_tendons(chain)
    u = np.array([1.0, 0.5, 0.2])
    q, _ = fd_state(chain, 7)
    k = chain.slice(1).start
    model = chain.links[1].body.model
    solve = model.solve

    def capped(x, qb, qdb=None):
        if np.any(qb[:, 0] > q[k] + 5e-7):
            raise BodyDomainError("curvature beyond the test cap")
        return solve(x, qb, qdb)

    model.solve = capped
    residual = _equilibrium(chain, act, u)
    _, base = residual(q)

    def full(qs):
        return inverse_dynamics(chain, qs, None, None) - act.matrix(chain, qs) @ u

    steps = 1e-6 * np.maximum(1.0, np.abs(q))
    steps[k] = 1e-8 * max(1.0, abs(q[k]))
    J = _statics_jacobian(chain, residual, q, base)
    assert np.array_equal(J, central_difference(full, q, steps))
    with pytest.raises(BodyDomainError):
        full(q + 1e-6 * max(1.0, abs(q[k])) * np.eye(chain.n)[k])


def test_out_of_domain_row_raises():
    # the second row bends the LVP body past its fold
    chain = chain_of("lvp")
    q, qd, qdd = stacked_states(chain, 3, seed=0)
    q[1] = [0.0, 3.0, 0.0]
    handle = chain.links[0].body
    for call in (lambda: handle.model.position(handle.points, q),
                 lambda: handle.model.jac_q(handle.points, q),
                 lambda: handle.evaluate(q),
                 lambda: stage_alone(chain, 0, q, qd, qdd)):
        with pytest.raises(BodyDomainError):
            call()


def test_out_of_domain_row_names_link_and_row():
    # the body map's error names the stack row, the stage the link
    chain = chain_of("lvp")
    q, qd, qdd = stacked_states(chain, 3, seed=0)
    q[1] = [0.0, 3.0, 0.0]
    handle = chain.links[0].body
    with pytest.raises(BodyDomainError) as raised:
        handle.model.position(handle.points, q)
    assert raised.value.row == 1
    with pytest.raises(BodyDomainError) as raised:
        stage_alone(chain, 0, q, qd, qdd)
    assert raised.value.row == 1
    assert "link 0" in str(raised.value) and "(row 1)" in str(raised.value)


@pytest.mark.parametrize("kind", sorted(set(KINDS) - {"rigid"}))
def test_non_finite_row_rejected(kind):
    handle = chain_of(kind).links[-1].body
    qb = np.zeros((3, handle.n_dof))
    qb[2, 0] = np.nan
    for call in (handle.model.position, handle.model.jac_q):
        with pytest.raises(ValueError, match="finite"):
            call(handle.points, qb)


class SqueezedSlab(BodyModel):
    """Black-box model: only a position map, which squeezes the plane x3 = 1
    onto a point as q -> 1, so the contact frame there collapses."""

    n_dof = 1
    rho = 1000.0

    def __init__(self):
        self.domain = ReferenceDomain.box([0.2, 0.2, 1.0])
        self.quadrature_order = (2, 2, 2)

    def position(self, x, q, sol=None):
        q = self.check_q(q)
        x = np.asarray(x, dtype=float)
        scale = 1.0 - q[:, None, :1] * x[None, :, 2:] ** 2  # (b, m, 1)
        out = np.repeat(x[None], q.shape[0], axis=0)
        out[..., :2] *= scale
        return out


def slab_handle():
    return BodyHandle(SqueezedSlab(), x_j=[0, 0, 1.0], x_a=[0.1, 0, 1.0], x_b=[0, 0.1, 1.0])


def test_finite_difference_jac_q_rows():
    handle = slab_handle()
    q = np.array([[0.1], [-0.4], [0.7]])
    jq = handle.model.jac_q(handle.points, q)
    x = handle.points
    exact = np.zeros((3,) + x.shape + (1,))
    exact[..., :2, 0] = -x[None, :, :2] * x[None, :, 2:] ** 2
    assert np.abs(jq - exact).max() < 1e-8
    for r in range(3):
        assert np.array_equal(jq[r], handle.model.jac_q(x, q[r:r + 1])[0])


def test_collapsed_row_raises_degenerate_contact():
    handle = slab_handle()
    handle.evaluate([[0.2], [0.5]])
    with pytest.raises(DegenerateContactError, match=r"\(row 1\)$") as raised:
        handle.evaluate([[0.2], [1.0], [0.5]])
    assert raised.value.row == 1


class CappedSlab(SqueezedSlab):
    """The slab, whose map has no value where q > 0.9, and whose Jacobian
    rate is ``BodyModel``'s default."""

    def position(self, x, q, sol=None):
        over = np.flatnonzero(self.check_q(q)[:, 0] > 0.9)
        if over.size:
            raise BodyDomainError("squeezed beyond the cap", int(over[0]))
        return super().position(x, q)


def test_collapsed_stage_row_names_the_link_and_the_state_row():
    # two links share the slab's handle, so one stage group stacks their rows
    handle = slab_handle()
    chain = ChainModel([(fixed_joint(), handle), (fixed_joint(), handle)])
    assert chain.groups == ((0, 1),)
    q = np.array([[0.2, 0.3], [0.1, 0.4], [0.5, 1.0]])
    with pytest.raises(DegenerateContactError, match=r"^link 1: .*\(row 2\)$") as raised:
        iid(chain, q, None, None)
    assert raised.value.row == 2
    with pytest.raises(DegenerateContactError, match=r"^link 1: ") as raised:
        iid(chain, q[2], None, None)
    assert raised.value.row is None  # one state has no rows to name
    # the standalone actuation map stages its own points and names the row too
    act = ChamberActuation([(1, ReferenceDomain.box([0.1, 0.1, 0.5]))], quadrature_order=(2, 2, 2))
    q[2, 1], q[1, 1] = 0.6, 1.0
    with pytest.raises(DegenerateContactError, match=r"^link 1: .*\(row 1\)$"):
        act.matrix(chain, q)
    # the default Jacobian differences the map at 2 n_dof steps per row and
    # names the row of q that a failing step belongs to
    handle = BodyHandle(CappedSlab(), x_j=[0, 0, 1.0], x_a=[0.1, 0, 1.0], x_b=[0, 0.1, 1.0])
    with pytest.raises(BodyDomainError, match=r"\(row 2\)$") as raised:
        handle.model.jac_q(handle.points, [[0.2], [0.3], [0.9 - 5e-8]])
    assert raised.value.row == 2
    # the default rate takes the Jacobian at q +- h u of the moving rows (no
    # contact frame is built there), where of the two moving state rows of
    # link 1 only the later one leaves the map's domain
    assert type(handle.model).jac_q_rate is BodyModel.jac_q_rate
    chain = ChainModel([(fixed_joint(), handle), (fixed_joint(), handle)])
    q = np.array([[0.2, 0.3], [0.1, 0.4], [0.5, 0.9 - 5e-7]])
    qd = np.zeros_like(q)
    qd[0, 1] = qd[2, 1] = 1.0
    iid(chain, q, None, None)
    with pytest.raises(BodyDomainError, match=r"^link 1: at q \+- h u: .*\(row 2\)$") as raised:
        iid(chain, q, qd, None)
    assert raised.value.row == 2


class NonFiniteSlab(SqueezedSlab):
    """The slab, whose map returns NaN where q > 0.8."""

    def position(self, x, q, sol=None):
        out = super().position(x, q)
        out[self.check_q(q)[:, 0] > 0.8] = np.nan
        return out


def test_centroid_failure_names_the_link_and_the_state_row():
    handle = BodyHandle(NonFiniteSlab(), x_j=[0, 0, 1.0], x_a=[0.1, 0, 1.0], x_b=[0, 0.1, 1.0])
    chain = ChainModel([(fixed_joint(), handle), (fixed_joint(), handle)])
    q = np.array([[0.2, 0.3], [0.1, 0.4], [0.5, 0.9]])
    with pytest.raises(CentroidConsistencyError, match=r"^link 1: .*\(row 2\)$") as raised:
        iid(chain, q, None, None)
    assert raised.value.row == 2
