"""The leading configuration axis of the body map and the link stager.

A stack of configurations is solved in one call, and row r of every result
is, bitwise, the value at that configuration alone: the K/D refresh stages
all column points of a link together and must equal full sweeps.
"""

from pathlib import Path

import numpy as np
import pytest

from softid.bodies import BodyModel
from softid.dynamics import _stage
from softid.errors import BodyDomainError, DegenerateContactError
from softid.kinematics import BodyHandle
from softid.model_io import load_chain
from softid.quadrature import ReferenceDomain

from conftest import in_domain

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


@pytest.mark.parametrize("b", ROWS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_stage_rows_equal_states_staged_alone(kind, b):
    chain = chain_of(kind)
    q, qd, qdd = stacked_states(chain, b, seed=10 + b)
    for i in range(len(chain)):
        stages = _stage(chain, i, q, qd, qdd, True)
        assert len(stages) == b
        for r in range(b):
            alone = _stage(chain, i, q[r:r + 1], qd[r:r + 1], qdd[r:r + 1], True)[0]
            assert same(stages[r], alone), (i, r)


def test_out_of_domain_row_raises():
    # the second row bends the LVP body past its fold
    chain = chain_of("lvp")
    q, qd, qdd = stacked_states(chain, 3, seed=0)
    q[1] = [0.0, 3.0, 0.0]
    handle = chain.links[0].body
    for call in (lambda: handle.model.position(handle.points, q),
                 lambda: handle.model.jac_q(handle.points, q),
                 lambda: handle.evaluate(q),
                 lambda: _stage(chain, 0, q, qd, qdd, True)):
        with pytest.raises(BodyDomainError):
            call()


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
    with pytest.raises(DegenerateContactError):
        handle.evaluate([[0.2], [1.0], [0.5]])
