import numpy as np
import pytest

from softid import presets
from softid.dynamics import _stage
from softid.errors import BodyDomainError


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240)


@pytest.fixture(scope="session")
def rigid_2r():
    return presets.rigid_2r_chain()


@pytest.fixture(scope="session")
def pcc2():
    return presets.pcc_chain(2)


@pytest.fixture(scope="session")
def pcs2():
    return presets.pcs_chain(2)


@pytest.fixture(scope="session")
def pac1():
    return presets.pac_chain(1)


@pytest.fixture(scope="session")
def pgc2():
    return presets.pgc_chain(2)


@pytest.fixture(scope="session")
def lvp1():
    return presets.lvp_chain()


def central_difference(fn, x, steps):
    """Central differences of ``fn`` at x, coordinate k stepped by ``steps[k]``,
    one column at a time: the columns (fn(x + h_k e_k) - fn(x - h_k e_k)) / (2 h_k)
    on a trailing axis.  The reference that the stacked differences of the
    package are checked against.
    """
    cols = [(fn(x + dx) - fn(x - dx)) / (2.0 * h) for h, dx in zip(steps, np.diag(steps))]
    return np.stack(cols, axis=-1) if cols else np.zeros(np.shape(fn(x)) + (0,))


def stage_alone(chain, i, q, qd=None, qdd=None, actuation=None):
    """Link i staged alone, as a group of one, with its stress terms and the
    terms of ``actuation``: the per-link reference that the stages of a
    stage group are checked against."""
    q, qd, qdd = chain.check_state(q, qd, qdd)
    return _stage(chain, (i,), q, qd, qdd, True, actuation).split(1, q.ndim == 1)[0]


def sample_state(rng, n, q_range=np.pi, qd_range=10.0, qdd_range=100.0):
    return (
        rng.uniform(-q_range, q_range, n),
        rng.uniform(-qd_range, qd_range, n),
        rng.uniform(-qdd_range, qdd_range, n),
    )


def in_domain(chain, q):
    """False where some body map has no value at its quadrature nodes."""
    try:
        for i, lk in enumerate(chain.links):
            model = lk.body.model
            model.position(model.nodes()[0], [chain.split(i, q)[1]])
    except BodyDomainError:
        return False
    return True


def fixture_states(rng, chain, count, redrawn):
    """``count`` box states (:func:`sample_state`) inside the body maps' domain.

    The LVP bending map exists only where 2 kappa x_r < 1, which excludes
    part of the box; a state outside is redrawn and appended to ``redrawn``
    as (chain, state).  Fixtures without a domain limit draw exactly as
    :func:`sample_state`.
    """
    kept = 0
    while kept < count:
        state = sample_state(rng, chain.n)
        if in_domain(chain, state[0]):
            kept += 1
            yield state
        else:
            redrawn.append((chain, state))


def check_redrawn(redrawn, algorithm):
    """(ok, note): whether ``algorithm`` raises BodyDomainError at every redrawn state."""
    raised = True
    for chain, state in redrawn:
        try:
            algorithm(chain, *state)
            raised = False
        except BodyDomainError:
            pass
    return raised, (f"; {len(redrawn)} states outside the body-map domain redrawn "
                    f"({algorithm.__name__} raises BodyDomainError at each: {raised})")
