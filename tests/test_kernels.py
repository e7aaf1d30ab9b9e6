"""The contractions of the sweep against their einsum forms.

Every contraction in ``src/softid`` (but the oracle) is a BLAS product of a
row's own matrices or an elementwise multiply-add over the 3-axis; these
tests hold each to the einsum or cross product it replaced (``conftest``'s
reference kernels) within rounding, 1e-14 of the largest entry, on every
body kind.
"""

import numpy as np
import pytest

from softid.actuation import ChamberActuation
from softid.bodies import integrals
from softid.dynamics import _stage, backward_recursion, chain_dynamics, inertial_terms, stress_terms
from softid.kinematics import BodyHandle
from softid.quadrature import ReferenceDomain

from conftest import (einsum_matvec3, ref_backward_recursion, ref_body_integrals, ref_chamber_terms,
                      ref_framed_jacobian, ref_inertial_terms, ref_lvp_jac_q, ref_rod_maps, ref_stress_terms)
from test_actuation import tendon_case
from test_rows import KINDS, chain_of, stacked_states

TOL = 1e-14


def assert_close(a, ref, what="", scale=None):
    """a within TOL of the largest entry of ``scale`` (default: of ``ref``)."""
    a, ref = np.asarray(a), np.asarray(ref)
    assert a.shape == ref.shape, (what, a.shape, ref.shape)
    scale = np.abs(ref if scale is None else scale).max(initial=0.0)
    assert np.abs(a - ref).max(initial=0.0) <= TOL * scale, (what, np.abs(a - ref).max() / scale)


def handles(kind):
    """The distinct body handles of a kind's chain, with b = 3 in-domain body states each."""
    chain = chain_of(kind)
    q, qd, qdd = stacked_states(chain, 3, seed=2)
    seen = {}
    for i, lk in enumerate(chain.links):
        sl = chain.slice(i)
        seen.setdefault(lk.body, tuple(v[:, sl][:, lk.joint.n_dof:] for v in (q, qd, qdd)))
    return list(seen.items())


def staged_integrals(monkeypatch, chain, q, qd, qdd):
    """(group, arguments, result) of the ``body_integrals`` call of each stage group of the chain."""
    calls, out, body_integrals = [], [], integrals.body_integrals

    def capture(*args):
        calls.append((args, body_integrals(*args)))
        return calls[-1][1]

    monkeypatch.setattr(integrals, "body_integrals", capture)
    for group in chain.groups:
        calls.clear()
        _stage(chain, group, q, qd, qdd, True)
        out += [(group,) + call for call in calls]
    return out


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_framed_jacobian_matches_einsum(kind):
    for handle, (qb, _, _) in handles(kind):
        nodes = handle.points[handle.n_anchors:]
        _, frame, f, jq, _ = handle.place(qb, nodes)
        for got, ref, what in zip(handle.framed_jacobian(f, jq, frame), ref_framed_jacobian(handle, f, jq, frame),
                                  ("points", "jacobian")):
            assert_close(got, ref, what)


@pytest.mark.parametrize("n", [0, 1, 3, 6])
@pytest.mark.parametrize("free_tip", [False, True])
def test_framed_jacobian_widths_and_free_tip(n, free_tip):
    # random frames and images: n = 0 is a rigid body, a free tip has no dR term
    rng = np.random.default_rng(n)
    handle = BodyHandle(chain_of("pcs").links[0].body.model, free_tip=True) if free_tip else chain_of("pcs").links[0].body
    b, m = 4, 7
    Q, _ = np.linalg.qr(rng.standard_normal((b, 3, 3)))
    frame = (Q, rng.standard_normal((b, 3)), rng.standard_normal((b, n, 3, 3)), rng.standard_normal((b, 3, n)))
    f, jq = rng.standard_normal((b, m, 3)), rng.standard_normal((b, m, 3, n))
    for got, ref in zip(handle.framed_jacobian(f, jq, frame), ref_framed_jacobian(handle, f, jq, frame)):
        assert_close(got, ref)


@pytest.mark.parametrize("kind", ["pcc", "pcs", "pac", "pgc", "variable_radius"])
def test_rod_maps_match_einsum(kind):
    for handle, (qb, _, _) in handles(kind):
        model, x = handle.model, handle.points
        sol = model.solve(x, qb)
        ref = ref_rod_maps(model, x, qb, sol)
        # the variable-radius rod differences its material derivatives
        names = ("position", "jac_q") if kind == "variable_radius" else ref
        for name in names:
            assert_close(getattr(model, name)(x, qb, sol), ref[name], name)


def test_lvp_jac_q_matches_einsum():
    for handle, (qb, _, _) in handles("lvp"):
        model, x = handle.model, handle.points
        ref = np.stack([ref_lvp_jac_q(model, x, row) for row in qb])
        assert_close(model.jac_q(x, qb), ref)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_body_integrals_match_einsum(monkeypatch, kind):
    chain = chain_of(kind)
    calls = staged_integrals(monkeypatch, chain, *stacked_states(chain, 3, seed=3))
    assert calls
    for _, args, data in calls:
        if args[0].rigid is not None:
            continue  # the handle's own integrals, at zero rates
        for name, ref in ref_body_integrals(*args).items():
            assert_close(getattr(data, name), ref, name)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_inertial_terms_match_einsum(monkeypatch, kind):
    chain = chain_of(kind)
    rng = np.random.default_rng(4)
    for _, _, data in staged_integrals(monkeypatch, chain, *stacked_states(chain, 3, seed=4)):
        lead = data.p_com.shape[:-1]
        w, wdot, a_com = rng.standard_normal((3,) + lead + (3,))
        for got, ref in zip(inertial_terms(data, w, wdot, a_com), ref_inertial_terms(data, w, wdot, a_com)):
            assert_close(got, ref)


@pytest.mark.parametrize("kind", sorted(set(KINDS) - {"rigid"}))
def test_stress_terms_match_einsum(monkeypatch, kind):
    chain = chain_of(kind)
    q, qd, qdd = stacked_states(chain, 3, seed=5)
    for group, (handle, _, _, qdb, _), data in staged_integrals(monkeypatch, chain, q, qd, qdd):
        qb = chain.rows(group, q)[:, chain.links[group[0]].joint.n_dof:]
        (F, T, pi_e), (_, _, pi_d) = stress_terms(handle, data, qb, qdb, 0)
        (F_ref, T_ref, pi_e_ref), pi_d_ref = ref_stress_terms(handle, data, qb, qdb)
        for got, ref, what in ((F, F_ref, "F"), (T, T_ref, "T"), (pi_e, pi_e_ref, "elastic"),
                               (pi_d, pi_d_ref, "damping")):
            assert_close(got, ref, what)


@pytest.mark.parametrize("name", ["tendon_statics", "pcc_2", "rigid_2r", "prismatic", "pac_1", "pgc_2"])
def test_tendon_matrix_matches_einsum(monkeypatch, name):
    chain, act = tendon_case(name)
    q = np.random.default_rng(7).uniform(-1.0, 1.0, (3, chain.n))
    A = act.matrix(chain, q)
    monkeypatch.setattr("softid.actuation.matvec3", einsum_matvec3)
    assert_close(A, act.matrix(chain, q))


@pytest.mark.parametrize("kind", ["pcc", "pcs", "pac", "pgc"])
def test_chamber_terms_match_einsum(kind):
    chain = chain_of(kind)
    act = ChamberActuation([(0, ReferenceDomain.cylinder(0.005, 0.1))], quadrature_order=(3, 6, 4))
    pts, w = act.nodes[0]
    q, _, _ = stacked_states(chain, 3, seed=6)
    lk = chain.links[0]
    qb = q[:, chain.slice(0)][:, lk.joint.n_dof:]
    model = lk.body.model
    sol = model.solve(pts, qb)
    [(volumes, grads)] = act.link_terms(chain, 0, q, (sol, None, None))
    volumes_ref, grads_ref, terms = ref_chamber_terms(model, pts, w, qb, sol)
    assert_close(volumes, volumes_ref)
    # a coordinate that leaves the volume alone has a gradient of cancelled terms
    assert_close(grads, grads_ref, scale=terms)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_backward_recursion_matches_cross(kind):
    # the moment p_com x Fc of every load case as the product Fc skew(-p_com):
    # one state and a stack, with the mass cases' rows
    chain = chain_of(kind)
    q, qd, qdd = stacked_states(chain, 3, seed=8)
    rng = np.random.default_rng(8)
    for state in ((q, qd, qdd), (q[0], qd[0], qdd[0])):
        cache = chain_dynamics(chain, *state, mass=True).cache
        lead = state[0].shape[:-1]
        for k in (None, 4 + chain.n):
            wrenches = rng.standard_normal((len(chain), 4) + lead + (() if k is None else (k,)) + (3,))
            assert_close(backward_recursion(chain, wrenches, cache), ref_backward_recursion(chain, wrenches, cache))
