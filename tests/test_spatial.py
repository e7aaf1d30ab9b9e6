import numpy as np

from softid.spatial import (
    Transform,
    compose,
    cross,
    rodrigues,
    rotation_from_quaternion,
    skew,
    vee,
)


def test_skew_zero():
    assert np.array_equal(skew([0.0, 0.0, 0.0]), np.zeros((3, 3)))


def test_skew_unit_axis():
    assert np.allclose(skew([0, 0, 1]) @ [1, 0, 0], [0, 1, 0])


def test_skew_matches_component_formula(rng):
    for _ in range(20):
        v, w = rng.normal(size=3), rng.normal(size=3)
        m = np.array([
            [0, -v[2], v[1]],
            [v[2], 0, -v[0]],
            [-v[1], v[0], 0],
        ])
        assert np.abs(skew(v) @ w - m @ w).max() < 1e-15
        assert np.abs(skew(v) @ w - np.cross(v, w)).max() < 1e-15


def test_skew_antisymmetric(rng):
    for _ in range(10):
        s = skew(rng.normal(size=3))
        assert np.array_equal(s.T, -s)


def test_cross_matches_numpy(rng):
    a = rng.normal(size=(7, 3))
    b = rng.normal(size=(7, 3))
    assert np.allclose(cross(a, b), np.cross(a, b))
    assert np.allclose(cross(a[0], b), np.cross(a[0], b))


def test_vee_roundtrip(rng):
    v = rng.normal(size=3)
    assert np.allclose(vee(skew(v)), v)
    # symmetric noise is projected away
    noisy = skew(v) + 1e-3 * np.eye(3)
    assert np.allclose(vee(noisy), v)


def test_compose_identity():
    t = Transform(rodrigues([0, 0, 1], 0.3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(compose(Transform.identity(), t).as_matrix(), t.as_matrix())


def test_compose_translations():
    a = Transform(np.eye(3), np.array([1.0, 0.0, 0.0]))
    b = Transform(np.eye(3), np.array([0.0, 1.0, 0.0]))
    assert np.allclose(compose(a, b).translation, [1.0, 1.0, 0.0])


def test_compose_inverse_random(rng):
    for _ in range(100):
        t = Transform(rodrigues(rng.normal(size=3), rng.normal()), rng.normal(size=3))
        m = compose(t, t.inverse()).as_matrix()
        assert np.abs(m - np.eye(4)).max() < 1e-12


def test_compose_associative(rng):
    for _ in range(20):
        ts = [Transform(rodrigues(rng.normal(size=3), rng.normal()), rng.normal(size=3))
              for _ in range(3)]
        left = compose(compose(ts[0], ts[1]), ts[2]).as_matrix()
        right = compose(ts[0], compose(ts[1], ts[2])).as_matrix()
        assert np.abs(left - right).max() < 1e-12


def test_rotation_preserves_norm(rng):
    for _ in range(20):
        r = rodrigues(rng.normal(size=3), rng.normal())
        v = rng.normal(size=3)
        assert abs(np.linalg.norm(r @ v) - np.linalg.norm(v)) < 1e-12


def test_rotation_orthonormal(rng):
    r = rodrigues(rng.normal(size=3), rng.normal())
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_quaternion_rotation_matches_axis_angle():
    axis = np.array([1.0, 2.0, -1.0])
    axis /= np.linalg.norm(axis)
    angle = 0.7
    quat = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis])
    assert np.allclose(rotation_from_quaternion(quat), rodrigues(axis, angle), atol=1e-14)


def test_transform_apply_batch(rng):
    t = Transform(rodrigues([0, 1, 0], 0.4), np.array([0.1, 0.2, 0.3]))
    pts = rng.normal(size=(5, 3))
    single = np.stack([t.apply(p) for p in pts])
    assert np.allclose(t.apply(pts), single)

