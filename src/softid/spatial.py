"""Minimal 3-D spatial algebra: rotations, rigid transforms, cross operators.

Rotations are plain 3x3 orthonormal matrices.  All public functions accept
array-likes and return float64 arrays.  :class:`Transform` checks its
rotation block on construction and raises
:class:`~softid.errors.NonOrthonormalFrameError`; the check is ordinary code,
so it holds under ``python -O`` as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonOrthonormalFrameError

Array = np.ndarray

ORTHONORMAL_TOL = 1e-12


# flat indices of S(v)[2, 1], S[0, 2], S[1, 0] (+v) and S[1, 2], S[2, 0], S[0, 1] (-v)
_SKEW_PLUS = np.array([7, 2, 3])
_SKEW_MINUS = np.array([5, 6, 1])


def skew(v) -> Array:
    """Skew-symmetric matrices S(v) such that S(v) @ w = v x w, over the last
    axis of v (..., 3), shape (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    flat = out.reshape(v.shape[:-1] + (9,))
    flat[..., _SKEW_PLUS], flat[..., _SKEW_MINUS] = v, -v
    return out


def matvec(a: Array, v: Array) -> Array:
    """Matrices a (..., m, n) times vectors v (..., n) with broadcasting over
    the leading axes.  Each product is the BLAS product ``a[r] @ v[r]`` of
    its own row, so a row's value does not depend on the other rows (one
    vector takes matmul's own broadcasting, the same product)."""
    return a @ v if v.ndim == 1 else (a @ v[..., None])[..., 0]


def matvec3(a: Array, v: Array) -> Array:
    """Matrices a (..., k, 3) times vectors v (..., 3) with broadcasting: one product with v repeated along
    a's rows, then two adds over the 3-axis, each row's own (cheaper than a BLAS call per small matrix)."""
    p = a * np.repeat(v[..., None, :], a.shape[-2], axis=-2)
    return p[..., 0] + p[..., 1] + p[..., 2]


# cross(a, b) = a[1, 2, 0] * b[2, 0, 1] - a[2, 0, 1] * b[1, 2, 0] componentwise
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def cross(a, b) -> Array:
    """Cross product over the last axis with broadcasting.

    Same semantics as ``np.cross`` for 3-vectors but without its axis-moving
    overhead, which dominates small-array hot loops.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)


def vee(m) -> Array:
    """Inverse of :func:`skew` over the last two axes, with antisymmetric
    projection of the input.

    The input is first projected to (m - m.T)/2, which suppresses symmetric
    noise from finite differencing before the axial vector is read off.
    """
    m = np.asarray(m, dtype=float)
    a = 0.5 * (m - m.swapaxes(-1, -2))
    return np.stack([a[..., 2, 1], a[..., 0, 2], a[..., 1, 0]], axis=-1)


def rodrigues(axis, angle) -> Array:
    """Rotation by ``angle`` [rad] about the (non-zero) ``axis``; an array of
    angles gives one rotation per angle, shape angle.shape + (3, 3)."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be non-zero")
    k = skew(axis / n)
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_from_quaternion(q) -> Array:
    """Rotation matrix from a scalar-first quaternion [w, x, y, z]."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    w, x, y, z = q / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def is_rotation(r) -> bool:
    """True if ``r`` (3, 3), or every matrix of a stack (..., 3, 3), is
    orthonormal with determinant +1 within ``ORTHONORMAL_TOL``."""
    r = np.asarray(r, dtype=float)
    return (
        r.shape[-2:] == (3, 3)
        and np.abs(r.swapaxes(-1, -2) @ r - np.eye(3)).max() <= ORTHONORMAL_TOL * 10
        and np.abs(np.linalg.det(r) - 1.0).max() <= ORTHONORMAL_TOL * 10
    )


@dataclass(frozen=True)
class Transform:
    """Homogeneous transform: x_parent = rotation @ x_child + translation."""

    rotation: Array
    translation: Array

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        if not is_rotation(self.rotation):
            raise NonOrthonormalFrameError("rotation block is not orthonormal")

    @staticmethod
    def identity() -> "Transform":
        return Transform(np.eye(3), np.zeros(3))

    def compose(self, other: "Transform") -> "Transform":
        """self o other, i.e. apply ``other`` first in self's child frame."""
        return Transform(
            self.rotation @ other.rotation,
            self.translation + self.rotation @ other.translation,
        )

    def inverse(self) -> "Transform":
        rt = self.rotation.T
        return Transform(rt, -rt @ self.translation)

    def apply(self, points) -> Array:
        """Map points (3,) or (m, 3) from the child frame to the parent frame."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            return self.rotation @ points + self.translation
        return points @ self.rotation.T + self.translation

    def as_matrix(self) -> Array:
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.translation
        return out


def compose(a: Transform, b: Transform) -> Transform:
    """Functional form of :meth:`Transform.compose`."""
    return a.compose(b)

