"""Body-model interface: a body is a mapped reference domain with mass.

A body model supplies the position map f(x, q) from material coordinates x in
its reference domain to the frame at the distal end of its parent joint, plus
mass density and material parameters.  Derivatives default to central finite
differences; concrete models override them with analytic expressions, which
the recursive dynamics needs for tight oracle agreement (finite-difference
Jacobians inject ~1e-9 noise that the velocity-rate differencing amplifies).

The configuration map takes a stack: :meth:`BodyModel.solve`,
:meth:`~BodyModel.position` and :meth:`~BodyModel.jac_q` evaluate the points
x (m, 3) at every row of q (b, n_dof) in one call, and every array they
return has that leading row axis.  Row r of a result is the value at q[r]
alone, bitwise, whatever the other rows are, so one call serves any number
of states.  The material derivatives (:meth:`~BodyModel.jac_x`,
:meth:`~BodyModel.jac_x_dq`, :meth:`~BodyModel.hess_x`) take the same stack
and a stacked solution, with the same row contract.
"""

from __future__ import annotations

import numpy as np

from ..quadrature import DEFAULT_ORDER, ReferenceDomain

Array = np.ndarray

FD_Q_STEP = 1e-7
FD_X_STEP = 1e-5


def central_difference(fn, x: Array, steps) -> Array:
    """Central differences of ``fn`` at x, coordinate k stepped by ``steps[k]``.

    The columns (fn(x + h_k e_k) - fn(x - h_k e_k)) / (2 h_k) are stacked on
    a trailing axis.
    """
    cols = [(fn(x + dx) - fn(x - dx)) / (2.0 * h) for h, dx in zip(steps, np.diag(steps))]
    return np.stack(cols, axis=-1) if cols else np.zeros(np.shape(fn(x)) + (0,))


class BodyModel:
    """Base class for body kinematic models.

    Subclasses must set ``n_dof``, ``domain``, ``rho`` and implement
    :meth:`position` for a stack of configurations.  ``elastic_modulus``
    (C, [Pa]) and ``viscosity`` (eta, [s]) may be None for bodies without a
    stress model.
    """

    n_dof: int = 0
    rho: float = 0.0
    domain: ReferenceDomain | None = None
    elastic_modulus: float | None = None
    viscosity: float | None = None
    quadrature_order = DEFAULT_ORDER

    _node_cache: tuple[Array, Array] | None = None

    def solve(self, x: Array, q: Array):
        """Solution of the body map at the points x for the stack q (b, n_dof)
        that the methods below take as ``sol`` instead of solving again.

        A solution is None (the default: nothing shared) or a tuple of arrays
        with one leading row per configuration, then one row per point of x:
        the arrays' rows r are the solution at q[r], and their rows of a
        subset of the points are the solution at that subset.
        """
        return None

    def position(self, x: Array, q: Array, sol=None) -> Array:
        """Deformed positions f(x, q[r]) of the points x (m, 3), shape (b, m, 3)."""
        raise NotImplementedError

    def jac_q(self, x: Array, q: Array, sol=None) -> Array:
        """Configuration Jacobians df/dq, shape (b, m, 3, n_dof); default:
        central differences of :meth:`position`."""
        return self._q_difference(self.position, x, q)

    def jac_x(self, x: Array, q: Array, sol=None) -> Array:
        """Material Jacobians df/dx (deformation gradients), shape (b, m, 3,
        3); default: central differences of :meth:`position`."""
        return self._x_difference(self.position, x, q)

    def jac_x_dq(self, x: Array, q: Array, sol=None) -> Array:
        """Configuration derivatives of the deformation gradients, (b, m, 3,
        3, n_dof): entry [r, p, a, b, j] is d^2 f_a / dx_b dq_j.  Default:
        central differences of :meth:`jac_x`."""
        return self._q_difference(self.jac_x, x, q)

    def hess_x(self, x: Array, q: Array, sol=None) -> Array:
        """Second material derivatives d2f/dx dx, shape (b, m, 3, 3, 3):
        entry [r, p, a, b, c] is d^2 f_a / dx_b dx_c.  Default: central
        differences of :meth:`jac_x`."""
        return self._x_difference(self.jac_x, x, q)

    # The differences below step every row in one call of fn and return the
    # step axis last, C-contiguous: einsum and matmul may sum a strided
    # layout in another order.

    def _q_difference(self, fn, x: Array, q: Array) -> Array:
        """Central differences of fn(x, q), (b, ...), in the coordinates:
        row r steps by FD_Q_STEP max(1, |q[r]|)."""
        q = self.check_q(q)
        b, n = q.shape
        # the norm of each row alone, so that a row's step does not depend on the others
        h = FD_Q_STEP * np.maximum(1.0, [np.linalg.norm(row) for row in q])
        dq = h[:, None, None] * np.eye(n)  # row r, step k: h_r e_k
        f = fn(x, np.concatenate([q[:, None] + dq, q[:, None] - dq], axis=1).reshape(2 * b * n, n))
        f = f.reshape((b, 2, n) + f.shape[1:])
        d = (f[:, 0] - f[:, 1]) / (2.0 * h.reshape((b,) + (1,) * (f.ndim - 2)))
        return np.ascontiguousarray(np.moveaxis(d, 1, -1))

    def _x_difference(self, fn, x: Array, q: Array) -> Array:
        """Central differences of fn(x, q), (b, m, ...), in the points x:
        every coordinate steps by FD_X_STEP max(1, length scale)."""
        x = np.asarray(x, dtype=float)
        dx = FD_X_STEP * max(1.0, self.domain.length_scale if self.domain else 1.0) * np.eye(3)
        f = fn(np.concatenate([x + d for d in dx] + [x - d for d in dx]), q)
        f = f.reshape((f.shape[0], 2, 3) + x.shape[:1] + f.shape[2:])
        return np.ascontiguousarray(np.moveaxis((f[:, 0] - f[:, 1]) / (2.0 * dx[0, 0]), 1, -1))

    def nodes(self) -> tuple[Array, Array]:
        """Cached quadrature points (m, 3) and volume weights (m,)."""
        if self._node_cache is None:
            self._node_cache = self.domain.nodes(self.quadrature_order)
        return self._node_cache

    @property
    def mass(self) -> float:
        _, w = self.nodes()
        return float(self.rho * np.sum(w))

    def check_q(self, q) -> Array:
        """The stack q as a float array (b, n_dof) of finite rows; one
        configuration is checked as the stack ``[q]``."""
        q = np.asarray(q, dtype=float)
        if q.ndim != 2 or q.shape[1] != self.n_dof:
            raise ValueError(f"expected a stack of configurations of shape (b, {self.n_dof}), got {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError("body coordinates must be finite")
        return q


class RigidBody(BodyModel):
    """Rigid body: the position map is the identity and n_dof = 0."""

    def __init__(self, domain: ReferenceDomain, rho: float, quadrature_order=DEFAULT_ORDER):
        self.domain = domain
        self.rho = float(rho)
        self.quadrature_order = quadrature_order

    n_dof = 0
    elastic_modulus = None
    viscosity = None

    def position(self, x, q, sol=None):
        x = np.asarray(x, dtype=float)
        return np.repeat(x[None], self.check_q(q).shape[0], axis=0)

    def jac_q(self, x, q, sol=None):
        return np.zeros((self.check_q(q).shape[0], x.shape[0], 3, 0))

    def jac_x(self, x, q, sol=None):
        return np.broadcast_to(np.eye(3), (self.check_q(q).shape[0], x.shape[0], 3, 3)).copy()

    def hess_x(self, x, q, sol=None):
        return np.zeros((self.check_q(q).shape[0], x.shape[0], 3, 3, 3))
