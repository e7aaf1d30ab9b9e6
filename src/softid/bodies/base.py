"""Body-model interface: a body is a mapped reference domain with mass.

A body model supplies the position map f(x, q) from material coordinates x in
its reference domain to the frame at the distal end of its parent joint, plus
mass density and material parameters.  Derivatives default to central finite
differences (:func:`central_difference`, the package's one difference
quotient, which the harness's stiffness, damping and statics Jacobians also
take); concrete models override them with analytic expressions, which the
recursive dynamics needs for tight oracle agreement.  So does the time rate
of the configuration Jacobian (:meth:`BodyModel.jac_q_rate`), which the
strain rods read exactly from their solve at the velocities; by default it
differences :meth:`~BodyModel.jac_q` along the velocity direction.

The configuration map takes a stack: :meth:`BodyModel.solve`,
:meth:`~BodyModel.position` and :meth:`~BodyModel.jac_q` evaluate the points
x (m, 3) at every row of q (b, n_dof) in one call, and every array they
return has that leading row axis.  Row r of a result is the value at q[r]
alone, bitwise, whatever the other rows are, so one call serves any number
of states.  The material derivatives (:meth:`~BodyModel.jac_x`,
:meth:`~BodyModel.jac_x_dq`, :meth:`~BodyModel.hess_x`) take the same stack
and a stacked solution, with the same row contract, and so does the rate
:meth:`~BodyModel.jac_q_rate` with the velocities.
"""

from __future__ import annotations

import numpy as np

from ..errors import BodyDomainError
from ..quadrature import DEFAULT_ORDER, ReferenceDomain

Array = np.ndarray

FD_Q_STEP = 1e-7
FD_X_STEP = 1e-5
# the step along u of the default Jacobian rate: it balances the rounding noise, which the
# contact frame's normalization amplifies, against the truncation error
JAC_RATE_STEP = 3e-5


def central_difference(fn, x: Array, cols, h: Array):
    """Central differences (fn(x + h e_k) - fn(x - h e_k)) / 2 h at every row
    of the stack x (b, n), column ``cols[j]`` stepped by h[:, j] (h is (b, k)):
    (b, ..., k), the step axis last and C-contiguous (a BLAS product may
    sum a strided layout in another order); None where ``fn`` returns None.
    ``fn`` takes the 2 b k points in one stack, per row the + steps, then
    the - steps, and returns their values with that leading axis."""
    b, k = h.shape
    dx = np.zeros((b, k, x.shape[1]))
    dx[:, np.arange(k), cols] = h
    f = fn(np.concatenate([x[:, None] + dx, x[:, None] - dx], axis=1).reshape(2 * b * k, x.shape[1]))
    if f is None:
        return None
    f = f.reshape((b, 2, k) + f.shape[1:])
    d = (f[:, 0] - f[:, 1]) / (2.0 * h.reshape(h.shape + (1,) * (f.ndim - 3)))
    return np.ascontiguousarray(np.moveaxis(d, 1, -1))


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

    def solve(self, x: Array, q: Array, qd: Array | None = None):
        """Solution of the body map at the points x for the stack q (b, n_dof)
        that the methods below take as ``sol`` instead of solving again; with
        the velocities qd (b, n_dof), it also holds what :meth:`jac_q_rate`
        reads, in the same layout (zeros without them).

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

    def jac_q_rate(self, x: Array, q: Array, qd: Array, sol=None) -> Array:
        """Time rates of :meth:`jac_q` along the velocities qd (b, n_dof),
        (b, m, 3, n_dof), from the solution ``sol`` of the stack q with qd.

        Default: :meth:`jac_q` alone at q +- h u of each moving row, u =
        qd/|qd| and h = JAC_RATE_STEP max(1, |q|), differenced along u
        (:func:`central_difference` in the distance along u) and scaled by
        |qd|, which keeps the cancellation noise independent of the speed;
        zero at rest.  A typed error of the map there names the row and
        "at q +- h u".  A model with its own :meth:`solve` pays one more
        solve in that call."""
        q, qd = self.check_q(q), np.asarray(qd, dtype=float)
        speed = np.sqrt((qd * qd).sum(1))
        moving = np.flatnonzero(speed)
        out = np.zeros((len(q), len(x), 3, self.n_dof))
        if not moving.size:
            return out
        u = np.repeat(qd[moving] / speed[moving, None], 2, axis=0)  # the +- rows of each moving row

        def jq_along(t):
            try:
                return self.jac_q(x, np.repeat(q[moving], 2, axis=0) + t * u)
            except BodyDomainError as e:
                raise type(e)(f"at q +- h u: {e.message}", None if e.row is None else int(moving[e.row // 2])) from e

        h = JAC_RATE_STEP * np.maximum(1.0, np.sqrt((q[moving] * q[moving]).sum(1)))
        out[moving] = speed[moving].reshape(-1, 1, 1, 1) * central_difference(
            jq_along, np.zeros((moving.size, 1)), [0], h[:, None])[..., 0]
        return out

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

    def _q_difference(self, fn, x: Array, q: Array) -> Array:
        """Central differences of fn(x, q), (b, ...), in the coordinates:
        row r steps by FD_Q_STEP max(1, |q[r]|).  A typed error of fn at a
        step names the row of q it steps."""
        q = self.check_q(q)
        # the norm of each row alone, so that a row's step does not depend on the others
        h = FD_Q_STEP * np.maximum(1.0, [np.linalg.norm(row) for row in q])

        def stepped(qs):  # 2 n_dof steps per row of q
            try:
                return fn(x, qs)
            except BodyDomainError as e:
                raise type(e)(e.message, None if e.row is None else int(e.row // (2 * self.n_dof))) from e

        return central_difference(stepped, q, np.arange(self.n_dof), np.repeat(h[:, None], self.n_dof, axis=1))

    def _x_difference(self, fn, x: Array, q: Array) -> Array:
        """Central differences of fn(x, q), (b, m, ...), in the points x:
        every coordinate steps by FD_X_STEP max(1, length scale), an offset
        that all points share and that is differenced as a one-row stack."""
        x = np.asarray(x, dtype=float)
        h = FD_X_STEP * max(1.0, self.domain.length_scale if self.domain else 1.0)

        def shifted(offsets):  # (6, 3) -> (6, b, m, ...)
            f = fn((x + offsets[:, None]).reshape(-1, 3), q)
            return np.moveaxis(f.reshape((f.shape[0], 6) + x.shape[:1] + f.shape[2:]), 1, 0)

        return central_difference(shifted, np.zeros((1, 3)), np.arange(3), np.full((1, 3), h))[0]

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
