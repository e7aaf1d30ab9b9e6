"""Body-model interface: a body is a mapped reference domain with mass.

A body model supplies the position map f(x, q) from material coordinates x in
its reference domain to the frame at the distal end of its parent joint, plus
mass density and material parameters.  Derivatives default to central finite
differences; concrete models override them with analytic expressions, which
the recursive dynamics needs for tight oracle agreement (finite-difference
Jacobians inject ~1e-9 noise that the velocity-rate differencing amplifies).
"""

from __future__ import annotations

import numpy as np

from ..quadrature import DEFAULT_ORDER, ReferenceDomain

Array = np.ndarray

FD_Q_STEP = 1e-7
FD_X_STEP = 1e-5


class BodyModel:
    """Base class for body kinematic models.

    Subclasses must set ``n_dof``, ``domain``, ``rho`` and implement
    :meth:`position`.  ``elastic_modulus`` (C, [Pa]) and ``viscosity``
    (eta, [s]) may be None for bodies without a stress model.
    """

    n_dof: int = 0
    rho: float = 0.0
    domain: ReferenceDomain | None = None
    elastic_modulus: float | None = None
    viscosity: float | None = None
    quadrature_order = DEFAULT_ORDER
    #: whether :meth:`hess_x` is analytic (else stress falls back to FD)
    has_analytic_hess_x: bool = False

    _node_cache: tuple[Array, Array] | None = None

    def solve(self, x: Array, q: Array):
        """Solution of the body map at (x, q) that the methods below take as
        ``sol`` instead of solving again; None (the default) shares nothing."""
        return None

    def position(self, x: Array, q: Array, sol=None) -> Array:
        """Deformed position f(x, q) for material points x (m, 3) -> (m, 3)."""
        raise NotImplementedError

    def jac_q(self, x: Array, q: Array, sol=None) -> Array:
        """Configuration Jacobian df/dq, shape (m, 3, n_dof)."""
        q = np.asarray(q, dtype=float)
        out = np.empty((x.shape[0], 3, self.n_dof))
        h = FD_Q_STEP * max(1.0, float(np.linalg.norm(q)))
        for k in range(self.n_dof):
            dq = np.zeros(self.n_dof)
            dq[k] = h
            out[:, :, k] = (self.position(x, q + dq) - self.position(x, q - dq)) / (2.0 * h)
        return out

    def jac_x(self, x: Array, q: Array, sol=None) -> Array:
        """Material Jacobian df/dx (deformation gradient), shape (m, 3, 3)."""
        out = np.empty((x.shape[0], 3, 3))
        h = FD_X_STEP * max(1.0, self.domain.length_scale if self.domain else 1.0)
        for c in range(3):
            dx = np.zeros(3)
            dx[c] = h
            out[:, :, c] = (self.position(x + dx, q) - self.position(x - dx, q)) / (2.0 * h)
        return out

    def jac_x_dq(self, x: Array, q: Array, sol=None) -> Array:
        """Configuration derivative of the deformation gradient, (m, 3, 3, n_dof).

        Entry [p, a, b, j] is d^2 f_a / dx_b dq_j.  Default: central
        differences of :meth:`jac_x`.
        """
        q = np.asarray(q, dtype=float)
        out = np.empty((x.shape[0], 3, 3, self.n_dof))
        h = FD_Q_STEP * max(1.0, float(np.linalg.norm(q)))
        for k in range(self.n_dof):
            dq = np.zeros(self.n_dof)
            dq[k] = h
            out[..., k] = (self.jac_x(x, q + dq) - self.jac_x(x, q - dq)) / (2.0 * h)
        return out

    def hess_x(self, x: Array, q: Array, sol=None) -> Array:
        """Second material derivatives d2f/dx dx, shape (m, 3, 3, 3).

        Entry [p, a, b, c] is d^2 f_a / dx_b dx_c.  Default: central
        differences of :meth:`jac_x`.
        """
        h = FD_X_STEP * max(1.0, self.domain.length_scale if self.domain else 1.0)
        cols = []
        for c in range(3):
            dx = np.zeros(3)
            dx[c] = h
            cols.append((self.jac_x(x + dx, q) - self.jac_x(x - dx, q)) / (2.0 * h))
        return np.stack(cols, axis=-1)

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
        q = np.asarray(q, dtype=float).reshape(-1)
        if q.shape != (self.n_dof,):
            raise ValueError(f"expected {self.n_dof} body coordinates, got {q.shape[0]}")
        if not np.all(np.isfinite(q)):
            raise ValueError("body coordinates must be finite")
        return q


class RigidBody(BodyModel):
    """Rigid body: the position map is the identity and n_dof = 0."""

    def __init__(self, domain: ReferenceDomain, rho: float, quadrature_order=DEFAULT_ORDER):
        self.domain = domain
        self.rho = float(rho)
        self.quadrature_order = quadrature_order
        self.has_analytic_hess_x = True

    n_dof = 0
    elastic_modulus = None
    viscosity = None

    def position(self, x, q, sol=None):
        return np.asarray(x, dtype=float)

    def jac_q(self, x, q, sol=None):
        return np.zeros((x.shape[0], 3, 0))

    def jac_x(self, x, q, sol=None):
        return np.broadcast_to(np.eye(3), (x.shape[0], 3, 3)).copy()

    def hess_x(self, x, q, sol=None):
        return np.zeros((x.shape[0], 3, 3, 3))
