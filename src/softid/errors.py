"""Exception types raised by the chain-dynamics engine."""


class SoftIDError(Exception):
    """Base class for all engine errors."""


class DegenerateContactError(SoftIDError):
    """Contact-frame construction collapsed (anchor image too close to pivot)."""


class CentroidConsistencyError(SoftIDError):
    """Body centroid integrals failed their consistency residual.

    Usually means the attached quadrature rule is too coarse for the body
    kinematics, or the body map returned non-finite values.
    """


class SingularMassError(SoftIDError):
    """Generalized mass matrix is not positive definite."""

    def __init__(self, message: str, smallest_eigenvalue: float | None = None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class NonFiniteDynamicsError(SoftIDError):
    """A sweep returned a non-finite mass matrix or force (e.g. an overflow
    at an extreme velocity)."""


class NonOrthonormalFrameError(SoftIDError):
    """A rigid transform's rotation block is not orthonormal within tolerance."""


class BodyDomainError(SoftIDError):
    """Body coordinates lie outside the domain of the body map.

    Raised where the kinematic map has no value, e.g. an LVP section bent or
    compressed past the point where its volume-preserving map exists.
    """
