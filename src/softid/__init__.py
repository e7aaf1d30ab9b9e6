"""Recursive model-agnostic inverse dynamics for serial soft-rigid chains."""

from .dynamics import (
    DynamicsResult,
    chain_dynamics,
    iid,
    inverse_dynamics,
    mid,
    miid,
)
from .kinematics import (
    BodyHandle,
    ChainModel,
    Joint,
    Link,
    fixed_joint,
    forward_kinematics,
    forward_pass,
    prismatic_joint,
    revolute_joint,
    rotated_base_joint,
)
from .quadrature import QuadratureRule1D, ReferenceDomain, gauss_legendre, integrate_volume
from .spatial import Transform, compose, skew, vee

__version__ = "0.1.0"

__all__ = [
    "BodyHandle",
    "ChainModel",
    "DynamicsResult",
    "Joint",
    "Link",
    "QuadratureRule1D",
    "ReferenceDomain",
    "Transform",
    "chain_dynamics",
    "compose",
    "fixed_joint",
    "forward_kinematics",
    "forward_pass",
    "gauss_legendre",
    "iid",
    "integrate_volume",
    "inverse_dynamics",
    "mid",
    "miid",
    "prismatic_joint",
    "revolute_joint",
    "rotated_base_joint",
    "skew",
    "vee",
]
