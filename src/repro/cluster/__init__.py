"""Deployment building: specs and the end-to-end topology of Figure 1."""

from .deployment import Deployment
from .spec import DeploymentSpec

__all__ = ["Deployment", "DeploymentSpec"]
