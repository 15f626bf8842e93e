"""BEAGLE-work-alike likelihood engine: buffers, operations, kernels.

Every instance delegates its kernel launches to a
:class:`~repro.beagle.backend.KernelBackend` resolved through the
resource registry (:mod:`repro.beagle.resources`), which lists one
resource today, the cache-blocked NumPy engine. See ``docs/BACKENDS.md``
for the backend contract.
"""

from .operations import Operation, operations_independent, validate_operation_order
from .kernels import (
    child_contribution,
    edge_site_likelihoods,
    operation_flops,
    rescale_partials,
    root_site_likelihoods,
)
from .scaling import ScaleBufferBank
from .workspace import TransitionMatrixCache, Workspace
from .backend import (
    PARITY_BIT_IDENTICAL,
    PARITY_TOLERANCE,
    BackendInfo,
    KernelBackend,
)
from .backends import BlockedNumpyBackend
from .resources import (
    BACKEND_ENV_VAR,
    DEFAULT_RESOURCE,
    UnknownResourceError,
    acquire,
    available_resources,
    list_resources,
    register_resource,
    resolve_backend,
)
from .instance import BeagleInstance, InstanceStats
from .reference import brute_force_log_likelihood, pruning_log_likelihood

__all__ = [
    "Operation",
    "operations_independent",
    "validate_operation_order",
    "child_contribution",
    "rescale_partials",
    "root_site_likelihoods",
    "edge_site_likelihoods",
    "operation_flops",
    "ScaleBufferBank",
    "TransitionMatrixCache",
    "Workspace",
    "PARITY_BIT_IDENTICAL",
    "PARITY_TOLERANCE",
    "BackendInfo",
    "KernelBackend",
    "BlockedNumpyBackend",
    "BACKEND_ENV_VAR",
    "DEFAULT_RESOURCE",
    "UnknownResourceError",
    "register_resource",
    "available_resources",
    "list_resources",
    "acquire",
    "resolve_backend",
    "BeagleInstance",
    "InstanceStats",
    "brute_force_log_likelihood",
    "pruning_log_likelihood",
]
