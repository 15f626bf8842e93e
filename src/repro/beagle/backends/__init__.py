"""Kernel-backend implementations.

:mod:`~repro.beagle.backends.blocked` implements the
:class:`~repro.beagle.backend.KernelBackend` protocol for NumPy: narrow
sets in pattern tiles, wide sets in batch-axis blocks, both sized from
the instance dimensions. Its batch-axis blocks run through the
operation-set executor in :mod:`~repro.beagle.backends.setexec`.
Backends register with :mod:`repro.beagle.resources`; nothing imports
:mod:`repro.beagle.instance` from here (the dependency points the other
way).
"""

from .blocked import BlockedNumpyBackend

__all__ = ["BlockedNumpyBackend"]
