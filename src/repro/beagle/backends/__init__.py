"""Kernel-backend implementations.

Each module here implements the :class:`~repro.beagle.backend.KernelBackend`
protocol for one execution strategy:

* :mod:`~repro.beagle.backends.reference` — the baseline NumPy engine,
  exactly the code that lived inline in ``BeagleInstance`` before the
  backend split. Its numbers *define* correctness for the parity gate.
* :mod:`~repro.beagle.backends.blocked` — the same arithmetic in cache-
  sized pieces: narrow sets in pattern tiles, wide sets in batch-axis
  blocks, both sized from the instance dimensions; bit-identical to the
  reference and measurably faster on narrow and on wide sets.

Both share the operation-set executor in
:mod:`~repro.beagle.backends.setexec`. Backends register with
:mod:`repro.beagle.resources`; nothing imports
:mod:`repro.beagle.instance` from here (the dependency points the other
way).
"""

from .reference import ReferenceBackend
from .blocked import BlockedNumpyBackend

__all__ = ["ReferenceBackend", "BlockedNumpyBackend"]
