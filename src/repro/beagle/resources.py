"""Resource discovery for kernel backends (the BEAGLE resource API).

BEAGLE programs never name an implementation — they enumerate
*resources* (``beagleGetResourceList``) and acquire one of them;
pytbeaglehon wraps the same flow for Python. This module is that
surface for the NumPy work-alike:

* :func:`list_resources` — descriptors of every registered backend.
* :func:`acquire` — a backend by name; unknown names raise the typed
  :class:`UnknownResourceError` carrying the available names.
* :func:`resolve_backend` — the engine's entry point: maps ``None`` (the
  ``REPRO_BACKEND`` environment variable, then the ``blocked`` default),
  a name, or an already-constructed backend onto a
  :class:`~repro.beagle.backend.KernelBackend`.

``python -m repro.beagle.resources`` prints the listing, mirroring
BEAGLE's resource dump. One resource is registered, the cache-blocked
NumPy engine; the registry and the environment variable are where a
native kernel would register and be selected.
"""

from __future__ import annotations

import os
import sys
from collections import OrderedDict
from typing import Callable, List, Optional, Union

from .backend import BackendInfo, KernelBackend
from .backends import BlockedNumpyBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_RESOURCE",
    "UnknownResourceError",
    "register_resource",
    "available_resources",
    "list_resources",
    "acquire",
    "resolve_backend",
    "main",
]

#: Environment variable naming the default backend when none is given.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The backend used when neither caller nor environment chooses one.
DEFAULT_RESOURCE = "blocked"


class UnknownResourceError(LookupError):
    """A resource request matched no registered backend.

    Carries the offending request and the available resource names so
    CLIs can print an actionable message (and tests can assert on it).
    """

    def __init__(self, requested: object, available: List[str]) -> None:
        self.requested = requested
        self.available = list(available)
        super().__init__(
            f"unknown kernel-backend resource {requested!r}; "
            f"available: {', '.join(self.available)}"
        )


# Registration order is listing order.
_REGISTRY: "OrderedDict[str, Callable[[], KernelBackend]]" = OrderedDict()


def register_resource(
    name: str, factory: Callable[[], KernelBackend], replace: bool = False
) -> None:
    """Register a backend factory under a resource name.

    The factory is invoked per :func:`acquire` call; backends are
    stateless, so construction is cheap. Re-registering an existing name
    requires ``replace=True`` — silent shadowing would let a typo'd
    plugin hijack the default resource.
    """
    if not replace and name in _REGISTRY:
        raise ValueError(f"resource {name!r} is already registered")
    _REGISTRY[name] = factory


def available_resources() -> List[str]:
    """Registered resource names, in registration order."""
    return list(_REGISTRY)


def list_resources() -> List[BackendInfo]:
    """Descriptors of every registered backend, in registration order."""
    return [factory().info for factory in _REGISTRY.values()]


def acquire(name: Optional[str] = None) -> KernelBackend:
    """The backend registered as ``name`` (``None``: the default resource).

    Raises
    ------
    UnknownResourceError
        If no backend has that name; the error lists the available
        resources.
    """
    if name is None:
        name = DEFAULT_RESOURCE
    factory = _REGISTRY.get(name)
    if factory is None:
        raise UnknownResourceError(name, available_resources())
    return factory()


def resolve_backend(
    spec: Union[None, str, KernelBackend] = None,
) -> KernelBackend:
    """The engine's backend-selection funnel.

    * ``None`` — the :data:`BACKEND_ENV_VAR` environment variable if
      set, else the :data:`DEFAULT_RESOURCE`. Consulted per call, so a
      test process can switch backends between instances.
    * a string — :func:`acquire` by name.
    * an object implementing the protocol — returned as-is, letting
      callers thread one configured backend through every layer.
    """
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_RESOURCE
    if isinstance(spec, str):
        return acquire(spec)
    if isinstance(spec, KernelBackend):
        return spec
    raise TypeError(
        f"backend must be None, a resource name or a KernelBackend; "
        f"got {type(spec).__name__}"
    )


register_resource("blocked", BlockedNumpyBackend)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Print the resource listing (``python -m repro.beagle.resources``)."""
    out = out or sys.stdout
    infos = list_resources()
    print(f"{len(infos)} kernel backend resource(s):", file=out)
    width = max(len(info.name) for info in infos)
    for info in infos:
        bound = "" if info.tolerance == 0.0 else f" (|dlogL| <= {info.tolerance:g})"
        print(
            f"  {info.name:<{width}}  {info.kind}  {info.parity}{bound}"
            f"  {info.description}",
            file=out,
        )
    env = os.environ.get(BACKEND_ENV_VAR)
    try:
        default = resolve_backend(None).info.name
    except UnknownResourceError as exc:
        print(f"error: ${BACKEND_ENV_VAR}: {exc}", file=out)
        return 2
    source = f"${BACKEND_ENV_VAR}" if env else "built-in default"
    print(
        f"default resource: {default} ({source}; override with "
        f"{BACKEND_ENV_VAR})",
        file=out,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - console entry point
    raise SystemExit(main())
