"""One closed-identity ledger type for every resilience layer.

:class:`~repro.exec.resilient.FaultStats`, :class:`~repro.exec.pool.PoolStats`,
:class:`~repro.exec.sharding.ShardLedger` and the server's
:class:`~repro.serve.ledger.ServeLedger` with its
:class:`~repro.serve.ledger.TenantLedger` rows are dataclass subclasses of
:class:`Ledger`. Each keeps its counters as plain fields (the hot path
increments attributes) and declares its identities once, as data; every
reader of the identities lives here, so :meth:`Ledger.explain` cannot
disagree with :meth:`Ledger.imbalances`.

An identity term is an attribute path, and a segment that reaches a
mapping sums over its values: ``"rejected_by_reason"`` sums the
per-reason counts, ``"tenants.offered"`` sums ``offered`` over the
tenant rows. Nested ledgers (and mappings of them) close as part of
their parent.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any, ClassVar, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = ["Identity", "Ledger"]

_COUNTER_TYPES = (int, float)


@dataclass(frozen=True)
class Identity:
    """``lhs == sum(rhs)``, with the invariant it protects in one line."""

    lhs: str
    rhs: Tuple[str, ...]
    meaning: str


@dataclass(frozen=True)
class Check:
    """One identity evaluated on one ledger."""

    text: str  # "offered == admitted + rejected"
    lhs: Any
    rhs: Any
    detail: str  # "offered=3 != admitted=2 + rejected=0"
    meaning: str

    @property
    def holds(self) -> bool:
        """Does the identity close?"""
        return self.lhs == self.rhs


def _resolve(obj: Any, path: str) -> Tuple[Any, str]:
    """Value of ``path`` on ``obj`` and the term's display name
    (``sum(path)`` when the path crossed a mapping)."""
    head, _, rest = path.partition(".")
    value = getattr(obj, head)
    if isinstance(value, Mapping):
        total = sum(_resolve(row, rest)[0] if rest else row for row in value.values())
        return total, f"sum({path})"
    return (_resolve(value, rest)[0] if rest else value), path


@dataclass
class Ledger:
    """Base of every closed-identity ledger.

    Subclasses declare ``IDENTITIES`` (the :class:`Identity` rows that
    must close), ``SUMMARY`` (the :meth:`format` template, a
    :meth:`str.format` string over attributes), and for export
    ``METRIC_PREFIX`` (the ``repro_<prefix>_*`` family), ``LABELS``
    (mapping fields exported as labeled gauges, with their label key)
    and ``GAUGES`` (derived gauges: name → attribute path; a sized value
    exports its length).

    Counters — int/float fields, mapping fields, nested ledgers — add on
    :meth:`merge` and zero on :meth:`reset`. Sequence fields (evicted
    worker ids, linked fault schedules) concatenate on merge and survive
    a reset; string fields (a row's name) are left alone.
    """

    IDENTITIES: ClassVar[Tuple[Identity, ...]] = ()
    SUMMARY: ClassVar[str] = ""
    METRIC_PREFIX: ClassVar[Optional[str]] = None
    LABELS: ClassVar[Mapping[str, str]] = {}
    GAUGES: ClassVar[Mapping[str, str]] = {}

    def _checks(self, scope: str = "") -> Iterator[Check]:
        """Every identity evaluated: this ledger's, then those of nested
        ledgers scoped by field (and row key)."""
        for identity in self.IDENTITIES:
            lhs, name = _resolve(self, identity.lhs)
            terms = [_resolve(self, term) for term in identity.rhs]
            yield Check(
                text=f"{scope}{name} == " + " + ".join(n for _, n in terms),
                lhs=lhs,
                rhs=sum(value for value, _ in terms),
                detail=f"{scope}{name}={lhs} != "
                + " + ".join(f"{n}={value}" for value, n in terms),
                meaning=identity.meaning,
            )
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Ledger):
                yield from value._checks(f"{scope}{f.name}: ")
            elif isinstance(value, Mapping):
                for key, row in value.items():
                    if isinstance(row, Ledger):
                        yield from row._checks(f"{scope}{f.name}[{key}]: ")

    def imbalances(self) -> List[str]:
        """Violated identities, one message each (empty: the ledger closes)."""
        return [check.detail for check in self._checks() if not check.holds]

    def balances(self) -> bool:
        """Does every identity close?"""
        return not self.imbalances()

    def explain(self) -> str:
        """One line per identity, marked ``ok`` or ``VIOLATED``, with its
        numbers and the invariant it protects."""
        return "\n".join(
            f"[{'ok' if c.holds else 'VIOLATED'}] {c.text} "
            f"({c.lhs} vs {c.rhs}): {c.meaning}"
            for c in self._checks()
        )

    def format(self) -> str:
        """One-line summary for logs and ``synthetictest`` output."""
        return self.SUMMARY.format_map(_Attributes(self))

    def gauges(self) -> Iterator[Tuple[str, Optional[Dict[str, str]], float]]:
        """``(name, labels, value)`` for every exported gauge."""
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) in _COUNTER_TYPES:
                yield f.name, None, value
            elif f.name in self.LABELS:
                for key, count in sorted(value.items()):
                    yield f.name, {self.LABELS[f.name]: key}, count
        for name, path in self.GAUGES.items():
            value = attrgetter(path)(self)
            yield name, None, len(value) if hasattr(value, "__len__") else value

    def merge(self, other: "Ledger") -> None:
        """Fold ``other`` (same type) into this ledger."""
        for f in fields(self):
            merged = _merged(getattr(self, f.name), getattr(other, f.name))
            setattr(self, f.name, merged)

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) in _COUNTER_TYPES:
                setattr(self, f.name, type(value)())
            elif isinstance(value, Mapping):
                setattr(self, f.name, {})
            elif isinstance(value, Ledger):
                value.reset()


def _merged(mine: Any, theirs: Any) -> Any:
    if type(mine) in _COUNTER_TYPES:
        return mine + theirs
    if isinstance(mine, Ledger):
        mine.merge(theirs)
        return mine
    if isinstance(mine, Mapping):
        out = dict(mine)
        for key, value in theirs.items():
            out[key] = _merged(out[key], value) if key in out else copy.deepcopy(value)
        return out
    if isinstance(mine, (list, tuple)):
        return type(mine)([*mine, *theirs])
    return mine


class _Attributes(dict):
    """``str.format_map`` adapter that resolves names as attributes."""

    def __init__(self, ledger: Ledger) -> None:
        super().__init__()
        self._ledger = ledger

    def __missing__(self, key: str) -> Any:
        return getattr(self._ledger, key)
