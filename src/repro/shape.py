"""The shapes of everything that crosses a process boundary.

Control-plane state leaves the process as JSON (checkpoint windows,
profile-database entries, fleet frames, fleet snapshots and journal
records, the CLI's corpus and baseline files) and comes back as
untrusted input.  Each shape is written once, as a tree of the node
kinds below, and every keeper walks that tree:

* ``load(value)`` validates a JSON value and returns its live form, or
  raises :class:`~repro.errors.ProfileStateError` naming the path of
  the first problem — a caller commits only once the whole tree loaded;
* ``merge(a, b)`` folds two valid JSON values into one, in canonical
  order (the profile database);
* ``empty()`` is the JSON value of "nothing recorded yet".

:func:`anomaly` turns a failed load into a quarantine reason.  DESIGN.md
§2 "The records, and who reads them" lists every tree and its module.
This module sits below every package that declares a tree, so it
imports nothing of the package but its errors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from .errors import ProfileStateError

__all__ = [
    "INT", "COUNT", "NUM", "REAL", "STR", "NONEMPTY", "Leaf", "one_of", "Maybe",
    "Session", "List", "Set", "Row", "Counts", "Record", "Map", "anomaly",
]


def _shape(what: str, value: object) -> ProfileStateError:
    return ProfileStateError(f"expected {what}, got {type(value).__name__}")


@dataclass(frozen=True)
class Leaf:
    """A scalar: ``legal(value)`` is the whole check."""

    legal: Callable[[object], bool]
    what: str  # completes "expected ..."
    merge: Callable = operator.add
    zero: object = 0

    def load(self, value: object) -> object:
        if not self.legal(value):
            raise ProfileStateError(f"expected {self.what}, got {value!r}", leaf=True)
        return value

    def empty(self) -> object:
        return self.zero


#: ``type(v) is int`` is every integer test: a bool is not one
INT = Leaf(lambda v: type(v) is int, "an integer")
COUNT = Leaf(lambda v: type(v) is int and v >= 0, "a non-negative integer")
#: bus/coherent deltas decay by a float factor each window, so an
#: exported snapshot legitimately holds either type
NUM = Leaf(lambda v: type(v) is int or isinstance(v, float), "a number")
#: a CPI figure or sum: a count, or a float that is finite and not negative
REAL = Leaf(
    lambda v: (type(v) is int or isinstance(v, float) and math.isfinite(v)) and v >= 0,
    "a finite non-negative number", zero=0.0,
)
STR = Leaf(lambda v: isinstance(v, str), "a string", zero="")
#: an image digest or other identifier that must say something
NONEMPTY = Leaf(lambda v: isinstance(v, str) and v != "", "a non-empty string", zero="")


def one_of(names, zero: str = "") -> Leaf:
    """A string from ``names``."""
    return Leaf(
        lambda v: isinstance(v, str) and v in names,
        f"one of {', '.join(names)}", zero=zero,
    )


class _Of:
    """A node over one ``item`` node."""

    def __init__(self, item) -> None:
        self.item = item


class Maybe(_Of):
    """``null`` or an ``item``."""

    def load(self, value: object):
        return None if value is None else self.item.load(value)

    def merge(self, a, b):
        # a side that holds nothing leaves the other as it stands
        return b if a is None else a if b is None else self.item.merge(a, b)

    def empty(self) -> None:
        return None


class Session(_Of):
    """Per-session noise (quarantine counters): a checkpoint keeps it, a
    merge resets it — it is not profile signal."""

    def load(self, value: object):
        return self.item.load(value)

    def merge(self, a, b):
        return self.item.empty()


def _each(nodes, values: list) -> list:
    """``values[i]`` loaded by ``nodes[i]``; a failure names its index."""
    live: list = []
    try:
        for node, value in zip(nodes, values):
            live.append(node.load(value))
    except ProfileStateError as exc:
        raise exc.under(len(live)) from None
    return live


class List(_Of):
    """A JSON list of ``item``s, in order."""

    def load(self, value: object) -> list:
        if not isinstance(value, list):
            raise _shape("a list", value)
        return _each(repeat(self.item), value)

    def empty(self) -> list:
        return []


class Set(List):
    """A sorted JSON list of distinct ``item``s; live ``set``, merge = union."""

    def load(self, value: object) -> set:
        return set(super().load(value))

    def merge(self, a: list, b: list) -> list:
        union = sorted({tuple(v) if isinstance(v, list) else v for v in (*a, *b)})
        return [list(v) if isinstance(v, tuple) else v for v in union]


class Row:
    """A fixed-length JSON list, one node per named column; live ``tuple``."""

    def __init__(self, **columns) -> None:
        self.columns = columns

    def load(self, value: object) -> tuple:
        if not isinstance(value, list) or len(value) != len(self.columns):
            raise ProfileStateError(
                f"expected [{', '.join(self.columns)}], got {value!r}"
            )
        return tuple(_each(self.columns.values(), value))


class Counts(List):
    """A JSON list of ``[*key, count]`` integer rows; live ``{key: count}``."""

    def __init__(self, *columns: str) -> None:
        super().__init__(Row(**dict.fromkeys(columns, INT)))

    def load(self, value: object) -> dict:
        return {row[:-1]: row[-1] for row in super().load(value)}

    def merge(self, a: list, b: list) -> list:
        total: dict[tuple, int] = {}
        for *key, count in (*a, *b):
            total[tuple(key)] = total.get(tuple(key), 0) + count
        return [[*key, count] for key, count in sorted(total.items())]


class Record:
    """A JSON object with these fields, in this order (a missing one
    reads as ``null``); live ``dict``."""

    def __init__(self, **fields) -> None:
        self.fields = fields

    def load(self, value: object) -> dict:
        if not isinstance(value, dict):
            raise _shape("an object", value)
        live = {}
        for name, node in self.fields.items():
            try:
                live[name] = node.load(value.get(name))
            except ProfileStateError as exc:
                raise exc.under(name, field=True) from None
        return live

    def merge(self, a: dict, b: dict) -> dict:
        return {
            name: node.merge(a.get(name), b.get(name))
            for name, node in self.fields.items()
        }

    def empty(self) -> dict:
        return {name: node.empty() for name, node in self.fields.items()}


class Map:
    """A JSON object whose keys parse with ``key`` and sort by it."""

    def __init__(self, key: Callable, item) -> None:
        self.key, self.item = key, item

    def load(self, value: object) -> dict:
        if not isinstance(value, dict):
            raise _shape("an object", value)
        live = {}
        for raw, item in value.items():
            try:
                key = self.key(raw)
            except (TypeError, ValueError, ProfileStateError):
                raise ProfileStateError(f"bad key {raw!r}").under(raw) from None
            try:
                live[key] = self.item.load(item)
            except ProfileStateError as exc:
                raise exc.under(raw) from None
        return live

    def merge(self, a: dict, b: dict) -> dict:
        # an item only one side holds is that side's, as it stands
        return {
            key: self.item.merge(a[key], b[key]) if key in a and key in b
            else a.get(key, b.get(key))
            for key in sorted({*a, *b}, key=self.key)
        }

    def empty(self) -> dict:
        return {}


def anomaly(tree, value: object, prefix: str = "") -> str | None:
    """Why ``value`` does not load as ``tree``, as a quarantine reason,
    or ``None`` when it loads.

    The reason is ``prefix``, the record fields down to the problem and
    ``range`` (a bad value) or ``type`` (a wrong shape), joined by
    ``-``: ``entry-decisions-hotness-range`` for a profile entry,
    ``samples-range`` for a window batch (no prefix).
    """
    try:
        tree.load(value)
    except ProfileStateError as exc:
        return "-".join([*filter(None, (prefix,)), *exc.fields, "range" if exc.leaf else "type"])
    return None
