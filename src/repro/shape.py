"""The shapes of everything that crosses a process boundary.

Control-plane state leaves the process as JSON (checkpoint windows,
profile-database entries, fleet frames, fleet snapshots and journal
records, the CLI's corpus and baseline files) and comes back as
untrusted input.  Each shape is written once, as a tree of the node
kinds below, and every keeper calls that tree:

* ``load(value)`` validates a JSON value and returns its live form, or
  raises :class:`~repro.errors.ProfileStateError` naming the path of
  the first problem — a caller commits only once the whole tree loaded;
* ``merge(a, b)`` folds two valid JSON values into one, in canonical
  order (the profile database);
* ``empty()`` is the JSON value of "nothing recorded yet".

A container node's ``load`` and ``merge`` run code generated for the
whole tree below it: the first call emits one straight-line Python
function (:func:`source`), compiles it (:func:`generate`) and keeps it
on the node, as ``cpu.tracejit`` keeps a trace's closure.  The nodes'
``walk_load``/``walk_merge`` methods are the interpreted walk, which is
the definition: a generated ``load`` that meets any value its checks
refuse hands the whole value to the walk, which raises the error (or,
for a value only the generated code is strict about, returns the live
form).  :func:`anomaly` turns a failed load into a quarantine reason.
DESIGN.md §2 "The records, and who reads them" lists every tree and its
module.  This module sits below every package that declares a tree, so
it imports nothing of the package but its errors.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from .errors import ProfileStateError

__all__ = [
    "INT", "COUNT", "NUM", "REAL", "STR", "NONEMPTY", "Leaf", "one_of", "Maybe",
    "Session", "List", "Set", "Row", "Counts", "Record", "Map", "anomaly",
    "generate", "source",
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

    def walk_load(self, value: object) -> object:
        if not self.legal(value):
            raise ProfileStateError(f"expected {self.what}, got {value!r}", leaf=True)
        return value

    #: a lone leaf is one call already: nothing to generate
    load = walk_load

    def walk_merge(self, a, b):
        return self.merge(a, b)

    def empty(self) -> object:
        return self.zero

    def _load_code(self, code: "_Code", v: str) -> str:
        test = _REJECTS.get(self.legal)
        code.reject(test.format(v=v) if test else f"not {code.const(self.legal)}({v})")
        return v

    def _merge_code(self, code: "_Code", a: str, b: str) -> str:
        if self.merge is operator.add:
            return f"({a} + {b})"
        return f"{code.const(self.merge)}({a}, {b})"


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

#: The leaves generated code inlines, as the test that refuses ``{v}``
#: (exact types: a subclass the walk accepts only costs a fallback); any
#: other ``legal`` is called.
_REJECTS = {
    INT.legal: "type({v}) is not int",
    COUNT.legal: "type({v}) is not int or {v} < 0",
    NUM.legal: "type({v}) is not int and type({v}) is not float",
    REAL.legal: "not (type({v}) is int or type({v}) is float and isfinite({v})) or {v} < 0",
    STR.legal: "type({v}) is not str",
    NONEMPTY.legal: "type({v}) is not str or not {v}",
}


def one_of(names, zero: str = "") -> Leaf:
    """A string from ``names``."""
    return Leaf(
        lambda v: isinstance(v, str) and v in names,
        f"one of {', '.join(names)}", zero=zero,
    )


def _decimal(raw: object) -> int:
    """``raw`` as an int, if it is how ``str`` writes that int: a map's
    integer keys have one spelling each (no ``"01"``, ``" 2"``, ``"1_0"``)."""
    key = int(raw)
    if str(key) != raw:
        raise ValueError(f"not a canonical integer: {raw!r}")
    return key


class _Code:
    """The text of one generated function, as the nodes emit it.

    An emitter takes the names of variables holding its input, appends
    the statements that check (``load``) or combine (``merge``) them and
    returns an expression for the result, which its caller evaluates
    once.  It binds only fresh variables (:meth:`var`), never its input.
    """

    def __init__(self, fail: str = "") -> None:
        self.fail = fail
        self.lines: list[str] = []
        self.indent = 1
        self.names: dict[str, object] = {}
        self._vars = 0

    def var(self) -> str:
        self._vars += 1
        return f"v{self._vars}"

    def const(self, obj: object) -> str:
        """A global name bound to ``obj`` in the generated function."""
        name = f"k{len(self.names)}"
        self.names[name] = obj
        return name

    def line(self, text: str, at: int | None = None) -> None:
        text = "    " * self.indent + text
        self.lines.append(text) if at is None else self.lines.insert(at, text)

    @contextmanager
    def block(self, head: str):
        """Statements emitted inside this are ``head``'s body."""
        self.line(head)
        self.indent += 1
        yield
        self.indent -= 1

    def reject(self, test: str) -> None:
        """Hand the value to the walk when ``test`` holds."""
        self.line(f"if {test}:")
        self.line(f"    {self.fail}")


class _Node:
    """A container: ``load`` and ``merge`` are generated for the tree
    below it on first use (:func:`generate`) and then called directly."""

    def load(self, value: object):
        self.load = generate(self, "load")
        return self.load(value)

    def merge(self, a, b):
        self.merge = generate(self, "merge")
        return self.merge(a, b)


class _Of(_Node):
    """A node over one ``item`` node."""

    def __init__(self, item) -> None:
        self.item = item


class Maybe(_Of):
    """``null`` or an ``item``."""

    def walk_load(self, value: object):
        return None if value is None else self.item.walk_load(value)

    def walk_merge(self, a, b):
        # a side that holds nothing leaves the other as it stands
        return b if a is None else a if b is None else self.item.walk_merge(a, b)

    def empty(self) -> None:
        return None

    def _load_code(self, code: _Code, v: str) -> str:
        out = code.var()
        code.line(f"{out} = None")
        with code.block(f"if {v} is not None:"):
            code.line(f"{out} = {self.item._load_code(code, v)}")
        return out

    def _merge_code(self, code: _Code, a: str, b: str) -> str:
        out = code.var()
        code.line(f"if {a} is None:")
        code.line(f"    {out} = {b}")
        code.line(f"elif {b} is None:")
        code.line(f"    {out} = {a}")
        with code.block("else:"):
            code.line(f"{out} = {self.item._merge_code(code, a, b)}")
        return out


class Session(_Of):
    """Per-session noise (quarantine counters): a checkpoint keeps it, a
    merge resets it — it is not profile signal."""

    def walk_load(self, value: object):
        return self.item.walk_load(value)

    def walk_merge(self, a, b):
        return self.item.empty()

    def _load_code(self, code: _Code, v: str) -> str:
        return self.item._load_code(code, v)

    def _merge_code(self, code: _Code, a: str, b: str) -> str:
        return f"{code.const(self.item.empty)}()"


def _each(nodes, values: list) -> list:
    """``values[i]`` walked by ``nodes[i]``; a failure names its index."""
    live: list = []
    try:
        for node, value in zip(nodes, values):
            live.append(node.walk_load(value))
    except ProfileStateError as exc:
        raise exc.under(len(live)) from None
    return live


class List(_Of):
    """A JSON list of ``item``s, in order."""

    _live = "list"

    def walk_load(self, value: object) -> list:
        if not isinstance(value, list):
            raise _shape("a list", value)
        return _each(repeat(self.item), value)

    def empty(self) -> list:
        return []

    def _load_code(self, code: _Code, v: str) -> str:
        code.reject(f"type({v}) is not list")
        out, item, at = code.var(), code.var(), len(code.lines)
        with code.block(f"for {item} in {v}:"):
            live = self.item._load_code(code, item)
            if live != item:
                code.line(f"{out}.{'append' if self._live == 'list' else 'add'}({live})")
        if live == item:
            # every item stands as it is once checked: copy them in one call
            code.line(f"{out} = {self._live}({v})")
        else:
            code.line(f"{out} = {self._live}()", at)
        return out


class Set(List):
    """A sorted JSON list of distinct ``item``s; live ``set``, merge = union."""

    _live = "set"

    def walk_load(self, value: object) -> set:
        return set(super().walk_load(value))

    def walk_merge(self, a: list, b: list) -> list:
        union = sorted({tuple(v) if isinstance(v, list) else v for v in (*a, *b)})
        return [list(v) if isinstance(v, tuple) else v for v in union]

    def _merge_code(self, code: _Code, a: str, b: str) -> str:
        if isinstance(self.item, Leaf):
            return f"sorted({{*{a}, *{b}}})"
        # rows: every item is a list, hashed and sorted as a tuple
        row = code.var()
        return f"[list({row}) for {row} in sorted({{*map(tuple, {a}), *map(tuple, {b})}})]"


class Row(_Node):
    """A fixed-length JSON list, one node per named column; live ``tuple``."""

    def __init__(self, **columns) -> None:
        self.columns = columns

    def walk_load(self, value: object) -> tuple:
        if not isinstance(value, list) or len(value) != len(self.columns):
            raise ProfileStateError(
                f"expected [{', '.join(self.columns)}], got {value!r}"
            )
        return tuple(_each(self.columns.values(), value))

    def _load_code(self, code: _Code, v: str) -> str:
        code.reject(f"type({v}) is not list or len({v}) != {len(self.columns)}")
        cells = [code.var() for _ in self.columns]
        code.line(f"{', '.join(cells)}, = {v}")
        live = [node._load_code(code, cell) for node, cell in zip(self.columns.values(), cells)]
        return f"({', '.join(live)},)"


class Counts(List):
    """A JSON list of ``[*key, count]`` integer rows; live ``{key: count}``."""

    def __init__(self, *columns: str) -> None:
        super().__init__(Row(**dict.fromkeys(columns, INT)))

    def walk_load(self, value: object) -> dict:
        return {row[:-1]: row[-1] for row in super().walk_load(value)}

    def walk_merge(self, a: list, b: list) -> list:
        total: dict[tuple, int] = {}
        for *key, count in (*a, *b):
            total[tuple(key)] = total.get(tuple(key), 0) + count
        return [[*key, count] for key, count in sorted(total.items())]

    def _load_code(self, code: _Code, v: str) -> str:
        code.reject(f"type({v}) is not list")
        out, item, row = code.var(), code.var(), code.var()
        code.line(f"{out} = {{}}")
        with code.block(f"for {item} in {v}:"):
            code.line(f"{row} = {self.item._load_code(code, item)}")
            code.line(f"{out}[{row}[:-1]] = {row}[-1]")
        return out

    def _merge_code(self, code: _Code, a: str, b: str) -> str:
        total, count, row = code.var(), code.var(), code.var()
        key = "".join(f"{code.var()}," for _ in range(len(self.item.columns) - 1))
        code.line(f"{total} = {{}}")
        code.line(f"for {key} {count} in (*{a}, *{b}):")
        code.line(f"    {total}[{key}] = {total}.get(({key}), 0) + {count}")
        return f"[[*{row}, {count}] for {row}, {count} in sorted({total}.items())]"


class Record(_Node):
    """A JSON object with these fields, in this order (a missing one
    reads as ``null``); live ``dict``."""

    def __init__(self, **fields) -> None:
        self.fields = fields

    def walk_load(self, value: object) -> dict:
        if not isinstance(value, dict):
            raise _shape("an object", value)
        live = {}
        for name, node in self.fields.items():
            try:
                live[name] = node.walk_load(value.get(name))
            except ProfileStateError as exc:
                raise exc.under(name, field=True) from None
        return live

    def walk_merge(self, a: dict, b: dict) -> dict:
        return {
            name: node.walk_merge(a.get(name), b.get(name))
            for name, node in self.fields.items()
        }

    def empty(self) -> dict:
        return {name: node.empty() for name, node in self.fields.items()}

    def _load_code(self, code: _Code, v: str) -> str:
        code.reject(f"type({v}) is not dict")
        live = []
        for name, node in self.fields.items():
            field = code.var()
            code.line(f"{field} = {v}.get({name!r})")
            live.append(f"{name!r}: {node._load_code(code, field)}")
        return f"{{{', '.join(live)}}}"

    def _merge_code(self, code: _Code, a: str, b: str) -> str:
        merged = []
        for name, node in self.fields.items():
            x, y = code.var(), code.var()
            code.line(f"{x}, {y} = {a}.get({name!r}), {b}.get({name!r})")
            merged.append(f"{name!r}: {node._merge_code(code, x, y)}")
        return f"{{{', '.join(merged)}}}"


class Map(_Node):
    """A JSON object whose keys parse with ``key`` and sort by it; an
    ``int`` key must be spelt as ``str`` spells it."""

    def __init__(self, key: Callable, item) -> None:
        self.key, self.item = key, item
        self.parse = _decimal if key is int else key

    def walk_load(self, value: object) -> dict:
        if not isinstance(value, dict):
            raise _shape("an object", value)
        live = {}
        for raw, item in value.items():
            try:
                key = self.parse(raw)
            except (TypeError, ValueError, ProfileStateError):
                raise ProfileStateError(f"bad key {raw!r}").under(raw) from None
            try:
                live[key] = self.item.walk_load(item)
            except ProfileStateError as exc:
                raise exc.under(raw) from None
        return live

    def walk_merge(self, a: dict, b: dict) -> dict:
        # an item only one side holds is that side's, as it stands
        return {
            key: self.item.walk_merge(a[key], b[key]) if key in a and key in b
            else a.get(key, b.get(key))
            for key in sorted({*a, *b}, key=self.key)
        }

    def empty(self) -> dict:
        return {}

    def _load_code(self, code: _Code, v: str) -> str:
        code.reject(f"type({v}) is not dict")
        out, raw, item = code.var(), code.var(), code.var()
        code.line(f"{out} = {{}}")
        with code.block(f"for {raw}, {item} in {v}.items():"):
            if self.parse is str:
                code.reject(f"type({raw}) is not str")
                key = raw
            else:
                key = code.var()
                parse = "int" if self.parse is _decimal else code.const(self.parse)
                code.line("try:")
                code.line(f"    {key} = {parse}({raw})")
                code.line("except (TypeError, ValueError, ProfileStateError):")
                code.line(f"    {code.fail}")
                if self.parse is _decimal:
                    code.reject(f"str({key}) != {raw}")
            code.line(f"{out}[{key}] = {self.item._load_code(code, item)}")
        return out

    def _merge_code(self, code: _Code, a: str, b: str) -> str:
        out, key, x, y = code.var(), code.var(), code.var(), code.var()
        order = "" if self.key is str else f", key={code.const(self.key)}"
        code.line(f"{out} = {{}}")
        with code.block(f"for {key} in sorted({{*{a}, *{b}}}{order}):"):
            with code.block(f"if {key} in {a} and {key} in {b}:"):
                code.line(f"{x}, {y} = {a}[{key}], {b}[{key}]")
                code.line(f"{out}[{key}] = {self.item._merge_code(code, x, y)}")
            code.line("else:")
            code.line(f"    {out}[{key}] = {a}[{key}] if {key} in {a} else {b}[{key}]")
        return out


def source(tree, op: str = "load") -> str:
    """The Python text of ``tree``'s generated ``op`` (``load`` or
    ``merge``), with the constants it names."""
    return _emit(tree, op)[0]


def _emit(tree, op: str) -> tuple[str, dict]:
    if op == "load":
        code = _Code("return fallback(value)")
        head, out = "def load(value):", tree._load_code(code, "value")
    else:
        code = _Code()
        head, out = "def merge(a, b):", tree._merge_code(code, "a", "b")
    code.line(f"return {out}")
    return "\n".join([head, *code.lines, ""]), code.names


def generate(tree, op: str, fallback: Callable | None = None) -> Callable:
    """Compile ``tree``'s ``op`` (``load`` or ``merge``).  A generated
    ``load`` hands a value that any of its checks refuses to
    ``fallback`` — by default the tree's walk, which raises the error."""
    text, names = _emit(tree, op)
    namespace = {
        **names, "fallback": fallback or tree.walk_load,
        "isfinite": math.isfinite, "ProfileStateError": ProfileStateError,
    }
    exec(compile(text, f"<shape {op} {type(tree).__name__}>", "exec"), namespace)  # noqa: S102
    return namespace[op]


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
