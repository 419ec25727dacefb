"""The generated code of every tree, held to its walk.

A tree's ``load`` and ``merge`` run code :mod:`repro.shape` generates
for it; the nodes' ``walk_load``/``walk_merge`` are the definition.  For
every tree DESIGN.md §2 lists, over values hypothesis draws from the
tree itself and over recorded real ones (a fleet daemon's snapshot, the
window states of a checkpointed ``cg`` run, a fleet agent's frames and
profile entry), and over every single mutation of those values at every
node of the tree (a wrong type, a bool where an int belongs, a negative
count, a NaN or infinite number, a missing field, a wrong row length, a
non-canonical map key):

* a value the walk accepts, the generated code accepts by itself — it
  never falls back — and loads to the walk's live value;
* a value the walk refuses, the generated code refuses, and ``load``
  raises the walk's exact error (message, path, fields, ``leaf``), so
  :func:`repro.shape.anomaly` gives the walk's reason;
* a generated ``merge`` writes the walk's canonical JSON bytes.

Three seeded generator mutants (a dropped ``COUNT`` lower bound, an
unchecked ``Row`` length, a skipped key check) must each be caught.
Run as a script for the per-tree cost of walk and generated code on the
recorded values (microseconds per call, best of five)::

    python tests/test_shape.py
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import subprocess
import sys
import textwrap
import timeit
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

if __name__ == "__main__":  # script mode runs from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import shape
from repro.bench import BASELINE
from repro.core.optimizer import CHECKPOINT, OptEvent
from repro.core.profiler import MISS, STATE
from repro.core.tracecache import Deployment
from repro.errors import ProfileStateError
from repro.fleet.daemon import _KIND, ENVELOPE, RECORDS, SNAPSHOT
from repro.fuzz.differ import CORPUS
from repro.hpm.batch import WindowBatch
from repro.persist.journal import canonical_json
from repro.persist.profiledb import ENTRY, STORE
from repro.persist.recover import RECORD
from repro.shape import (
    COUNT, INT, NONEMPTY, NUM, REAL, STR, Counts, Leaf, List, Map, Maybe, Record, Row,
    Session, Set, anomaly, generate,
)

#: Every tree DESIGN.md §2 "The records, and who reads them" lists.
TREES = {
    "Deployment.RECORD": Deployment.RECORD,
    "OptEvent.ROW": OptEvent.ROW,
    "profiler.MISS": MISS,
    "profiler.STATE": STATE,
    "optimizer.CHECKPOINT": CHECKPOINT,
    "profiledb.ENTRY": ENTRY,
    "profiledb.STORE": STORE,
    "WindowBatch.PAYLOAD": WindowBatch.PAYLOAD,
    "daemon.ENVELOPE": ENVELOPE,
    "daemon.SNAPSHOT": SNAPSHOT,
    "daemon._KIND": _KIND,
    **{f"daemon.RECORDS[{kind}]": tree for kind, tree in RECORDS.items()},
    "recover.RECORD": RECORD,
    "bench.BASELINE": BASELINE,
    "differ.CORPUS": CORPUS,
}

#: the trees a merge is defined on (the profile database's)
MERGED = {name: TREES[name] for name in ("profiler.MISS", "profiler.STATE", "profiledb.ENTRY")}

COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large]
)


# -- recorded values ----------------------------------------------------------


@functools.cache
def recorded(instances: int = 8) -> dict[str, list]:
    """Real values by tree name: one checkpointed ``cg`` run's window
    states and journal records, one fleet agent's frames and profile
    entry, and the snapshot of a daemon that ingested those frames for
    ``instances`` instances."""
    import random

    from repro import BENCHMARKS, Machine, itanium2_smp, run_with_cobra
    from repro.config import FleetAgentConfig, PersistConfig
    from repro.fleet import FleetDaemon, InstanceSpec, decode_frame, encode_frame, run_instance
    from repro.persist import JOURNAL_NAME, MemoryDisk, SnapshotStore, decode_snapshot, scan_journal
    from repro.validate.differential import MachineRecipe, daxpy_spec

    machine = Machine(itanium2_smp(4, scale=16))
    prog = BENCHMARKS["cg"].build(machine, 4)
    disk = MemoryDisk()
    run_with_cobra(prog, "adaptive",
                   config=replace(machine.config.cobra, persist=PersistConfig(disk=disk)))
    journal = scan_journal(disk.read(JOURNAL_NAME))[0]
    result = run_instance(InstanceSpec(
        instance="rec", round_no=0, workload=daxpy_spec(2048, 4, 12),
        machine=MachineRecipe("smp", 4, 4), strategy="adaptive",
        fleet=FleetAgentConfig(instance="rec"), optimize_interval=10_000,
    ))
    frames = [decode_frame(data) for data in result.channel.clean]
    daemon = FleetDaemon(disk=MemoryDisk(), quorum=2)
    wire = [encode_frame({**frame, "i": f"n{i:03d}"})
            for i in range(instances) for frame in frames]
    random.Random(1).shuffle(wire)
    # and one stream whose batch is damaged: a quarantine record
    batch = next(frame for frame in frames if frame["k"] == "batch")
    wire.append(encode_frame({**batch, "i": "q", "window": {**batch["window"], "samples": -1}}))
    for data in wire:
        daemon.handle(data)
    store = SnapshotStore(daemon.disk)
    snapshot = decode_snapshot(daemon.disk.read(store.name_for(store.versions()[-1])))
    fleet_journal = scan_journal(daemon.disk.read("fleet.wal"))[0]
    windows = [r["state"] for r in journal if r["t"] == "window"]
    entry = frames[-1]["entry"]
    return {
        "optimizer.CHECKPOINT": windows,
        "profiler.STATE": [w["profiler"] for w in windows if w["profiler"] is not None],
        "Deployment.RECORD": [d for w in windows for d in w["deployments"]][:8],
        "OptEvent.ROW": [e for w in windows for e in w["events"]][:8],
        "recover.RECORD": journal + fleet_journal,
        "profiledb.ENTRY": [entry],
        "profiledb.STORE": [{"format": 1, "entries": {result.key: entry}}],
        "WindowBatch.PAYLOAD": [f["window"] for f in frames if f["k"] == "batch"],
        "daemon.ENVELOPE": frames,
        "daemon.SNAPSHOT": [snapshot],
        "daemon._KIND": fleet_journal,
        **{f"daemon.RECORDS[{kind}]": [r for r in fleet_journal if r["t"] == kind]
           for kind in RECORDS},
    }


# -- values drawn from a tree -------------------------------------------------


def _names(leaf: Leaf) -> list[str]:
    """The strings a :func:`~repro.shape.one_of` leaf admits."""
    return leaf.what.removeprefix("one of ").split(", ")


_FLOATS = dict(allow_nan=False, allow_infinity=False)
_LEAVES = {
    INT.legal: st.integers(),
    COUNT.legal: st.integers(min_value=0),
    NUM.legal: st.integers() | st.floats(**_FLOATS),
    REAL.legal: st.integers(min_value=0) | st.floats(min_value=0, **_FLOATS),
    STR.legal: st.text(max_size=4),
    NONEMPTY.legal: st.text(min_size=1, max_size=4),
}


def values(tree) -> st.SearchStrategy:
    """Valid JSON values of ``tree``."""
    if isinstance(tree, Leaf):
        return _LEAVES[tree.legal] if tree.legal in _LEAVES else st.sampled_from(_names(tree))
    if isinstance(tree, Maybe):
        return st.none() | values(tree.item)
    if isinstance(tree, Session):
        return values(tree.item)
    if isinstance(tree, Set):
        return st.lists(values(tree.item), max_size=3, unique_by=json.dumps).map(
            lambda items: sorted(items, key=json.dumps)
        )
    if isinstance(tree, List):
        return st.lists(values(tree.item), max_size=3)
    if isinstance(tree, Row):
        return st.tuples(*map(values, tree.columns.values())).map(list)
    if isinstance(tree, Record):
        return st.fixed_dictionaries({name: values(node) for name, node in tree.fields.items()})
    if tree.parse is str:
        keys = st.text(max_size=4)
    elif isinstance(getattr(tree.parse, "__self__", None), Leaf):
        keys = st.sampled_from(_names(tree.parse.__self__))
    else:
        keys = st.integers().map(str)
    return st.dictionaries(keys, values(tree.item), max_size=3)


# -- single mutations ---------------------------------------------------------


def _own(tree, value):
    """(what, value) mutations of the node ``value`` sits at."""
    if isinstance(tree, Leaf):
        yield "type", 7 if isinstance(value, str) else "7"
        if tree.legal(1):
            yield "bool", True
            yield "negative", -1
        if tree.legal(1.5):
            yield "nan", math.nan
            yield "inf", math.inf
    elif isinstance(tree, Record):
        yield "type", [value]
        for name in tree.fields:
            yield f"missing-{name}", {k: v for k, v in value.items() if k != name}
    elif isinstance(tree, Row):
        yield "type", dict(enumerate(value))
        yield "long", [*value, 0]
        yield "short", value[:-1]
    elif isinstance(tree, List):
        yield "type", {"0": value}
    elif isinstance(tree, Map):
        yield "type", list(value)
        for key, item in list(value.items())[:1]:
            if tree.parse is not str:
                for bad in (f"0{key}", f" {key}", f"+{key}", f"{key}_0", "-0", "x"):
                    yield f"key-{bad!r}", {**value, bad: item}


def _children(tree, value):
    """(where, node, value, put) per child: ``put(bad)`` is ``value``
    with that child replaced (the first item stands for a container's)."""
    if isinstance(tree, Maybe):
        if value is not None:
            yield "?", tree.item, value, lambda bad: bad
    elif isinstance(tree, Session):
        yield "", tree.item, value, lambda bad: bad
    elif isinstance(tree, Record):
        for name, node in tree.fields.items():
            yield name, node, value.get(name), lambda bad, name=name: {**value, name: bad}
    elif isinstance(tree, Row):
        for i, node in enumerate(tree.columns.values()):
            yield f"[{i}]", node, value[i], lambda bad, i=i: [*value[:i], bad, *value[i + 1:]]
    elif isinstance(tree, List):
        if value:
            yield "[0]", tree.item, value[0], lambda bad: [bad, *value[1:]]
    elif isinstance(tree, Map):
        for key, item in list(value.items())[:1]:
            yield f"[{key}]", tree.item, item, lambda bad: {**value, key: bad}


def mutations(tree, value):
    """Every single mutation of valid ``value`` at every node of
    ``tree``, as (where/what, mutated value)."""
    yield from _own(tree, value)
    for where, node, item, put in _children(tree, value):
        for what, bad in mutations(node, item):
            yield f"{where}/{what}", put(bad)


# -- the comparison ------------------------------------------------------------


class FellBack(Exception):
    """The generated code refused a value."""


def _refuse(value):
    raise FellBack


def compile_both(tree) -> tuple:
    """``tree``'s generated ``load`` alone (a refusal raises
    :class:`FellBack`) and as ``load`` runs it (falling back to the walk)."""
    return generate(tree, "load", _refuse), generate(tree, "load")


_compiled = functools.cache(compile_both)


def _error(exc: ProfileStateError) -> tuple:
    return str(exc), exc.path, exc.fields, exc.leaf


def disagreement(tree, value, compiled=None) -> str | None:
    """How generated code and the walk disagree on ``value``, if they do."""
    alone, load = compiled or _compiled(tree)
    try:
        want = tree.walk_load(value)
    except ProfileStateError as exc:
        try:
            alone(value)
        except FellBack:
            pass
        except Exception as other:  # noqa: BLE001 - any escape is the finding
            return f"generated code raised {other!r}"
        else:
            return f"generated code accepted what the walk refuses: {exc}"
        try:
            load(value)
        except ProfileStateError as got:
            return None if _error(got) == _error(exc) else f"{_error(got)} != {_error(exc)}"
        return "load accepted what the walk refuses"
    try:
        got = alone(value)
    except FellBack:
        return "generated code fell back on a valid value"
    except Exception as other:  # noqa: BLE001
        return f"generated code raised {other!r}"
    return None if got == want else "generated live value differs from the walk's"


def disagreements(tree, value, compiled=None) -> list[str]:
    """:func:`disagreement` over ``value`` and each of its mutations."""
    found = []
    for what, probe in [("valid", value), *mutations(tree, value)]:
        problem = disagreement(tree, probe, compiled)
        if problem is not None:
            found.append(f"{what}: {problem}")
    return found


@pytest.mark.parametrize("name", TREES)
@settings(max_examples=30, **COMMON)
@given(data=st.data())
def test_drawn_values_and_their_mutations_agree(name, data):
    tree = TREES[name]
    assert disagreements(tree, data.draw(values(tree))) == []


#: the trees :func:`recorded` has no real value of: CLI files, and a
#: miss site, which ``profiler.STATE``'s values hold
UNRECORDED = {"profiler.MISS", "bench.BASELINE", "differ.CORPUS"}


@pytest.mark.parametrize("name", [name for name in TREES if name not in UNRECORDED])
def test_recorded_values_and_their_mutations_agree(name):
    tree = TREES[name]
    assert recorded()[name]
    for value in recorded()[name]:
        assert disagreements(tree, value) == []


def test_every_other_tree_has_recorded_values():
    assert set(recorded()) == set(TREES) - UNRECORDED


def test_anomaly_reason_is_the_walks():
    """The reason the daemon quarantines on, for every mutated entry."""
    entry = recorded()["profiledb.ENTRY"][0]
    reasons = set()
    for _what, bad in mutations(ENTRY, entry):
        try:
            ENTRY.walk_load(bad)
            want = None
        except ProfileStateError as exc:
            want = "-".join(["entry", *exc.fields, "range" if exc.leaf else "type"])
        assert anomaly(ENTRY, bad, "entry") == want
        reasons.add(want)
    assert {"entry-cpi_total-range", "entry-decisions-type", "entry-jit_trees-type"} <= reasons


@pytest.mark.parametrize("name", MERGED)
@settings(max_examples=40, **COMMON)
@given(data=st.data())
def test_generated_merge_writes_the_walks_bytes(name, data):
    tree = MERGED[name]
    a, b = data.draw(values(tree)), data.draw(values(tree))
    assert canonical_json(generate(tree, "merge")(a, b)) == canonical_json(tree.walk_merge(a, b))


def test_a_64_entry_left_fold_writes_the_walks_bytes():
    """The daemon's publish fold over real entries that differ."""
    entry = recorded()["profiledb.ENTRY"][0]
    entries = [
        {**entry, "runs": i + 1, "cpi_total": entry["cpi_total"] * (1 + i / 7), "flips": i % 3}
        for i in range(64)
    ]
    merge = generate(ENTRY, "merge")
    walked = generated = ENTRY.empty()
    for item in entries:
        walked, generated = ENTRY.walk_merge(walked, item), merge(generated, item)
    assert canonical_json(generated) == canonical_json(walked)


def test_map_keys_are_canonical_decimals():
    tree = Map(int, INT)
    assert tree.load({"1": 3, "-2": 4}) == {1: 3, -2: 4}
    for bad in ("01", " 2", "1_0", "+1", "-0", "x", ""):
        with pytest.raises(ProfileStateError) as caught:
            tree.load({"1": 3, bad: 1})
        assert str(caught.value) == f"[{bad}]: bad key {bad!r}"


def test_load_is_generated_once_and_kept_on_the_tree():
    tree = Record(a=Counts("x", "n"), b=Maybe(Set(COUNT)))
    assert "load" not in vars(tree)
    assert tree.load({"a": [[1, 2]], "b": [3]}) == {"a": {(1,): 2}, "b": {3}}
    kept = vars(tree)["load"]
    assert kept.__code__.co_filename.startswith("<shape load")
    assert tree.load({"a": [], "b": None}) == {"a": {}, "b": None} and tree.load is kept


def test_no_tree_is_generated_at_import(child_env):
    """Importing every module that declares a tree generates nothing."""
    probe = textwrap.dedent("""
        import gc, repro.shape as shape
        import repro.bench, repro.fleet.daemon, repro.fuzz.differ, repro.persist.recover
        nodes = [o for o in gc.get_objects() if isinstance(o, shape._Node)]
        assert nodes, "no trees found"
        print(sum("load" in vars(n) or "merge" in vars(n) for n in nodes))
    """)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=child_env(), check=True).stdout
    assert out.strip() == "0"


# -- seeded generator mutants ---------------------------------------------------


def _mutant(method, old: str, new: str):
    """``method`` recompiled with ``old`` in its source replaced by ``new``."""
    text = textwrap.dedent(inspect.getsource(method))
    assert text.count(old) == 1, old
    namespace: dict = {}
    exec(compile(text.replace(old, new), "<mutant>", "exec"), vars(shape), namespace)  # noqa: S102
    return namespace[method.__name__]


MUTANTS = {
    "COUNT lower bound dropped": lambda mp: mp.setitem(
        shape._REJECTS, COUNT.legal, "type({v}) is not int"),
    "Row length unchecked": lambda mp: mp.setattr(shape.Row, "_load_code", _mutant(
        shape.Row._load_code, " or len({v}) != {len(self.columns)}", "")),
    "key check skipped": lambda mp: mp.setattr(shape.Map, "_load_code", _mutant(
        shape.Map._load_code, 'code.reject(f"str({key}) != {raw}")', "pass")),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_seeded_generator_mutant_is_caught(mutant, monkeypatch):
    MUTANTS[mutant](monkeypatch)
    found = [
        problem
        for name, tree in TREES.items()
        for value in recorded().get(name, [])
        for problem in disagreements(tree, value, compile_both(tree))
    ]
    assert found, f"mutant survived: {mutant}"


# -- script mode: per-tree timings ----------------------------------------------


def _best_us(fn, items: list) -> float:
    runs = timeit.repeat(lambda: [fn(item) for item in items], number=1, repeat=5)
    return min(runs) / len(items) * 1e6


def timings(instances: int = 64) -> list[tuple[str, int, float, float]]:
    """(tree, values, walk µs, generated µs) per call on recorded values;
    the snapshot is a ``state_plane``-sized daemon's (``instances``)."""
    rows = []
    for name, items in recorded(instances).items():
        tree = TREES[name]
        rows.append((f"{name}.load", len(items), _best_us(tree.walk_load, items),
                     _best_us(generate(tree, "load"), items)))
    entry = recorded(instances)["profiledb.ENTRY"][0]
    folded = [ENTRY.empty()]
    for _ in range(63):
        folded.append(ENTRY.walk_merge(folded[-1], entry))
    merge = generate(ENTRY, "merge")
    rows.append(("profiledb.ENTRY.merge", 64,
                 _best_us(lambda acc: ENTRY.walk_merge(acc, entry), folded),
                 _best_us(lambda acc: merge(acc, entry), folded)))
    return rows


if __name__ == "__main__":
    print(f"{'tree':<40}{'values':>7}{'walk µs':>11}{'generated µs':>14}{'ratio':>7}")
    for name, n, walk, gen in timings():
        print(f"{name:<40}{n:>7}{walk:>11.2f}{gen:>14.2f}{walk / gen:>7.2f}")
