"""Structural guard: who may reach into what, across ``src/repro``.

Three layering rules used to be grep steps in CI; a fourth came with the
one client call path, a fifth with the one start-offset gate, a sixth
with the deletions that left imports behind. Each is a function from a
module's place in the package and its syntax tree to the offences in it,
run over every module of ``src/repro`` and, as a negative control, over
the smallest snippet that breaks it — so a rule that stopped seeing
anything fails too.

1. *No busy-wait outside the simulator.* The discrete-event driver owns
   idle time; engine code does not creep the clock forward while idle.
2. *State stores are queried through the IQ layer.* A raw
   ``task.stores()`` bypasses read-only views, position watermarks and
   consistency levels; only the streams runtime and ``iq/`` may call it.
3. *No wall clock under ``obs/``.* Reports, SLOs and watermarks are
   virtual-time only — what makes same-seed reports byte-identical.
4. *One retry policy.* ``sim.network.call_with_retry`` is the only loop
   around an RPC that a client has, and backoff schedules are built only
   there and by the three algorithms that are not a retried RPC.
5. *One place decides where an adopted partition starts reading.* The
   consumer turns committed offsets into positions, only once the group's
   offsets are stable (KIP-447): nothing else asks ``offsets_stable``, and
   the Streams layer neither reads committed offsets nor pauses its
   consumer to wait for them.
6. *Every module-level import is used.* A name a module imports and never
   reads is what a deletion left behind. Names listed in ``__all__`` count
   as read, and a package's ``__init__`` is all re-exports.

Three more checks keep ``tools/uncalled.py`` honest: every function its
allowlist explains is still defined, every reason starts with a group the
allowlist's header documents, and its ``[bench]`` flag names a benchmark
only where that file can reach the function by name.
"""

import ast
import functools
import importlib.util
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent


@functools.cache
def modules():
    """Every module of ``src/repro``: its place in the package -> its tree."""
    return {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
        for path in sorted(ROOT.rglob("*.py"))
    }

#: The query router's candidate sweep (accounted latency, nothing waits),
#: the gray detector's demotion window and the instance's degraded pause
#: (between polls) are schedules of their own, not a retried RPC.
BACKOFF_BUILDERS = {
    "sim/network.py", "iq/router.py", "clients/gray.py",
    "streams/runtime/instance.py",
}


def identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.arg, ast.keyword)):
            yield node.arg or ""


def calls(tree):
    """(callee's last name, call node) for every call in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                yield func.attr, node
            elif isinstance(func, ast.Name):
                yield func.id, node


def imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def busy_wait(where, tree):
    if where.startswith("sim/"):
        return
    yield from (name for name in identifiers(tree) if "idle_advance" in name)
    for name, call in calls(tree):
        if name == "advance" and call.args and ast.unparse(call.args[0]).startswith("idle"):
            yield ast.unparse(call)


def raw_stores(where, tree):
    if not where.startswith(("streams/", "iq/")):
        yield from (ast.unparse(call) for name, call in calls(tree) if name == "stores")


def wall_clock(where, tree):
    if where.startswith("obs/"):
        yield from (m for m in imported(tree) if m in ("time", "datetime"))


def second_retry_policy(where, tree):
    if where not in BACKOFF_BUILDERS:
        yield from (name for name, _ in calls(tree) if name == "ExponentialBackoff")
    if where.startswith("clients/"):
        for loop in ast.walk(tree):
            if isinstance(loop, ast.While):
                yield from (
                    f"while ...: {ast.unparse(call)[:40]}"
                    for name, call in calls(loop) if name == "call"
                )


def second_start_offset_gate(where, tree):
    gates = set() if where == "clients/consumer.py" else {"offsets_stable"}
    if where.startswith("streams/"):
        gates |= {"fetch_committed", "pause", "resume"}
    yield from (ast.unparse(call) for name, call in calls(tree) if name in gates)


def module_level(tree):
    """The statements that run at import time: the module body and what
    sits under its ``if`` / ``try`` blocks, but nothing in a def or class."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            pending += [
                child for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.stmt)
            ]
            for handler in getattr(node, "handlers", ()):
                pending += handler.body


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def unused_import(where, tree):
    if where.endswith("__init__.py"):
        return
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        # A quoted annotation ("KafkaStreams") reads what it names.
        read |= {
            name.id
            for quoted in ast.walk(annotation)
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str)
            for name in ast.walk(ast.parse(quoted.value, mode="eval"))
            if isinstance(name, ast.Name)
        }
    for node in module_level(tree):
        if (
            isinstance(node, ast.Assign)
            and ast.unparse(node.targets[0]) == "__all__"
        ):
            read |= set(ast.literal_eval(node.value))
    for node in module_level(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    yield f"{name} (line {node.lineno})"


#: rule -> the smallest module that breaks it: (where it sits, its source).
RULES = {
    busy_wait: ("streams/runtime/instance.py", "clock.advance(idle_ms)"),
    raw_stores: ("barriers/engine.py", "task.stores()['counts']"),
    wall_clock: ("obs/health.py", "import time\nnow = time.time()"),
    second_retry_policy: (
        "clients/consumer.py",
        "def commit(self):\n"
        "    while True:\n"
        "        try:\n"
        "            return self._network.call('commit_offsets', 0, fn)\n"
        "        except RetriableError:\n"
        "            pass\n",
    ),
    second_start_offset_gate: (
        "streams/runtime/instance.py",
        "if not coordinator.offsets_stable(self.config.application_id):\n"
        "    return\n",
    ),
    unused_import: (
        "streams/joins.py",
        "from typing import List, Tuple\n"
        "kept: List[int] = []\n",
    ),
}


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_layering_rule_holds_and_still_bites(rule):
    offences = {
        where: found
        for where, tree in modules().items()
        if (found := sorted(set(rule(where, tree))))
    }
    assert not offences
    where, mutant = RULES[rule]
    assert where in modules()    # the rule was run where the mutant would sit
    assert list(rule(where, ast.parse(mutant)))


def test_an_unused_import_is_seen_under_a_guard_and_an_export_is_not_one():
    guarded = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.streams.runtime.app import KafkaStreams\n"
        "    from repro.streams.runtime.instance import StreamsInstance\n"
        "def build(app: 'StreamsInstance'):\n"
        "    import json\n"
    )
    assert list(unused_import("iq/view.py", ast.parse(guarded))) == [
        "KafkaStreams (line 3)"
    ]
    exported = "from repro.streams.records import Change\n__all__ = ['Change']\n"
    assert not list(unused_import("streams/table_ops.py", ast.parse(exported)))
    assert not list(unused_import("streams/__init__.py", ast.parse(guarded)))


def test_backoff_is_built_in_four_places_and_one_of_them_is_the_call_policy():
    built = {
        where for where, tree in modules().items()
        if any(name == "ExponentialBackoff" for name, _ in calls(tree))
    }
    assert built == BACKOFF_BUILDERS
    assert list(second_retry_policy("clients/producer.py", ast.parse(
        "backoff = ExponentialBackoff(0.5, 50.0)"
    )))


def test_the_cluster_is_the_only_routing_truth_and_recovery_is_never_none():
    """What the one call path replaced stays gone: the clients' leader and
    metadata caches, the ``if rec is not None`` guard around every recovery
    note outside ``obs/``, and the dead ``except ProducerFencedError`` (it
    is not a ``RetriableError``) of the hand-rolled loops."""
    offences = []
    for where, tree in modules().items():
        offences += [
            f"{where}: {name}" for name in set(identifiers(tree))
            if name in ("_leader_cache", "_metadata_cache", "_topic_metadata")
        ]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Compare)
                and not where.startswith("obs/")
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and ast.unparse(node.left).rsplit(".", 1)[-1] in ("rec", "recovery")
            ):
                offences.append(f"{where}: {ast.unparse(node)}")
            if (
                isinstance(node, ast.ExceptHandler)
                and where.startswith("clients/")
                and node.type is not None
                and "ProducerFencedError" in ast.unparse(node.type)
            ):
                offences.append(f"{where}: except {ast.unparse(node.type)}")
    assert not offences


def load_collector():
    """``tools/uncalled.py`` as a module (``tools`` is not a package)."""
    path = ROOT.parents[1] / "tools" / "uncalled.py"
    spec = importlib.util.spec_from_file_location("uncalled", path)
    collector = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(collector)
    return collector


def stale_entries(allowlist, defined):
    return sorted(entry for entry in allowlist if entry not in defined)


def test_every_allowlisted_uncalled_function_is_still_defined():
    """Each line of the collector's allowlist names a ``def`` of
    ``src/repro``, keyed as the collector keys it: a rename or a deletion
    that leaves its line behind fails here, not in a silent list."""
    collector = load_collector()
    defined = {
        (module, name) for module, name, _, _ in collector.definitions(ROOT)
    }
    allowlist = collector.read_allowlist()
    assert allowlist
    assert not stale_entries(allowlist, defined)
    planted = dict(allowlist)
    planted["repro/streams/kstream.py", "KStream.flat_map"] = "owed: deleted"
    assert stale_entries(planted, defined) == [
        ("repro/streams/kstream.py", "KStream.flat_map")
    ]


def documented_groups(text):
    """The groups the allowlist's header lists, one ``#   <group>  <what>``
    line each."""
    return {
        match.group(1)
        for match in re.finditer(r"^#   ([a-z]+)  ", text, flags=re.MULTILINE)
    }


def undocumented_reasons(allowlist, groups):
    return sorted(
        entry for entry, reason in allowlist.items()
        if re.match(r"([a-z]+)(:|$)", reason) is None
        or re.match(r"([a-z]+)", reason).group(1) not in groups
    )


def test_every_allowlist_reason_starts_with_a_documented_group():
    collector = load_collector()
    groups = documented_groups(collector.ALLOWLIST.read_text())
    assert {"debug", "ledger", "bench", "fault", "interface", "dunder"} <= groups
    allowlist = collector.read_allowlist()
    assert not undocumented_reasons(allowlist, groups)
    planted = dict(allowlist)
    planted["repro/sim/network.py", "Network.call"] = "handy: tests call it"
    planted["repro/sim/clock.py", "SimClock.now"] = "faulty: not a group"
    assert undocumented_reasons(planted, groups) == [
        ("repro/sim/clock.py", "SimClock.now"),
        ("repro/sim/network.py", "Network.call"),
    ]


def test_the_bench_flag_needs_the_owner_and_the_name_in_one_file():
    collector = load_collector()
    files = {
        "bench_acks.py": collector.bench_names(
            "from repro.sim.failures import FailureInjector\n"
            "from repro.log.record import RecordBatch\n"
            "FailureInjector(cluster).drop_next_produce_ack()\n"
        ),
        # ``get`` and ``exists`` as any dict's or path's, a name only in a
        # comment, a function used but never imported from repro, and a
        # local that shares a module's name.
        "bench_words.py": collector.bench_names(
            "import os\n"
            "from repro.workloads import queries\n"
            "rows = {}.get('k')  # QueryRouter, format_table\n"
            "ok = os.path.exists('x')\n"
            "format_table(rows)\n"
            "view = queries.snapshot\n"
        ),
        # The class unnamed, its module imported.
        "bench_module.py": collector.bench_names(
            "import repro.sim.failures\n"
            "injector.heal()\n"
        ),
    }
    flagged = functools.partial(collector.bench_callers, files)
    assert flagged(
        "repro/sim/failures.py", "FailureInjector.drop_next_produce_ack"
    ) == ["bench_acks.py"]
    assert flagged("repro/log/record.py", "RecordBatch") == ["bench_acks.py"]
    assert flagged("repro/iq/router.py", "QueryRouter.get") == []
    assert flagged("repro/barriers/object_store.py", "ObjectStore.exists") == []
    assert flagged("repro/metrics/reporter.py", "format_table") == []
    assert flagged("repro/sim/failures.py", "FailureInjector.__init__") == []
    assert flagged("repro/iq/view.py", "QueryableStoreView.name") == []
    assert flagged("repro/streams/queries.py", "StateCatalog.snapshot") == []
    assert flagged("repro/sim/failures.py", "FailureInjector.heal") == [
        "bench_module.py"
    ]


def test_an_unexplained_function_fails_the_collector():
    """``main`` exits 1 exactly when ``split`` leaves a function
    unexplained; a planted uncalled function with no line is one."""
    collector = load_collector()
    allowlist = collector.read_allowlist()
    found = {"repro/sim/clock.py": [("SimClock.planted", 10, 12)]}
    unexplained, explained = collector.split(found, allowlist)
    assert unexplained == found and explained == {"repro/sim/clock.py": []}
    allowed = {("repro/sim/clock.py", "SimClock.planted"): "debug: planted"}
    unexplained, _ = collector.split(found, {**allowlist, **allowed})
    assert not any(unexplained.values())
