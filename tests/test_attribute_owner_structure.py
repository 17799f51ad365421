"""Structural guard: the virtual clock and the metadata epoch have one writer.

``SimClock.now`` and ``Cluster.metadata_epoch`` are read on every record
(timestamps, RPC charges, routing-table checks), so they are plain
attributes rather than properties over a private field. What the property
used to guarantee — only the owner moves the value — is held here: an ast
scan of ``src/`` finds every store to an attribute of either name (plain,
augmented or annotated assignment, ``for`` / ``with`` targets, ``del``)
and every ``setattr`` naming one, and allows them only in the owning
module. A clock moved by anyone but ``advance`` / ``advance_to`` would
skip timers; an epoch set by a client would leave stale routes.
"""

import ast
from pathlib import Path

import repro
from repro.broker.cluster import Cluster
from repro.sim.clock import SimClock

SRC = Path(repro.__file__).parent

#: attribute -> the one module (relative to ``src/repro``) that may assign it.
OWNERS = {"now": "sim/clock.py", "metadata_epoch": "broker/cluster.py"}


def writes(source):
    """(attribute, line) of every write to an ``OWNERS`` attribute."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and node.attr in OWNERS
        ):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in OWNERS
        ):
            yield node.args[1].value, node.lineno


def stray_writes():
    strays = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for attr, line in writes(path.read_text()):
            if OWNERS[attr] != module:
                strays.append(f"{module}:{line} writes .{attr}")
    return strays


def test_only_the_owners_assign_now_and_metadata_epoch():
    assert not stray_writes(), stray_writes()


def test_the_owners_do_assign_them():
    for attr, module in OWNERS.items():
        assert attr in {a for a, _ in writes((SRC / module).read_text())}


def test_the_scan_sees_the_ways_to_write_an_attribute():
    planted = [
        "self.cluster.metadata_epoch = 0",
        "clock.now = 0.0",
        "task.clock.now += 1.0",
        "self.now: float = 0.0",
        "a, cluster.metadata_epoch = 1, 2",
        "for clock.now in range(3): pass",
        "del clock.now",
        "setattr(clock, 'now', 5.0)",
    ]
    for line in planted:
        assert list(writes(line)), line
    assert not list(writes("x = clock.now + cluster.metadata_epoch"))


def test_both_are_plain_attributes_with_no_property_behind_them():
    assert "now" not in vars(SimClock)
    assert "metadata_epoch" not in vars(Cluster)
    clock = SimClock(start_ms=2.0)
    assert vars(clock)["now"] == 2.0
    assert vars(Cluster(num_brokers=1))["metadata_epoch"] >= 0
