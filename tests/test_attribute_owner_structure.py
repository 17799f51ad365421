"""Structural guard: the virtual clock has one writer.

``SimClock.now`` is read on every record (timestamps, RPC charges), so it
is a plain attribute rather than a property over a private field. What
the property used to guarantee — only the owner moves the value — is held
here: an ast scan of ``src/`` finds every store to an attribute of that
name (plain, augmented or annotated assignment, ``for`` / ``with``
targets, ``del``) and every ``setattr`` naming it, and allows them only
in the owning module. A clock moved by anyone but ``advance`` /
``advance_to`` would skip timers.
"""

import ast
from pathlib import Path

import repro
from repro.sim.clock import SimClock

SRC = Path(repro.__file__).parent

#: attribute -> the one module (relative to ``src/repro``) that may assign it.
OWNERS = {"now": "sim/clock.py"}


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


def test_only_the_owner_assigns_now():
    assert not stray_writes(), stray_writes()


def test_the_owners_do_assign_them():
    for attr, module in OWNERS.items():
        assert attr in {a for a, _ in writes((SRC / module).read_text())}


def test_the_scan_sees_the_ways_to_write_an_attribute():
    planted = [
        "self.cluster.clock.now = 0",
        "clock.now = 0.0",
        "task.clock.now += 1.0",
        "self.now: float = 0.0",
        "a, cluster.clock.now = 1, 2",
        "for clock.now in range(3): pass",
        "del clock.now",
        "setattr(clock, 'now', 5.0)",
    ]
    for line in planted:
        assert list(writes(line)), line
    assert not list(writes("x = clock.now + cluster.clock.now"))


def test_now_is_a_plain_attribute_with_no_property_behind_it():
    assert "now" not in vars(SimClock)
    clock = SimClock(start_ms=2.0)
    assert vars(clock)["now"] == 2.0
