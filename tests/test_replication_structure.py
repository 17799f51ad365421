"""Structural guard: who leads, who is in sync and what a follower holds
change in one module, behind a settled replication debt.

``PartitionState.replicate`` defers the follower copy; ``_settle`` makes it
before anything observes or freezes a follower. That is only sound while
every such moment lives in ``repro/broker/partition.py``: code elsewhere
that assigns ``.leader`` / ``.isr`` or reaches the private replica dict
would read (or freeze) followers that are still behind.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
PARTITION = SRC / "broker" / "partition.py"
SETTLE = "_settle"
PRIVATE = {"_replicas", "_owed_end"}
SET_MUTATORS = {
    "add", "discard", "remove", "pop", "clear", "update", "difference_update",
    "intersection_update", "symmetric_difference_update",
}


def assigned_attributes(node):
    """Attribute nodes ``node`` assigns to (plain, augmented, annotated,
    deleted, or unpacked into)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = node.targets
    else:
        return []
    return [
        leaf
        for target in targets
        for leaf in ast.walk(target)
        if isinstance(leaf, ast.Attribute)
        and isinstance(leaf.ctx, (ast.Store, ast.Del))
    ]


def membership_changes(tree, owner=None):
    """Line numbers where ``tree`` assigns ``X.leader`` / ``X.isr`` or calls
    a mutating set method on ``X.isr`` (only ``X == owner`` if given)."""

    def owned(attribute):
        return owner is None or (
            isinstance(attribute.value, ast.Name) and attribute.value.id == owner
        )

    lines = []
    for node in ast.walk(tree):
        for target in assigned_attributes(node):
            if target.attr in ("leader", "isr") and owned(target):
                lines.append(node.lineno)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SET_MUTATORS
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "isr"
            and owned(node.func.value)
        ):
            lines.append(node.lineno)
    return lines


def calls_to(tree, name):
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
    ]


def partition_state_methods():
    tree = ast.parse(PARTITION.read_text())
    cls = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "PartitionState"
    )
    return {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}


def test_only_the_partition_module_changes_leader_isr_or_names_the_replica_dict():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == PARTITION:
            continue
        tree = ast.parse(path.read_text())
        where = path.relative_to(SRC)
        offenders += [f"{where}:{line}" for line in membership_changes(tree)]
        offenders += [
            f"{where}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE
        ]
    assert not offenders, (
        "leadership, ISR and the replica dict are PartitionState's to change "
        f"(go through its methods, which settle first): {offenders}"
    )


def test_every_leader_or_isr_change_settles_first():
    methods = partition_state_methods()

    def settled_by(name, line):
        """Is the debt paid by the time ``name`` reaches ``line``? Either it
        has called the settle routine itself, or it is a private helper and
        every method that calls it has."""
        if any(at < line for at in calls_to(methods[name], SETTLE)):
            return True
        callers = {
            caller: min(at)
            for caller, method in methods.items()
            if caller != name and (at := calls_to(method, name))
        }
        return name.startswith("_") and bool(callers) and all(
            settled_by(caller, at) for caller, at in callers.items()
        )

    changing = {
        name: min(lines)
        for name, method in methods.items()
        if name != "__init__" and (lines := membership_changes(method, owner="self"))
    }
    # The guard guards something: these are the methods it is about.
    assert {"on_broker_failure", "on_broker_restart", "_rejoin",
            "transfer_leadership"} <= set(changing)
    late = sorted(name for name, line in changing.items() if not settled_by(name, line))
    assert not late, (
        f"PartitionState methods that change leader/ISR before {SETTLE}(), "
        f"or private helpers reached from one that has not called it: {late}"
    )


def test_looking_at_a_replica_settles_and_the_leader_log_does_not():
    methods = partition_state_methods()
    assert calls_to(methods["replica_log"], SETTLE)
    # leader_log() is on every fetch and append; the leader is never behind.
    assert not calls_to(methods["leader_log"], SETTLE)
    # One replicate, and it copies nothing.
    names = {
        node.func.attr
        for node in ast.walk(methods["replicate"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert not names & {"_sync_follower", "replicate_mirror", SETTLE}
