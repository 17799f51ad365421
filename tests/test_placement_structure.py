"""Structural guard: placement epochs are honest by construction.

``StreamsInstance.step`` re-syncs its tasks and standbys only when
``consumer.assignment_epoch`` or ``app.placement_epoch`` has moved, so a
writer of what the sync reads that forgets its bump leaves an instance on
stale placement for good. These checks hold the closed list of writers:
every function that rebinds a consumer's ``_assignment``, rewrites the
assignor's ``_warmups``, mutates an instance's ``tasks`` or assigns its
``alive`` bumps the matching epoch in the same body; in
``streams/runtime`` only ``StreamsInstance.__init__`` and four helpers
touch ``tasks`` / ``alive`` at all; and ``step`` reaches ``_sync_tasks``
at one site, behind the epoch comparison.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
RUNTIME = sorted((SRC / "streams" / "runtime").glob("*.py"))
TASK_WRITERS = {"__init__", "_adopt_task", "_drop_task", "_drop_all_tasks", "_go_down"}
DICT_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "__setitem__", "__delitem__"}


def functions(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef):
            yield node


def own_nodes(function):
    """The function's nodes without those of functions nested inside it."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def is_attr(node, name):
    return isinstance(node, ast.Attribute) and node.attr == name


def targets(node):
    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield from (target.elts if isinstance(target, ast.Tuple) else [target])
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield node.target
    elif isinstance(node, ast.Delete):
        yield from node.targets


def rebinds(function, attr):
    """Does the body assign ``<obj>.<attr>``?"""
    return any(
        is_attr(target, attr)
        for node in own_nodes(function)
        if not isinstance(node, ast.Delete)
        for target in targets(node)
    )


def mutates(function, attr):
    """Does the body rebind ``<obj>.<attr>``, store or delete one of its
    items, or call one of ``dict``'s mutators on it?"""
    return rebinds(function, attr) or any(
        isinstance(target, ast.Subscript) and is_attr(target.value, attr)
        for node in own_nodes(function)
        for target in targets(node)
    ) or any(
        is_attr(node.func, mutator) and is_attr(node.func.value, attr)
        for node in own_nodes(function) if isinstance(node, ast.Call)
        for mutator in DICT_MUTATORS
    )


def bumps(function, epoch):
    return any(
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and is_attr(node.target, epoch)
        and isinstance(node.value, ast.Constant)
        and node.value.value == 1
        for node in own_nodes(function)
    )


def test_every_rebinding_of_a_consumers_assignment_bumps_its_epoch():
    writers = [
        f for f in functions(SRC / "clients" / "consumer.py")
        if rebinds(f, "_assignment") and f.name != "__init__"
    ]
    assert {f.name for f in writers} == {
        "assign", "_refresh_assignment", "_maybe_rejoin",
    }
    silent = [f.name for f in writers if not bumps(f, "assignment_epoch")]
    assert not silent, f"rebinds _assignment without assignment_epoch += 1: {silent}"


def test_the_assignor_bumps_the_placement_epoch_when_it_rewrites_warmups():
    writers = [
        f for f in functions(SRC / "streams" / "runtime" / "assignor.py")
        if rebinds(f, "_warmups") and f.name != "__init__"
    ]
    assert [f.name for f in writers] == ["__call__"]
    assert bumps(writers[0], "placement_epoch")


def test_only_the_helpers_write_tasks_and_alive_and_each_bumps():
    assert RUNTIME
    writers = [
        (path.name, f)
        for path in RUNTIME
        for f in functions(path)
        if mutates(f, "tasks") or rebinds(f, "alive")
    ]
    strays = sorted(
        f"{module}: {f.name}" for module, f in writers
        if module != "instance.py" or f.name not in TASK_WRITERS
    )
    assert not strays, (
        "tasks / alive feed every instance's placement: change them through "
        f"_adopt_task / _drop_task / _drop_all_tasks / _go_down, not in {strays}"
    )
    assert {f.name for _, f in writers} == TASK_WRITERS
    silent = [f.name for _, f in writers if not bumps(f, "placement_epoch")]
    assert not silent, f"writes tasks / alive without placement_epoch += 1: {silent}"


def calls(function, method):
    return [
        node for node in own_nodes(function)
        if isinstance(node, ast.Call) and is_attr(node.func, method)
    ]


def test_step_reaches_the_sync_only_behind_the_epoch_comparison():
    by_name = {f.name: f for f in functions(SRC / "streams" / "runtime" / "instance.py")}
    callers = {
        (path.name, f.name): len(calls(f, "_sync_tasks"))
        for path in RUNTIME for f in functions(path) if calls(f, "_sync_tasks")
    }
    assert callers == {("instance.py", "step"): 1}
    (guard,) = [
        node for node in own_nodes(by_name["step"])
        if isinstance(node, ast.If)
        and any(is_attr(n.func, "_sync_tasks") for n in ast.walk(node)
                if isinstance(n, ast.Call))
    ]
    assert isinstance(guard.test, ast.Compare)
    assert isinstance(guard.test.ops[0], ast.NotEq)
    compared = {n.attr for n in ast.walk(guard.test) if isinstance(n, ast.Attribute)}
    assert {"_synced_epochs", "assignment_epoch", "placement_epoch"} <= compared
    assert not guard.orelse
    (statement,) = guard.body
    assert isinstance(statement, ast.Expr) and is_attr(statement.value.func, "_sync_tasks")

    standby_callers = {
        f.name for path in RUNTIME for f in functions(path)
        if calls(f, "_sync_standbys")
    }
    assert standby_callers == {"_sync_tasks"}


def test_only_a_sync_that_ran_to_the_end_records_the_epochs():
    by_name = {f.name: f for f in functions(SRC / "streams" / "runtime" / "instance.py")}
    recorders = {
        f.name for path in RUNTIME for f in functions(path)
        if rebinds(f, "_synced_epochs")
    }
    assert recorders == {"__init__", "_sync_tasks"}
    sync = by_name["_sync_tasks"]
    records = [
        node for node in own_nodes(sync)
        if isinstance(node, ast.Assign) and is_attr(node.targets[0], "_synced_epochs")
    ]
    # One recording, the function's last statement, of a pair read in its
    # first, before anything the sync itself changes.
    assert records == [sync.body[-1]]
    first = sync.body[1] if isinstance(sync.body[0], ast.Expr) else sync.body[0]
    assert isinstance(first, ast.Assign)
    assert {n.attr for n in ast.walk(first.value) if isinstance(n, ast.Attribute)} >= {
        "assignment_epoch", "placement_epoch",
    }
    assert records[0].value.id == first.targets[0].id
    # Every sync runs to the end; waiting for stable offsets is the
    # consumer's (tests/test_layering_structure.py, rule 6).
    assert not any(isinstance(node, ast.Return) for node in own_nodes(sync))
