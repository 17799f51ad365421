"""Structural guard: a task has one unit of work, the column chunk.

``repro/streams/runtime`` used to hold a second execution model — a
per-record loop (``process_at``, ``next_record``, ``add_records``) chosen
per task by ``batch_capable`` / ``fallback_reason`` — beside the chunk
path. It is gone: operators defined per record are walked through chunks
by ``Processor.process_batch``, outside the runtime. These checks keep it
from growing back: the runtime builds no ``StreamRecord``, names none of
the old entry points, and the instance loop calls one task method with no
per-task branch.

The load generators had a per-record loop too (draw a record, ``send`` it,
``advance`` the clock, repeat); they now produce a run of records per clock
event, and no loop under ``repro/workloads`` calls either again.
"""

import ast
from pathlib import Path

import repro

RUNTIME = sorted((Path(repro.__file__).parent / "streams" / "runtime").glob("*.py"))
WORKLOADS = sorted((Path(repro.__file__).parent / "workloads").glob("*.py"))
#: ``Producer.send`` and ``SimClock.advance``: once a record, they were the
#: generators' per-record chain.
PER_RECORD_CALLS = {"send", "advance"}
GONE = {"process_at", "next_record", "add_records", "fallback_reason", "batch_capable"}


def names(tree):
    """Every identifier the module defines, reads or writes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield (node.asname or node.name).rsplit(".", 1)[-1]


def test_the_runtime_has_no_record_at_a_time_path():
    assert RUNTIME
    offenders = [
        f"{path.name}: {name}"
        for path in RUNTIME
        for name in set(names(ast.parse(path.read_text())))
        if name in GONE or name == "StreamRecord"
    ]
    assert not offenders, (
        "streams/runtime moves chunks only; per-record definitions live in "
        f"Processor.process: {sorted(offenders)}"
    )


def test_the_instance_loop_calls_one_task_method_unconditionally():
    (instance_py,) = [path for path in RUNTIME if path.name == "instance.py"]
    (step,) = [
        node for node in ast.walk(ast.parse(instance_py.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "step"
    ]
    loops = [
        loop for loop in ast.walk(step)
        if isinstance(loop, ast.For)
        and any(
            isinstance(node, ast.Attribute) and node.attr == "process_next_chunk"
            for node in ast.walk(loop)
        )
        and not any(isinstance(node, ast.While) for node in ast.walk(loop))
    ]
    (loop,) = loops
    assert not [node for node in ast.walk(loop) if isinstance(node, ast.If)]
    called = {
        node.func.attr for node in ast.walk(loop)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "task"
    }
    assert called == {"process_next_chunk"}


def functions(tree, prefix=""):
    """(qualified name, node) of every function and method in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            yield f"{prefix}{node.name}", node
            yield from functions(node, f"{prefix}{node.name}.")


def repeated_parts(loop):
    """The parts of a loop or comprehension evaluated once per item."""
    if isinstance(loop, ast.For):
        return loop.body
    if isinstance(loop, ast.While):
        return [loop.test, *loop.body]
    if isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return [loop.elt, *(cond for gen in loop.generators for cond in gen.ifs)]
    if isinstance(loop, ast.DictComp):
        return [loop.key, loop.value,
                *(cond for gen in loop.generators for cond in gen.ifs)]
    return []


def per_record_calls(tree):
    """(function, method) for every ``x.send(...)`` / ``x.advance(...)``
    made once per iteration of a loop in that function."""
    return {
        (name, node.func.attr)
        for name, function in functions(tree)
        for loop in ast.walk(function)
        for part in repeated_parts(loop)
        for node in ast.walk(part)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in PER_RECORD_CALLS
    }


def test_no_workload_loop_sends_or_advances_per_iteration():
    assert WORKLOADS
    offenders = {
        (path.name, *call)
        for path in WORKLOADS
        for call in per_record_calls(ast.parse(path.read_text()))
    }
    assert not offenders, (
        "a workload produces a run per clock event (Producer.send_chunk, one "
        f"advance), never a record per loop iteration: {sorted(offenders)}"
    )


PLANTED = """
class Generator:
    def produce_batch(self, count):
        for _ in range(count):
            self.produce_one()
            self.cluster.clock.advance(self.interarrival_ms)

    def produce_for(self, duration_ms):
        deadline = self.cluster.clock.now + duration_ms
        while self.cluster.clock.now < deadline:
            self.producer.send(self.topic, key=self.next_key())
            self.cluster.clock.advance(self.interarrival_ms)

    def produce_columns(self, keys):
        return [self.producer.send(self.topic, key=key) for key in keys]

    def produce_run(self, keys):
        self.producer.send_chunk(self.topic, keys, keys, keys, keys)
        self.cluster.clock.advance(1.0)
"""


def test_a_planted_per_record_loop_fails_the_rule():
    assert per_record_calls(ast.parse(PLANTED)) == {
        ("Generator.produce_batch", "advance"),
        ("Generator.produce_for", "send"),
        ("Generator.produce_for", "advance"),
        ("Generator.produce_columns", "send"),
    }
