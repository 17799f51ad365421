"""Structural guard: a task has one unit of work, the column chunk.

``repro/streams/runtime`` used to hold a second execution model — a
per-record loop (``process_at``, ``next_record``, ``add_records``) chosen
per task by ``batch_capable`` / ``fallback_reason`` — beside the chunk
path. It is gone: operators defined per record are walked through chunks
by ``Processor.process_batch``, outside the runtime. These checks keep it
from growing back: the runtime builds no ``StreamRecord``, names none of
the old entry points, and the instance loop calls one task method with no
per-task branch.
"""

import ast
from pathlib import Path

import repro

RUNTIME = sorted((Path(repro.__file__).parent / "streams" / "runtime").glob("*.py"))
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
