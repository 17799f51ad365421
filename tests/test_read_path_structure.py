"""Structural guard: the log moves column lists, not records.

``repro/log`` and ``repro/broker/fetch.py`` are the one implementation of
the fetch; a ``for record in batch.records``-style loop there reintroduces
per-record materialization (and a second copy of the visibility rule).
Write-side intake of a scalar ``RecordBatch`` is the only legitimate
per-record loop in these files and carries a ``# lint: allow-record-loop``
marker on the loop line. On the write path the log stores the batches it
is given, so ``Record(...)`` is constructed in ``repro/log`` only behind
the lazy scalar view and by the marker factory.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
READ_PATH = sorted((SRC / "log").glob("*.py")) + [SRC / "broker" / "fetch.py"]
MARKER = "lint: allow-record-loop"
LOOPS = (ast.For, ast.AsyncFor, ast.comprehension)


def loops(tree):
    return [node for node in ast.walk(tree) if isinstance(node, LOOPS)]


def iterates_records(loop) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "records"
        for node in ast.walk(loop.iter)
    )


def test_no_per_record_loops_on_the_read_path():
    offenders = []
    for path in READ_PATH:
        source = path.read_text()
        lines = source.splitlines()
        for loop in loops(ast.parse(source)):
            if iterates_records(loop) and MARKER not in lines[loop.iter.lineno - 1]:
                offenders.append(f"{path.relative_to(SRC)}:{loop.iter.lineno}")
    assert not offenders, (
        "per-record loop on the columnar read path (write-side RecordBatch "
        f"intake carries '# {MARKER}'): {offenders}"
    )


def test_broker_fetch_is_loop_free():
    """Visibility filtering lives in PartitionLog.read_columnar; the broker
    fetch only picks the isolation level's limit and delegates."""
    tree = ast.parse((SRC / "broker" / "fetch.py").read_text())
    assert not loops(tree)
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.While)]


# Where ``repro/log`` may build a ``Record``: the per-batch scalar view
# (``PartitionLog.read`` / ``records`` / ``ColumnarBatch.records`` all end
# there) and the factory for the marker a coordinator hands to
# ``append_marker``.
RECORD_BUILDERS = {("columnar.py", "StoredBatch.records"), ("record.py", "control_marker")}


def record_constructions(path):
    """(file, enclosing qualified name) of every ``Record(...)`` call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = scope + [child.name]
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "Record"
            ):
                found.append((path.name, ".".join(scope)))
            visit(child, inner)

    visit(ast.parse(path.read_text()), [])
    return found


def test_the_log_builds_records_only_behind_the_scalar_view():
    built = {
        site for path in (SRC / "log").glob("*.py") for site in record_constructions(path)
    }
    assert built == RECORD_BUILDERS
