"""Structural guard: the log moves column lists, not records.

``repro/log`` and ``repro/broker/fetch.py`` are the one implementation of
the fetch; a ``for record in batch.records``-style loop there reintroduces
per-record materialization (and a second copy of the visibility rule).
Write-side intake of a scalar ``RecordBatch`` is the only legitimate
per-record loop in these files and carries a ``# lint: allow-record-loop``
marker on the loop line. On the write path the log stores the batches it
is given, so ``Record(...)`` is constructed in ``repro/log`` only behind
the lazy scalar view and by the marker factory. On the client side
``Consumer.poll`` hands out ``ConsumerRecord``s built from the five columns
a Kafka consumer can see; origin is the record's ``topic`` / ``partition``,
and only the Streams intake still merges it into headers.
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


# -- the client edge ------------------------------------------------------------


def test_clients_neither_import_nor_build_the_log_record():
    offenders = []
    for path in sorted((SRC / "clients").glob("*.py")):
        tree = ast.parse(path.read_text())
        offenders += record_constructions(path)
        offenders += [
            (path.name, f"import at line {node.lineno}")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and any(alias.name == "Record" for alias in node.names)
        ]
    assert not offenders


# What a Kafka consumer can see of a fetched batch. Producer id, epoch,
# sequence and the transactional flag are batch-level facts of the log.
CLIENT_VISIBLE = {
    "topic", "partition", "offsets", "timestamps", "keys", "values", "headers",
}


def test_poll_reads_only_the_client_visible_columns():
    tree = ast.parse((SRC / "clients" / "consumer.py").read_text())
    (consumer,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Consumer"
    ]
    (poll,) = [
        node for node in consumer.body
        if isinstance(node, ast.FunctionDef) and node.name == "poll"
    ]
    read = {
        node.attr
        for node in ast.walk(poll)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "batch"
    }
    assert read == CLIENT_VISIBLE


ORIGIN_HEADERS = ("__topic", "__partition")
# Where the origin header names may be spelled at all (code, docstring or
# comment): the consumer builds ``batch.origin``, the Streams intake merges
# it per record, and a mirror strips it. Everyone else reads the fields.
ORIGIN_HEADER_FILES = {
    "clients/consumer.py",
    "streams/runtime/task.py",
    "streams/records.py",
    "mirror/link.py",
}


def test_origin_headers_are_named_only_where_they_are_made_or_stripped():
    named = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if any(header in path.read_text() for header in ORIGIN_HEADERS)
    }
    assert named == ORIGIN_HEADER_FILES
    # ... and a mirror names them only in the tuple of headers it strips.
    tree = ast.parse((SRC / "mirror" / "link.py").read_text())
    (strip,) = [
        node for node in tree.body
        if isinstance(node, ast.Assign)
        and [target.id for target in node.targets] == ["_FETCH_HEADERS"]
    ]
    assert origin_literals(tree) == origin_literals(strip) == list(ORIGIN_HEADERS)


def origin_literals(tree):
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ORIGIN_HEADERS
    ]
