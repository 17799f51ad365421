"""Structural guard: the log moves column lists, not records.

``repro/log`` and ``repro/broker/fetch.py`` are the one implementation of
the fetch; a ``for record in batch.records``-style loop there reintroduces
per-record materialization (and a second copy of the visibility rule).
On the write path every writer hands the log a ``ColumnarSlab`` and a
marker is appended by its fields, so ``Record(...)`` is constructed in
``src`` only behind the lazy scalar view. On the client side
``Consumer.poll`` hands out ``ConsumerRecord``s built from the five columns
a Kafka consumer can see; origin is the record's ``topic`` / ``partition``.
A fetched run is walked once for its columns: whoever reads two or more
columns of one fetch reads them through ``ColumnarBatch.columns()``.
Headers are frozen once, where a producer takes them, and shared from then
on: no log, reader, intake, operator hop or sink builds, copies or merges
a header mapping per record in an untraced run. The log's scan index
is cut back by every method that moves a stored batch or changes which
ones are aborted, and its column prefix, which fetch results slice, is
only ever extended at its end or replaced.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
READ_PATH = sorted((SRC / "log").glob("*.py")) + [SRC / "broker" / "fetch.py"]
LOOPS = (ast.For, ast.AsyncFor, ast.comprehension)


def loops(tree):
    return [node for node in ast.walk(tree) if isinstance(node, LOOPS)]


def iterates_records(loop) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "records"
        for node in ast.walk(loop.iter)
    )


def test_no_per_record_loops_on_the_read_path():
    offenders = [
        f"{path.relative_to(SRC)}:{loop.iter.lineno}"
        for path in READ_PATH
        for loop in loops(ast.parse(path.read_text()))
        if iterates_records(loop)
    ]
    assert not offenders, f"per-record loop on the columnar read path: {offenders}"


def test_broker_fetch_is_loop_free():
    """Visibility filtering lives in PartitionLog.read_columnar; the broker
    fetch only picks the isolation level's limit and delegates."""
    tree = ast.parse((SRC / "broker" / "fetch.py").read_text())
    assert not loops(tree)
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.While)]


# Where ``src`` may build a ``Record``: the per-batch scalar view
# (``PartitionLog.read`` / ``records`` / ``ColumnarBatch.records`` all end
# there). Nothing writes one.
RECORD_BUILDERS = {("log/columnar.py", "StoredBatch.records")}
# Where ``src`` may build a ``ColumnarSlab``: the producer's flush, the two
# coordinators' own log writes, and the scalar constructor for callers that
# write record by record.
SLAB_BUILDERS = {
    ("clients/producer.py", "Producer._send_batch"),
    ("broker/group_coordinator.py", "GroupCoordinator.commit_offsets"),
    ("broker/txn_coordinator.py", "TransactionCoordinator._persist"),
    ("log/record.py", "RecordBatch"),
}


def sites(source, matches):
    """Enclosing qualified name (``Class.method``, ``""`` at module level)
    of every node of ``source`` that ``matches``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = scope + [child.name]
            if matches(child):
                found.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(source), [])
    return found


def sources(directory=SRC):
    """Path relative to ``src/repro`` -> source, for every module below
    ``directory``."""
    return {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(directory.rglob("*.py"))
    }


def constructions(name, modules):
    """(file, enclosing qualified name) of every ``name(...)`` call."""
    def built(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        )

    return {
        (relative, scope)
        for relative, source in modules.items()
        for scope in sites(source, built)
    }


def test_the_log_builds_records_only_behind_the_scalar_view():
    modules = sources()
    assert constructions("Record", modules) == RECORD_BUILDERS
    assert constructions("ColumnarSlab", modules) == SLAB_BUILDERS
    # The guard sees a writer that builds records again: an offset commit
    # as it was.
    where = "broker/group_coordinator.py"
    modules[where] += (
        "\n\ndef commit_offsets(group_id, target, offset, now):\n"
        "    return Record(key=(group_id, target), value=offset, timestamp=now)\n"
    )
    assert constructions("Record", modules) == RECORD_BUILDERS | {
        (where, "commit_offsets")
    }


def test_markers_are_appended_by_their_fields():
    """Control type, producer id and epoch (and a timestamp) — never a
    marker record built somewhere else and handed over."""
    calls = [
        node
        for source in sources().values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and callee(node) == "append_marker"
    ]
    assert len(calls) >= 2      # the coordinator's, and the partition's relay
    assert all(len(call.args) + len(call.keywords) >= 3 for call in calls)


def test_only_the_scalar_checker_imports_the_log_record_outside_the_log():
    importers = {
        relative
        for relative, source in sources().items()
        if not relative.startswith("log/")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name in ("Record", "RecordBatch") for alias in node.names)
    }
    assert importers == {"sim/invariants.py"}


# -- the client edge ------------------------------------------------------------


def test_clients_neither_import_nor_build_the_log_record():
    offenders = []
    for relative, source in sources(SRC / "clients").items():
        offenders += [
            (relative, f"import at line {node.lineno}")
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and any(alias.name == "Record" for alias in node.names)
        ]
    assert not offenders
    assert not constructions("Record", sources(SRC / "clients"))


# What a Kafka consumer can see of a fetched batch: where it was read, and
# ``columns()`` — offsets, timestamps, keys, values and headers, gathered
# in one walk of the run. Producer id, epoch, sequence and the
# transactional flag are batch-level facts of the log.
CLIENT_VISIBLE = {"topic", "partition", "columns"}


def function(relative, qualified):
    """The ``ast.FunctionDef`` of ``Class.method`` in ``SRC / relative``."""
    node = ast.parse((SRC / relative).read_text())
    for name in qualified.split("."):
        (node,) = [
            child for child in node.body
            if isinstance(child, (ast.ClassDef, ast.FunctionDef))
            and child.name == name
        ]
    return node


def test_poll_reads_only_the_client_visible_columns():
    """Rewritten for the one-walk contract: ``poll`` used to read the five
    single-column accessors by name (five walks of each fetched run); it
    now reads where the batch came from and ``columns()``, nothing else."""
    poll = function("clients/consumer.py", "Consumer.poll")
    read = {
        node.attr
        for node in ast.walk(poll)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "batch"
    }
    assert read == CLIENT_VISIBLE


# -- one walk per fetched run ------------------------------------------------------

#: A fetch result's single-column accessors (``ColumnarBatch``).
ACCESSORS = {"offsets", "timestamps", "keys", "values", "headers", "producer_ids"}
#: The two a ``dict`` has too: a receiver that calls only these is taken
#: for a fetch result only where the function bound it to one.
DICT_VIEWS = {"keys", "values"}
#: Calls whose result is a fetch result.
FETCHES = {"fetch", "read_columnar", "handle_fetch", "handle_fetch_columnar"}


def callee(call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def fetch_results(scope):
    """Names ``scope`` binds to a fetch result: assigned from a fetch, or
    the loop variable over ``poll_batches(...)``."""
    bound = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if callee(node.value) in FETCHES:
                bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.For, ast.comprehension)):
            if (
                isinstance(node.iter, ast.Call)
                and callee(node.iter) == "poll_batches"
                and isinstance(node.target, ast.Name)
            ):
                bound.add(node.target.id)
    return bound


def repeated_walks(tree):
    """``(function, receiver, accessors)`` wherever one function calls two
    or more single-column accessors on the same fetch result — each call
    one more walk of the run that ``columns()`` would have made once."""
    found = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        called = {}
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ACCESSORS
                and not node.args
            ):
                called.setdefault(ast.unparse(node.func.value), set()).add(
                    node.func.attr
                )
        results = fetch_results(scope)
        found += [
            (scope.name, receiver, sorted(names))
            for receiver, names in called.items()
            if len(names) >= 2 and (names - DICT_VIEWS or receiver in results)
        ]
    return found


#: Negative controls: where a mutant would sit -> the smallest source that
#: breaks the rule there. The first is the group coordinator's offset
#: fetch as it was.
ONE_WALK_MUTANTS = {
    "broker/group_coordinator.py": (
        "def fetch_committed(self, group_id, partitions):\n"
        "    result = fetch(log, log.log_start_offset, max_records=2**31)\n"
        "    for key, offset in zip(result.keys(), result.values()):\n"
        "        pass\n"
    ),
    "streams/runtime/task.py": (
        "def add_batch(self, tp, batch):\n"
        "    self._queues.add_columns(tp, batch.keys(), batch.timestamps())\n"
    ),
}


def test_no_function_walks_one_fetch_twice():
    offences = {
        path.relative_to(SRC).as_posix(): found
        for path in sorted(SRC.rglob("*.py"))
        if (found := repeated_walks(ast.parse(path.read_text())))
    }
    assert not offences, (
        f"read two or more columns of one fetch through columns(): {offences}"
    )
    for where, mutant in ONE_WALK_MUTANTS.items():
        assert (SRC / where).exists()
        assert repeated_walks(ast.parse(mutant))
    # ... and a dict's own ``keys()`` / ``values()`` are not a fetch's.
    assert not repeated_walks(ast.parse(
        "def f(d):\n    return zip(d.keys(), d.values())\n"
    ))


ORIGIN_HEADERS = ("__topic", "__partition")


def test_origin_headers_are_named_only_where_they_are_made_or_stripped():
    """Nothing makes them and nothing strips them any more — where a
    record was read is ``record.topic`` / ``record.partition`` — so they
    are named nowhere: not in code, a docstring or a comment."""
    named = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if any(header in path.read_text() for header in ORIGIN_HEADERS)
    }
    assert named == set()


# -- headers: frozen once, shared by reference ever after --------------------------


def is_traced_branch(node) -> bool:
    """``if self._tracer.enabled:`` (or ``tracer.enabled``)."""
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Attribute)
        and node.test.attr == "enabled"
    )


def untraced(node):
    """Every node of ``node`` outside the bodies of its traced branches."""
    for child in ast.iter_child_nodes(node):
        if is_traced_branch(node) and child in node.body:
            continue
        yield child
        yield from untraced(child)


def mentions_headers(node) -> bool:
    return any(
        (isinstance(n, ast.Name) and n.id == "headers")
        or (isinstance(n, ast.Attribute) and n.attr == "headers")
        for n in ast.walk(node)
    )


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def header_mappings_built(nodes):
    """Line numbers where a header mapping is built, copied or merged: a
    non-empty dict display, any use of the name ``dict`` (a call, or
    ``map(dict, ...)``), a comprehension that iterates over headers."""
    found = []
    for node in nodes:
        if (
            (isinstance(node, ast.Dict) and node.values)
            or (isinstance(node, ast.Name) and node.id == "dict")
            or (
                isinstance(node, COMPREHENSIONS)
                and any(mentions_headers(g.iter) for g in node.generators)
            )
        ):
            found.append(node.lineno)
    return found


# Every hop between ``Producer.send`` and the caller of ``poll()`` /
# ``poll_batches()`` that used to build one header dict per record.
HEADER_HOPS = [
    ("log/partition_log.py", "PartitionLog._adopt"),
    ("clients/consumer.py", "Consumer.poll"),
    ("streams/runtime/task.py", "StreamTask.add_batch"),
    ("streams/runtime/task.py", "StreamTask._dispatch"),
    ("streams/runtime/task.py", "StreamTask._send_chunk_to_sink"),
    ("clients/producer.py", "Producer.send_chunk"),
]


def test_no_hop_builds_a_header_mapping_in_an_untraced_run():
    offenders = {
        (relative, qualified): lines
        for relative, qualified in HEADER_HOPS
        if (lines := header_mappings_built(untraced(function(relative, qualified))))
    }
    assert not offenders
    # The guard sees what it guards against: traced, the task stamps by
    # copy — one merged dict per record at dispatch, one at the sink.
    for qualified in ("StreamTask._dispatch", "StreamTask._send_chunk_to_sink"):
        task = function("streams/runtime/task.py", qualified)
        assert header_mappings_built(ast.walk(task))


def name_sites(name):
    """(file, enclosing qualified name) of every use of the bare name
    ``name`` anywhere in ``src`` (imports are not uses)."""
    return {
        (relative, scope)
        for relative, source in sources().items()
        for scope in sites(
            source, lambda node: isinstance(node, ast.Name) and node.id == name
        )
    }


def test_headers_are_frozen_where_a_producer_takes_them():
    """``FrozenHeaders`` is constructed at the producer's two entry points
    — ``send`` has to copy the caller's dict anyway, ``send_columns`` tests
    a column per call (``_ALL_FROZEN``, at module level) and copies the
    exceptions — and, traced only, where ``send_chunk`` roots a fresh
    record's trace and where a task stamps a chunk. The log adopts what it
    is given; everyone else shares what those made."""
    assert name_sites("FrozenHeaders") == {
        ("log/record.py", ""),                      # NO_HEADERS
        ("log/record.py", "FrozenHeaders.__reduce__"),
        ("clients/producer.py", ""),                # _ALL_FROZEN
        ("clients/producer.py", "Producer.send"),
        ("clients/producer.py", "Producer.send_columns"),
        ("clients/producer.py", "Producer.send_chunk"),
        ("streams/runtime/task.py", "StreamTask._dispatch"),
    }
    # ... in ``send_chunk`` and ``_dispatch`` only under ``tracer.enabled``,
    # and nowhere in the log: its direct writers (coordinators, markers)
    # carry no headers.
    for relative, qualified in [
        ("clients/producer.py", "Producer.send_chunk"),
        ("streams/runtime/task.py", "StreamTask._dispatch"),
    ]:
        assert not [
            node for node in untraced(function(relative, qualified))
            if isinstance(node, ast.Name) and node.id == "FrozenHeaders"
        ], qualified


# -- the scan index: whatever invalidates it cuts it ---------------------------------

#: ``PartitionLog`` methods that delete, rebind or replace entries of
#: ``_batches`` (appending at the end moves no stored batch), or that write
#: the aborted spans: each must call ``_cut_scan_index``. A closed list: a
#: new writer joins it, cut included.
SCAN_INDEX_CUTTERS = {
    "_index_aborted", "replicate_mirror", "truncate_to", "reset_to",
    "delete_records_before",
}
#: Attribute -> the in-place list calls that leave every entry where it was.
INDEX_INPUTS = {
    "_batches": {"append", "extend"},
    "_aborted": set(),
    "_aborted_index": set(),
}


def writes(method, attribute, end_appends):
    """Does ``method`` write ``self.<attribute>`` (or a local name bound to
    it) other than by ``end_appends``?"""
    own = f"self.{attribute}"
    names = {own} | {
        ast.unparse(target)
        for node in ast.walk(method)
        if isinstance(node, ast.Assign) and ast.unparse(node.value) == own
        for target in node.targets
    }

    def subscripted(node):
        return isinstance(node, ast.Subscript) and ast.unparse(node.value) in names

    for node in ast.walk(method):
        if isinstance(node, ast.Delete) and any(map(subscripted, node.targets)):
            return True
        if isinstance(node, ast.Assign) and any(
            subscripted(target) or ast.unparse(target) == own
            for target in node.targets
        ):
            return True
        if isinstance(node, ast.AugAssign) and ast.unparse(node.target) in names:
            if not (isinstance(node.op, ast.Add) and end_appends):
                return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value) in names
            and node.func.attr not in end_appends | {"get"}
        ):
            return True
    return False


def scan_index_offences(log_class):
    """(writers of the index's inputs, writers among them that never call
    ``self._cut_scan_index``)."""
    methods = [
        node for node in log_class.body
        if isinstance(node, ast.FunctionDef) and node.name != "__init__"
    ]
    writers = {
        method.name
        for method in methods
        for attribute, end_appends in INDEX_INPUTS.items()
        if writes(method, attribute, end_appends)
    }
    uncut = {
        method.name
        for method in methods
        if method.name in writers
        and "self._cut_scan_index" not in {
            ast.unparse(node.func) for node in ast.walk(method)
            if isinstance(node, ast.Call)
        }
    }
    return writers, uncut


def test_every_write_that_invalidates_the_scan_index_cuts_it():
    log_class = function("log/partition_log.py", "PartitionLog")
    assert scan_index_offences(log_class) == (SCAN_INDEX_CUTTERS, set())
    # The planted mutant: delete_records_before without its cut.
    (delete,) = [
        node for node in log_class.body
        if getattr(node, "name", "") == "delete_records_before"
    ]
    delete.body = [
        statement for statement in delete.body
        if "_cut_scan_index" not in ast.unparse(statement)
    ]
    assert scan_index_offences(log_class) == (
        SCAN_INDEX_CUTTERS, {"delete_records_before"}
    )


# -- the column prefix: extended at its end, replaced by a cut -----------------------

#: ``PartitionLog`` methods -> what each may do to the column prefix. Only a
#: cut (and a build afresh) rebinds it, and only its extender writes its
#: lists, only at their end: a fetch result slices them, so a write
#: anywhere else would change the columns of a batch already handed out.
#: A closed list.
PREFIX_WRITERS = {
    "__init__": {"rebinds"},
    "_column_to": {"rebinds", "extends"},        # built afresh, then extended
    "_cut_scan_index": {"rebinds"},              # a copy of its valid head
}
END_APPENDS = {"append", "extend"}


def prefix_writes(method):
    """What ``method`` does to the column prefix: a subset of ``rebinds``
    (``self._prefix`` itself), ``extends`` (``+=``, ``append`` or
    ``extend`` on one of its lists) and ``writes inside`` (any other write
    to one of its lists). A list is ``self._prefix[i]`` or a local name
    unpacked or iterated from ``self._prefix``."""
    own = "self._prefix"
    names = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and ast.unparse(node.value) == own:
            bound = node.targets
        elif isinstance(node, (ast.For, ast.comprehension)) and ast.unparse(node.iter) == own:
            bound = [node.target]
        else:
            continue
        names |= {
            name.id for target in bound for name in ast.walk(target)
            if isinstance(name, ast.Name)
        }

    def is_list(node):
        return ast.unparse(node) in names or (
            isinstance(node, ast.Subscript) and ast.unparse(node.value) == own
        )

    def inside(node):
        return isinstance(node, ast.Subscript) and is_list(node.value)

    found = set()
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(ast.unparse(target) == own for target in targets):
                found.add("rebinds")
            elif isinstance(node, ast.AugAssign) and is_list(node.target):
                found.add("extends" if isinstance(node.op, ast.Add) else "writes inside")
            elif any(map(inside, targets)):
                found.add("writes inside")
        elif isinstance(node, ast.Delete) and any(
            is_list(target) or inside(target) for target in node.targets
        ):
            found.add("writes inside")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and is_list(node.func.value)
        ):
            found.add("extends" if node.func.attr in END_APPENDS else "writes inside")
    return found


def prefix_writers(log_class):
    """method name -> what it does to the column prefix, for every method
    that does something."""
    return {
        node.name: found
        for node in log_class.body
        if isinstance(node, ast.FunctionDef) and (found := prefix_writes(node))
    }


def test_the_column_prefix_is_extended_only_at_its_end_and_replaced_only_by_a_cut():
    log_class = function("log/partition_log.py", "PartitionLog")
    assert prefix_writers(log_class) == PREFIX_WRITERS
    # The planted mutants: the cut truncates the lists in place, and a read
    # appends to one.
    (cut,) = [
        node for node in log_class.body
        if getattr(node, "name", "") == "_cut_scan_index"
    ]
    cut.body += ast.parse("for column in self._prefix:\n    del column[end:]").body
    (window,) = [
        node for node in log_class.body if getattr(node, "name", "") == "_window"
    ]
    window.body.insert(0, ast.parse("self._prefix[0].append(first)").body[0])
    writers = prefix_writers(log_class)
    assert writers["_cut_scan_index"] == {"rebinds", "writes inside"}
    assert writers["_window"] == {"extends"}
