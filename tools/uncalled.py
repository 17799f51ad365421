"""List the functions of ``src/repro`` that no runtime surface calls.

Usage (from anywhere inside the repository; no arguments)::

    python3 tools/uncalled.py

It exports the committed ``HEAD`` with ``git archive`` into a temporary
directory and runs everything there: the smoke benches rewrite the
tracked ``benchmarks/results/`` tables, so they never run in the working
tree, and uncommitted edits are not counted. A ``sitecustomize.py`` on
``PYTHONPATH`` hooks ``sys.setprofile`` and ``threading.setprofile`` in
every Python process started (the ledger's per-workload subprocesses
too) and records each call event of code under ``src/repro``. The
command set:

* the six examples;
* the perf ledger at ``--scale 0.02 --reps 2 --traced``, and
  ``--selfcheck``;
* every ``benchmarks/bench_*.py`` but ``bench_hotpath.py``, at
  ``BENCH_SCALE=0.1 BENCH_SMOKE=1`` with ``--benchmark-disable``
  (pytest-benchmark switches the profiler off during timed calls);
* ``benchmarks/health_smoke.py``.

Tests are not callers. It prints, by module, the module-level functions
and the methods never called, with their line spans and totals. A
decorated function is keyed on its first decorator line, which is its
code object's ``co_firstlineno``. A name that also appears in a file
under ``benchmarks/`` (a dunder aside) is flagged ``[bench]``: the
benchmarks may import or patch it, as the ledger does ``RecordBatch``.

Zero calls is where to look, not a verdict: a function reached only by a
fault path, a debug bundle or a test oracle may well stay. Each one that
stays on purpose has a line in ``uncalled_allowlist.txt`` next to this
file, ``<module> <qualified name>  <reason>`` with the module as printed
here; those are listed apart, with their reasons, and every other
uncalled function is unexplained. A tier-1 test
(``tests/test_layering_structure.py``) fails an allowlist line whose
function is no longer defined. It takes a few minutes and is not a CI
step.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_ROOT = {root!r}
_OUT = {out!r}
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_ROOT):
            _seen.add((code.co_filename, code.co_firstlineno))


def _dump():
    sys.setprofile(None)
    with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "w") as f:
        f.writelines(f"{{name}}:{{line}}\\n" for name, line in _seen)


atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''

EXAMPLES = (
    "quickstart.py", "failure_recovery.py", "elastic_scaling.py",
    "revision_processing.py", "bloomberg_mxflow.py", "expedia_conversations.py",
)


ALLOWLIST = Path(__file__).with_name("uncalled_allowlist.txt")


def read_allowlist(path: Path = ALLOWLIST) -> dict:
    """(module, qualified name) -> reason, one per non-comment line."""
    allowed = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            module, name, reason = line.split(None, 2)
            allowed[module, name] = reason
    return allowed


def export_head(into: Path) -> None:
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
        check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "HEAD"], cwd=top, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_surfaces(tree: Path, hooks: Path) -> None:
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join((str(hooks), str(tree / "src"))),
        # The ledger re-executes itself unless the hash seed is already 0;
        # an exec'd-over process would never write what it recorded.
        PYTHONHASHSEED="0",
    )
    smoke = dict(env, BENCH_SCALE="0.1", BENCH_SMOKE="1")
    python = sys.executable
    benches = tree / "benchmarks"
    commands = [
        ([python, name], tree / "examples", env) for name in EXAMPLES
    ] + [
        ([python, "ledger/run.py", "--scale", "0.02", "--reps", "2", "--traced"],
         benches, env),
        ([python, "ledger/run.py", "--selfcheck"], benches, env),
    ] + [
        ([python, "-m", "pytest", "-q", "-p", "no:cacheprovider", path.name,
          "--benchmark-disable"], benches, smoke)
        for path in sorted(benches.glob("bench_*.py"))
        if path.name != "bench_hotpath.py"
    ] + [
        ([python, "health_smoke.py"], benches, env),
    ]
    for argv, cwd, environ in commands:
        print("$", " ".join(argv[1:]), file=sys.stderr, flush=True)
        done = subprocess.run(
            argv, cwd=cwd, env=environ, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        if done.returncode != 0:
            print(f"  exited with {done.returncode}", file=sys.stderr)


def definitions(package: Path):
    """(module, qualified name, first line, last line) of every module-level
    function and every method, the first line being the first decorator's."""
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package.parent).as_posix()
        tree = ast.parse(path.read_text())
        pending = [(node, "") for node in tree.body]
        while pending:
            node, prefix = pending.pop(0)
            if isinstance(node, ast.ClassDef):
                pending += [(child, f"{prefix}{node.name}.") for child in node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield module, prefix + node.name, first, node.end_lineno


def bench_words(tree: Path) -> set:
    words = set()
    for path in (tree / "benchmarks").rglob("*.py"):
        words |= set(re.findall(r"\w+", path.read_text()))
    return words


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="uncalled-") as scratch:
        scratch = Path(scratch)
        tree, hooks, calls = scratch / "tree", scratch / "hooks", scratch / "calls"
        for directory in (tree, hooks, calls):
            directory.mkdir()
        export_head(tree)
        package = tree / "src" / "repro"
        (hooks / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(root=f"{package}{os.sep}", out=str(calls))
        )
        run_surfaces(tree, hooks)
        seen = set()
        for dump in calls.glob("*.txt"):
            for line in dump.read_text().splitlines():
                name, _, first = line.rpartition(":")
                seen.add((Path(name).relative_to(package.parent).as_posix(), int(first)))
        used_by_benches = bench_words(tree)
        uncalled = defaultdict(list)
        total = lines = 0
        for module, name, first, last in definitions(package):
            total += 1
            if (module, first) not in seen:
                uncalled[module].append((name, first, last))
                lines += last - first + 1
    allowed = read_allowlist()
    unexplained = {
        module: [f for f in found if (module, f[0]) not in allowed]
        for module, found in uncalled.items()
    }
    explained = {
        module: [f for f in found if (module, f[0]) in allowed]
        for module, found in uncalled.items()
    }
    print("Unexplained:")
    unexplained_total = report(unexplained, used_by_benches)
    print(f"\nAllowlisted ({ALLOWLIST.name}):")
    explained_total = report(explained, used_by_benches, allowed)
    count = sum(map(len, uncalled.values()))
    print(f"\n{count} of {total} functions uncalled ({lines} lines): "
          f"{unexplained_total} unexplained, {explained_total} allowlisted")
    return 0


def report(uncalled, used_by_benches, reasons=None) -> str:
    """Print ``uncalled`` by module, a reason after each name that has
    one, then its totals by package; returns the grand total."""
    by_package = defaultdict(lambda: [0, 0])
    for module, found in sorted(uncalled.items()):
        if not found:
            continue
        span = sum(last - first + 1 for _, first, last in found)
        print(f"{module}: {len(found)} uncalled, {span} lines")
        for name, first, last in found:
            short = name.rsplit(".", 1)[-1]
            dunder = short.startswith("__") and short.endswith("__")
            flag = "  [bench]" if short in used_by_benches and not dunder else ""
            why = f"  {reasons[module, name]}" if reasons else ""
            print(f"    {first:5d}-{last:<5d} {name}{flag}{why}")
        parts = module.split("/")
        key = parts[1] if len(parts) > 2 else parts[-1].removesuffix(".py")
        by_package[key][0] += len(found)
        by_package[key][1] += span
    count = sum(n for n, _ in by_package.values())
    lines = sum(span for _, span in by_package.values())
    print(", ".join(
        f"{key} {n} ({span} lines)"
        for key, (n, span) in sorted(by_package.items(), key=lambda kv: -kv[1][0])
    ) or "none")
    return f"{count} ({lines} lines)"


if __name__ == "__main__":
    sys.exit(main())
