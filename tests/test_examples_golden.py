"""The examples' stdout, byte for byte, against recorded goldens.

Every example is an end-to-end run on the virtual clock with its seeds
fixed, so what it prints is a fingerprint of the whole stack: a change that
claims to move no record must leave all six byte-identical. The goldens
live in ``tests/golden/examples/<example>.out``. Re-record them only for an
intended behaviour change, from the commit whose output they should hold::

    cd examples && for f in *.py; do
        PYTHONPATH=../src python3 "$f" > "../tests/golden/examples/${f%.py}.out"
    done
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
GOLDEN = Path(__file__).resolve().parent / "golden" / "examples"


def test_every_example_has_a_golden():
    assert sorted(p.stem for p in EXAMPLES.glob("*.py")) == sorted(
        p.stem for p in GOLDEN.glob("*.out")
    )


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.out")))
def test_example_prints_its_golden(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, f"{name}.py"], cwd=EXAMPLES, env=env,
        capture_output=True, check=True, timeout=120,
    ).stdout
    assert out == (GOLDEN / f"{name}.out").read_bytes()
