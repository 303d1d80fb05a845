"""Each demo, run as a script from the repository root, prints the bytes
recorded in ``demos/expected/``. A numpy RuntimeWarning is an error there,
as in the rest of the suite: it means a nan result."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "demos" / "expected"


def test_every_demo_has_a_recording_and_every_recording_a_demo():
    assert DEMOS
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_its_recorded_bytes(demo):
    # the child inherits this run's environment, PYTHONPATH included
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", f"demos/{demo.name}"],
        cwd=ROOT, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
