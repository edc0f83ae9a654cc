"""Byte-for-byte CLI output goldens.

Each case runs one ``python -m repro`` command in-process and diffs its
exact stdout against ``tests/data/cli/<case>.txt``.  The commands use
``--jobs 1`` where they accept it: with worker processes the
trace-cache hit/miss line depends on which worker generates a shared
trace first.

Regenerate the goldens (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "cli"
SMALL = ("--gpus", "2", "--iterations", "1")

#: case name -> argv; ``{trace}`` is a jacobi trace saved by ``repro trace``.
CASES = {
    "run_jacobi_finepack": ("run", "jacobi", "finepack", *SMALL),
    "run_jacobi_finepack_timeline": (
        "run", "jacobi", "finepack", *SMALL, "--timeline",
    ),
    "compare_jacobi": ("compare", "jacobi", *SMALL, "--jobs", "1"),
    "sweep_jacobi_ct_paradigm": (
        "sweep", "jacobi,ct", "paradigm", *SMALL, "--jobs", "1",
    ),
    "sweep_jacobi_subheader": (
        "sweep", "jacobi", "subheader", *SMALL, "--jobs", "1",
    ),
    "sweep_jacobi_generation": (
        "sweep", "jacobi", "generation", *SMALL, "--jobs", "1",
    ),
    "sweep_jacobi_paradigm_analytical_refined": (
        "sweep", "jacobi", "paradigm", *SMALL, "--jobs", "1",
        "--fidelity", "analytical", "--refine-top", "1",
    ),
    "chaos_jacobi_partition": (
        "chaos", "jacobi", "--scenario", "partition", "--intensities", "0",
        "1", "--paradigms", "finepack", *SMALL, "--jobs", "1",
    ),
    "replay_jacobi_finepack": ("replay", "{trace}", "finepack", *SMALL),
}


def cli_output(argv, trace_path: Path) -> str:
    out = io.StringIO()
    argv = [a.replace("{trace}", str(trace_path)) for a in argv]
    assert main(argv, out=out) == 0
    return out.getvalue()


def save_trace(directory: Path) -> Path:
    path = directory / "jacobi.npz"
    assert main(["trace", "jacobi", str(path), *SMALL], out=io.StringIO()) == 0
    return path


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory) -> Path:
    return save_trace(tmp_path_factory.mktemp("cli-golden"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, trace_path):
    expected = (GOLDEN_DIR / f"{case}.txt").read_text(encoding="utf-8")
    assert cli_output(CASES[case], trace_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_trace(Path(tmp))
        for case, argv in sorted(CASES.items()):
            (GOLDEN_DIR / f"{case}.txt").write_text(
                cli_output(argv, path), encoding="utf-8"
            )
            print(f"wrote {case}", file=sys.stderr)
