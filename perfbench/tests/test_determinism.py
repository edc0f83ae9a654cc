"""Deterministic metrics repeat exactly across two runs.

Runs one traced repetition (with the accuracy pass) of the cheapest
DES workload twice, each in a fresh process, and compares the
accuracy errors, the simulation/packetizer/interconnect counts and the
cell fingerprints.  Takes about half a minute.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

DETERMINISTIC = (
    "trace.ops",
    "sim.stores",
    "sim.messages",
    "core.phase_ops_declined",
    "core.stores_per_packet",
    "interconnect.batch_runs",
    "interconnect.event_runs",
    "interconnect.wire_bytes",
)


def one_rep(tmp: Path) -> dict:
    tmp.mkdir()
    out = tmp / "rep.json"
    subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", "collectives-fattree-warm",
         "--seed", "3", "--tmp", str(tmp), "--t0", repr(time.monotonic()),
         "--trace", "1", "--post", "1", "--out", str(out)],
        check=True, env={**os.environ, "TMPDIR": str(tmp)},
    )
    return json.loads(out.read_text())


def test_deterministic_metrics_repeat(tmp_path):
    a, b = one_rep(tmp_path / "a"), one_rep(tmp_path / "b")
    assert a["accuracy"] == b["accuracy"]
    assert a["fingerprints"] == b["fingerprints"]
    assert a["stores"] == b["stores"] > 0
    for name in DETERMINISTIC:
        assert a["layers"][name] == b["layers"][name], name
    assert a["layers"]["sim.stores"] > 0
    assert a["layers"]["interconnect.batch_runs"] > 0
    assert all(not errs for errs in a["checks"].values())
