"""Output checks: golden fingerprints at the default seed, invariants
that hold at any seed.

A cell fails when it raised, degraded, broke byte conservation
(useful <= payload <= wire), or -- at the default seed -- when its
:func:`repro.perf.harness.fingerprint_metrics` digest differs from the
committed golden in ``goldens.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDENS_FILE = Path(__file__).resolve().parent / "goldens.json"


def load_goldens() -> dict:
    if not GOLDENS_FILE.exists():
        return {}
    return json.loads(GOLDENS_FILE.read_text())


def invariant_errors(metrics) -> list[str]:
    """Checks that hold for any seed."""
    errors = []
    if metrics.degraded:
        errors.append("run degraded")
    b = metrics.bytes
    if not 0 <= b.useful <= b.payload <= b.total:
        errors.append(
            f"bytes not conserved: useful={b.useful} payload={b.payload} "
            f"wire={b.total}"
        )
    if not metrics.total_time_ns > 0:
        errors.append(f"non-positive run time {metrics.total_time_ns}")
    return errors


def check_cells(cells, golden: dict | None) -> dict[str, list[str]]:
    """``{label: [errors]}`` for every cell (empty list = passed).

    ``golden`` maps labels to fingerprints; pass ``None`` away from the
    default seed to check invariants only.  No cells at all is a
    failure: the workload did not run what it was meant to.
    """
    from repro.perf.harness import fingerprint_metrics

    if not cells:
        return {"no cells": ["no cells captured"]}
    out: dict[str, list[str]] = {}
    for cell in cells:
        errors = []
        if cell.error:
            errors.append(cell.error)
        if cell.metrics is None:
            errors.append("no metrics")
        else:
            if cell.degraded:
                errors.append("outcome degraded")
            errors += invariant_errors(cell.metrics)
            if golden is not None:
                want = golden.get(cell.label)
                got = fingerprint_metrics(cell.metrics)
                if want is None:
                    errors.append("no golden fingerprint")
                elif want != got:
                    errors.append(f"fingerprint {got[:12]} != golden {want[:12]}")
        if cell.label in out:
            errors.append("duplicate cell label")
        out[cell.label] = errors
    return out


def fingerprints(cells) -> dict[str, str]:
    from repro.perf.harness import fingerprint_metrics

    return {
        c.label: fingerprint_metrics(c.metrics)
        for c in cells
        if c.metrics is not None
    }
