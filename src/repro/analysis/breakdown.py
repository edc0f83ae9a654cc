"""Cross-paradigm comparison helpers (paper Figures 9 and 10).

:func:`geomean` is Figure 9's cross-workload speedup aggregate; the
rest break wire bytes down per paradigm for Figure 10.  The breakdown helpers read a :class:`~repro.run.SweepRun` whose labels
are paradigm names -- the shape ``labeled_sweep({p: spec.with_options(
paradigm=p) for p in paradigms})`` produces.
"""

from __future__ import annotations

from ..sim.metrics import RunMetrics


def geomean(values: list[float]) -> float:
    """Geometric mean (the paper's cross-workload aggregate)."""
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values}")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def bytes_normalized_to(sweep, reference: str = "dma") -> dict[str, dict[str, float]]:
    """Each point's byte categories over the ``reference`` point's
    total wire bytes (Figure 10)."""
    ref_total = sweep.by_label()[reference].metrics.bytes.total
    if ref_total == 0:
        raise ValueError(f"reference paradigm {reference!r} moved no bytes")
    out: dict[str, dict[str, float]] = {}
    for p in sweep.points:
        b = p.metrics.bytes
        out[p.label] = {
            "useful": b.useful / ref_total,
            "protocol_overhead": b.overhead / ref_total,
            "wasted": b.wasted / ref_total,
            "total": b.total / ref_total,
        }
    return out


def breakdown_rows(sweep, reference: str = "dma") -> list[list[object]]:
    """Figure 10 rows for one workload: byte categories normalized to
    the bulk-DMA paradigm's total."""
    return [
        [
            sweep.workload,
            paradigm,
            cats["useful"],
            cats["protocol_overhead"],
            cats["wasted"],
            cats["total"],
        ]
        for paradigm, cats in bytes_normalized_to(sweep, reference).items()
        if paradigm != "infinite"
    ]


def data_reduction_factors(sweep) -> dict[str, float]:
    """FinePack's wire-byte reduction vs the baselines (the paper's
    headline '2.7x less data than P2P, 1.3x less than DMA')."""
    runs = sweep.by_label()
    fp = runs["finepack"].metrics.wire_bytes
    return {
        name: runs[name].metrics.wire_bytes / fp
        for name in ("p2p", "dma", "wc")
        if name in runs and fp
    }


def wasted_fraction(metrics: RunMetrics) -> float:
    """Share of on-wire bytes that were wasted (redundant or unread)."""
    return metrics.bytes.wasted / metrics.bytes.total if metrics.bytes.total else 0.0
