#!/usr/bin/env python3
"""Design-space exploration: sub-header size and link bandwidth.

Reproduces the paper's two sensitivity studies on one workload:

* Figure 12 -- sweep the FinePack sub-transaction header from 2 to 6
  bytes (64 B to 256 GB aggregation windows) and watch the sweet spot
  appear at 4-5 bytes.
* Figure 13 -- sweep the interconnect from PCIe 3.0 to the projected
  PCIe 6.0 and watch FinePack stay ahead of both baselines at every
  bandwidth step.

    python examples/design_space_exploration.py
"""

from repro import FinePackConfig, RunSpec, TraceCache, labeled_sweep
from repro.analysis import format_table
from repro.interconnect import GENERATIONS


def main() -> None:
    base = RunSpec(workload="sssp", n_gpus=4, iterations=3)
    # Both sweeps replay one trace against one 1-GPU baseline.
    shared = dict(trace_cache=TraceCache(), baseline=base.single_gpu_baseline())

    configs = {b: FinePackConfig(subheader_bytes=b) for b in (2, 3, 4, 5, 6)}
    sweep = labeled_sweep(
        {f"{b}B": base.with_options(paradigm="finepack", finepack=cfg)
         for b, cfg in configs.items()},
        **shared,
    ).by_label()
    rows = []
    for b, cfg in configs.items():
        point = sweep[f"{b}B"]
        rows.append(
            [
                b,
                f"{cfg.window_bytes:,} B",
                point.speedup,
                point.metrics.wire_bytes / 1e6,
                point.metrics.packets.mean_stores_per_packet,
            ]
        )
    print(
        format_table(
            f"{base.workload}: sub-header size sweep (Fig. 12)",
            ["subheader_B", "window", "speedup", "wire_MB", "stores/pkt"],
            rows,
            float_fmt="{:.2f}",
        )
    )

    print()
    paradigms = ("p2p", "dma", "finepack")
    sweep = labeled_sweep(
        {f"gen{gen}/{p}": base.with_options(paradigm=p, generation=GENERATIONS[gen])
         for gen in sorted(GENERATIONS) for p in paradigms},
        **shared,
    ).by_label()
    rows = [
        [GENERATIONS[gen].name, *(sweep[f"gen{gen}/{p}"].speedup for p in paradigms)]
        for gen in sorted(GENERATIONS)
    ]
    print(
        format_table(
            f"{base.workload}: interconnect bandwidth sweep (Fig. 13)",
            ["link", *paradigms],
            rows,
            float_fmt="{:.2f}",
        )
    )
    print("\nFinePack leads at every bandwidth step -- more link bandwidth "
          "narrows but never closes the gap (paper Sec. VI-A).")


if __name__ == "__main__":
    main()
