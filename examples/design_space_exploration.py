#!/usr/bin/env python3
"""Scenario: an SoC architect sizing a partitioned mobile L2.

Given a target workload mix, this script answers two questions the paper's
Figure 3/4 answer for its platform:

1. How does the shared L2's miss rate respond to capacity?  (Is the
   baseline over-provisioned?)
2. What is the smallest user/kernel partition whose miss rate stays
   within a tolerance of the full-size shared cache?

Run:  python examples/design_space_exploration.py [trace_length]
"""

import sys

from repro.config import DEFAULT_PLATFORM
from repro.core import BaselineDesign, find_static_partition, sweep_partitions
from repro.engine.streamcache import load_stream
from repro.experiments import format_percent, format_table


def main() -> None:
    length = int(sys.argv[1]) if len(sys.argv) > 1 else 240_000
    apps = ("browser", "social", "game")

    print(f"Preparing L2 streams for {apps} ({length:,} accesses each) ...")
    streams = [load_stream(app, length) for app in apps]

    # -- question 1: capacity response of the shared cache ---------------
    rows = []
    for size_kb in (256, 512, 768, 1024, 2048):
        rates = []
        for stream in streams:
            # constant 1024 sets; capacity varies through the way count
            design = BaselineDesign(ways=size_kb // 64)
            rates.append(design.run(stream, DEFAULT_PLATFORM).l2_stats.demand_miss_rate)
        rows.append([f"{size_kb} KB", format_percent(sum(rates) / len(rates), 2)])
    print()
    print(format_table("Shared L2: miss rate vs capacity", ["size", "miss rate"], rows))

    # -- question 2: smallest admissible partition ------------------------
    print("\nSweeping user/kernel partitions (this replays only the L2) ...")
    points = sweep_partitions(
        streams, DEFAULT_PLATFORM,
        user_way_options=(4, 6, 8, 10), kernel_way_options=(2, 4, 6))
    rows = [
        [f"{p.user_ways}u+{p.kernel_ways}k", f"{p.total_bytes // 1024} KB",
         format_percent(p.demand_miss_rate, 2)]
        for p in sorted(points, key=lambda p: p.total_bytes)
    ]
    print(format_table("Partition design space", ["config", "total", "miss rate"], rows))

    chosen = find_static_partition(
        streams, DEFAULT_PLATFORM, tolerance=0.10,
        user_way_options=(4, 6, 8, 10), kernel_way_options=(2, 4, 6))
    print(
        f"\nSmallest partition within 10% of the shared baseline: "
        f"{chosen.user_ways} user ways + {chosen.kernel_ways} kernel ways "
        f"= {chosen.total_bytes // 1024} KB "
        f"(miss rate {format_percent(chosen.demand_miss_rate, 2)})"
    )


if __name__ == "__main__":
    main()
