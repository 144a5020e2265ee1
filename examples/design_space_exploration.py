#!/usr/bin/env python3
"""Scenario: an SoC architect sizing a partitioned mobile L2.

Given a target workload mix, this script answers two questions the paper's
Figure 3/4 answer for its platform:

1. How does the shared L2's miss rate respond to capacity?  (Is the
   baseline over-provisioned?)
2. What is the smallest user/kernel partition whose miss rate stays
   within a tolerance of the full-size shared cache?

Both sweeps are store-backed spec batches, so a rerun reads every
result from the persistent cache instead of re-simulating it.

Run:  python examples/design_space_exploration.py [trace_length]
"""

import sys

from repro.experiments import fig3_size_sweep, fig4_static_space, format_percent, format_table


def main() -> None:
    length = int(sys.argv[1]) if len(sys.argv) > 1 else 240_000
    apps = ("browser", "social", "game")
    print(f"Sweeping {apps} ({length:,} accesses each) ...")

    # -- question 1: capacity response of the shared cache ---------------
    # constant 1024 sets; capacity varies through the way count
    sizes = fig3_size_sweep(length, apps, sizes_kb=(256, 512, 768, 1024, 2048))
    rows = [[f"{size // 1024} KB", format_percent(mr, 2)] for size, mr in sizes.points]
    print()
    print(format_table("Shared L2: miss rate vs capacity", ["size", "miss rate"], rows))

    # -- question 2: smallest admissible partition ------------------------
    space = fig4_static_space(length, apps, user_way_options=(4, 6, 8, 10),
                              kernel_way_options=(2, 4, 6), tolerance=0.10)
    rows = [
        [f"{p.user_ways}u+{p.kernel_ways}k", f"{p.total_bytes // 1024} KB",
         format_percent(p.demand_miss_rate, 2)]
        for p in sorted(space.points, key=lambda p: p.total_bytes)
    ]
    print(format_table("Partition design space", ["config", "total", "miss rate"], rows))

    chosen = space.chosen
    print(
        f"\nSmallest partition within 10% of the shared baseline: "
        f"{chosen.user_ways} user ways + {chosen.kernel_ways} kernel ways "
        f"= {chosen.total_bytes // 1024} KB "
        f"(miss rate {format_percent(chosen.demand_miss_rate, 2)})"
    )


if __name__ == "__main__":
    main()
