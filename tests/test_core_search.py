"""Unit tests for the static-partition design-space search.

The sweep is Figure 4's store-backed spec batch
(:func:`repro.experiments.fig4_static_space`); these cases run it on two
apps at a short trace length.
"""

import pytest

from repro.core.search import PartitionPoint
from repro.experiments import fig4_static_space

LENGTH = 25_000
APPS = ("game", "email")


def sweep(user_way_options, kernel_way_options, tolerance=0.10):
    return fig4_static_space(LENGTH, APPS, user_way_options, kernel_way_options, tolerance)


class TestPartitionPoint:
    def test_total_ways(self):
        p = PartitionPoint(4, 2, 384 * 1024, 0.2, 0.2, 0.2)
        assert p.total_ways == 6


class TestSweep:
    def test_grid_size(self):
        assert len(sweep((2, 4), (1, 2)).points) == 4

    def test_bytes_computed_from_ways(self):
        assert sweep((2,), (1,)).points[0].total_bytes == 3 * 64 * 1024

    def test_bigger_partitions_do_not_miss_more(self):
        points = {(p.user_ways, p.kernel_ways): p for p in sweep((2, 8), (2, 8)).points}
        assert points[(8, 8)].demand_miss_rate <= points[(2, 2)].demand_miss_rate + 1e-9

    def test_rejects_empty_streams(self):
        with pytest.raises(ValueError, match="at least one app"):
            fig4_static_space(LENGTH, ())


class TestFind:
    def test_picks_admissible_minimum(self):
        chosen = sweep((2, 8), (2, 8), tolerance=0.5).chosen
        # with a generous tolerance the smallest config should win
        assert chosen.total_ways == 4

    def test_tight_tolerance_prefers_larger(self):
        loose = sweep((2, 10), (2, 6), tolerance=1.0).chosen
        tight = sweep((2, 10), (2, 6), tolerance=0.005).chosen
        assert tight.total_bytes >= loose.total_bytes

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            sweep((2,), (2,), tolerance=-0.1)

    def test_falls_back_to_best_point(self):
        # impossible budget: nothing admissible, must return lowest-mr point
        chosen = sweep((1,), (1,), tolerance=0.0).chosen
        assert chosen.user_ways == 1 and chosen.kernel_ways == 1
