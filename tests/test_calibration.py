"""Suite-level calibration tests: the paper's claims, as test bands.

These are the slowest tests in the suite (experiment-length traces) but
they are the ones that pin the reproduction to the paper:

* >40% of L2 accesses come from the kernel (suite mean);
* the static partition keeps the miss rate similar to the baseline;
* the static multi-retention STT-RAM technique saves ~75% L2 energy at a
  few percent performance loss;
* the dynamic technique saves more energy than the static one (~85%) at
  a slightly higher performance loss.

Bands are deliberately loose — they assert the *shape* of the result,
not the third digit.  EXPERIMENTS.md records the exact measured values.
"""

import numpy as np
import pytest

from repro.engine import JobSpec
from repro.experiments import (
    EXPERIMENT_TRACE_LENGTH,
    fig1_kernel_share,
    fig8_energy_summary,
    run_specs,
    table4_performance,
)
from repro.trace.workloads import APP_NAMES

pytestmark = pytest.mark.slow

LENGTH = EXPERIMENT_TRACE_LENGTH


def _result(design, app):
    """One canonical design's experiment-length result on ``app``."""
    return run_specs({design: JobSpec(design, app)})[design]


class TestMotivation:
    def test_kernel_share_exceeds_40_percent(self):
        r = fig1_kernel_share(LENGTH)
        assert r.mean > 0.40
        # and every app shows a substantial kernel component
        assert min(r.shares.values()) > 0.25

    def test_baseline_miss_rate_plausible(self):
        rates = [
            _result("baseline", app).l2_stats.demand_miss_rate
            for app in APP_NAMES
        ]
        assert 0.08 < float(np.mean(rates)) < 0.40

    def test_interference_exists_in_baseline(self):
        xevicts = [
            _result("baseline", app).l2_stats.cross_privilege_evictions
            for app in APP_NAMES
        ]
        assert float(np.mean(xevicts)) > 100


class TestStaticTechnique:
    def test_partition_keeps_miss_rate_similar(self):
        deltas = []
        for app in APP_NAMES:
            base = _result("baseline", app).l2_stats.demand_miss_rate
            part = _result("static-sram", app).l2_stats.demand_miss_rate
            deltas.append(part - base)
        assert float(np.mean(deltas)) < 0.02  # within 2 points of the baseline

    def test_static_stt_energy_saving_near_75_percent(self):
        saving = fig8_energy_summary(LENGTH).saving("static-stt")
        assert 0.65 < saving < 0.85

    def test_static_perf_loss_small(self):
        loss = table4_performance(LENGTH).mean("static-stt")
        assert loss < 0.06  # the paper reports ~2%; we stay in single digits


class TestDynamicTechnique:
    def test_dynamic_saves_more_than_static(self):
        summary = fig8_energy_summary(LENGTH)
        assert summary.saving("dynamic-stt") > summary.saving("static-stt")

    def test_dynamic_energy_saving_near_85_percent(self):
        saving = fig8_energy_summary(LENGTH).saving("dynamic-stt")
        assert 0.75 < saving < 0.92

    def test_dynamic_perf_loss_above_static_but_bounded(self):
        t = table4_performance(LENGTH)
        assert t.mean("static-stt") <= t.mean("dynamic-stt") < 0.12

    def test_dynamic_uses_less_capacity_time(self):
        for app in ("browser", "social"):
            dyn = _result("dynamic-stt", app)
            static = _result("static-stt", app)
            dyn_bs = sum(s.byte_seconds for s in dyn.segments)
            static_bs = sum(s.byte_seconds for s in static.segments)
            assert dyn_bs < static_bs


class TestOrdering:
    def test_energy_ordering_of_all_designs(self):
        summary = fig8_energy_summary(LENGTH)
        assert (
            summary.mean("baseline")
            > summary.mean("static-sram")
            > summary.mean("static-stt")
            > summary.mean("dynamic-stt")
        )
