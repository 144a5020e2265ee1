"""Tests of the shared design-execution pipeline (repro.core.pipeline).

The pipeline is the single execution path behind every L2 design:
engine dispatch and the reference replay loop (ReplaySession), and the
timing/energy/report assembly (ResultAssembler).  These tests pin the
shared contracts — the uniform ``sim_engine`` extra, the ``"fast"``
rejection rules, prefetch bookkeeping, and the one-call-site rule for
the accounting helpers.
"""

import inspect
import pathlib

import numpy as np
import pytest

import repro.core
from repro.cache.hierarchy import L2Stream
from repro.cache.prefetch import make_prefetcher
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.config import DEFAULT_PLATFORM, CacheGeometry
from repro.core import (
    BaselineDesign,
    DrowsySRAMDesign,
    DynamicPartitionDesign,
    FixedSegment,
    HybridPartitionDesign,
    ReplaySession,
    ResultAssembler,
    StaticPartitionDesign,
    run_fixed_design,
)
from repro.core.designs import REGISTERED_DESIGNS, make_design
from repro.core.multi_retention import multi_retention_design
from repro.core.pipeline import PREFETCHERS
from repro.dram import DRAMConfig
from repro.energy.technology import sram

ALL_DESIGNS = [
    ("baseline", BaselineDesign),
    ("static", StaticPartitionDesign),
    ("static-stt", multi_retention_design),
    ("dynamic", DynamicPartitionDesign),
    ("drowsy", DrowsySRAMDesign),
    ("hybrid", HybridPartitionDesign),
]


def _stream(rows, name="pipe-synth"):
    ticks = np.array([r[0] for r in rows], dtype=np.int64)
    return L2Stream(
        name=name,
        ticks=ticks,
        addrs=np.array([r[1] for r in rows], dtype=np.uint64),
        privs=np.array([r[2] for r in rows], dtype=np.uint8),
        writes=np.array([r[3] for r in rows], dtype=bool),
        demand=np.array([r[4] for r in rows], dtype=bool),
        instructions=10_000,
        trace_accesses=len(rows),
        duration_ticks=int(ticks[-1]) + 1 if len(rows) else 0,
        l1i_stats=CacheStats(),
        l1d_stats=CacheStats(),
    )


# ----------------------------------------------------------------------
# session-level engine contract


def test_session_rejects_bad_engine(browser_stream_small):
    with pytest.raises(ValueError, match="engine"):
        ReplaySession("x", browser_stream_small, engine="turbo")


@pytest.mark.parametrize("name,factory", ALL_DESIGNS)
def test_every_design_tags_sim_engine(name, factory, browser_stream_small):
    """Every design stamps extras["sim_engine"], on both engine picks."""
    auto = factory().run(browser_stream_small, DEFAULT_PLATFORM)
    assert auto.extras["sim_engine"] in ("fastsim", "reference")
    ref = factory().run(browser_stream_small, DEFAULT_PLATFORM, engine="reference")
    assert ref.extras["sim_engine"] == "reference"


@pytest.mark.parametrize("factory", [HybridPartitionDesign], ids=["hybrid"])
def test_per_access_designs_reject_fast(factory, browser_stream_small):
    """Designs without a vectorized path refuse engine="fast" loudly."""
    with pytest.raises(ValueError, match="fast kernel"):
        factory().run(browser_stream_small, DEFAULT_PLATFORM, engine="fast")


# ----------------------------------------------------------------------
# one run signature; memory-side models are design fields


@pytest.mark.parametrize("name", REGISTERED_DESIGNS)
def test_every_design_runs_with_one_signature(name):
    params = inspect.signature(make_design(name).run).parameters
    assert list(params) == ["stream", "platform", "engine"]
    assert params["engine"].default == "auto"


def test_prefetch_names_build_prefetchers():
    for name in PREFETCHERS:
        assert make_prefetcher(name).name == name


@pytest.mark.parametrize("name", ["baseline", "static-sram", "static-stt"])
def test_fixed_designs_take_memory_fields(name):
    design = make_design(name, dram=DRAMConfig(banks=4), prefetch="stride")
    assert design.dram == DRAMConfig(banks=4) and design.prefetch == "stride"
    with pytest.raises(ValueError, match="unknown prefetcher"):
        make_design(name, prefetch="oracle")


@pytest.mark.parametrize("name", ["dynamic-stt", "drowsy-sram", "hybrid"])
def test_other_designs_reject_memory_fields(name):
    with pytest.raises(TypeError):
        make_design(name, dram=DRAMConfig())
    with pytest.raises(TypeError):
        make_design(name, prefetch="nextline")


# ----------------------------------------------------------------------
# prefetch bookkeeping


def test_stale_prefetch_earns_no_credit():
    """An evicted prefetch must not be credited on a later demand hit.

    One set, two ways: block 64 is prefetched, evicted by a later
    prefetch fill, then demand-missed back in.  The demand hit that
    follows touches the *demand-fetched* copy, so ``prefetch_useful``
    stays zero (the unpruned bookkeeping would credit the dead
    prefetch here).
    """
    geometry = CacheGeometry(128, 2, 64)
    cache = SetAssociativeCache(geometry, "lru", name="l2")
    rows = [
        (0, 0, 0, False, True),     # miss, prefetches 64
        (1, 128, 0, False, True),   # miss; prefetch 192 evicts block 64
        (2, 64, 0, False, True),    # demand miss refetches 64
        (3, 64, 0, False, True),    # demand hit on the demand-fetched copy
    ]
    result = run_fixed_design(
        "pf-prune", _stream(rows), DEFAULT_PLATFORM,
        [FixedSegment("shared", cache, sram())],
        lambda priv: cache,
        prefetcher=make_prefetcher("nextline"),
    )
    assert result.extras["sim_engine"] == "reference"
    assert result.extras["prefetch_issued"] == 3
    assert result.extras["prefetch_useful"] == 0


def test_resident_prefetch_is_credited():
    """The happy path still counts: prefetch, then demand-hit it."""
    geometry = CacheGeometry(128, 2, 64)
    cache = SetAssociativeCache(geometry, "lru", name="l2")
    rows = [
        (0, 0, 0, False, True),   # miss, prefetches 64
        (1, 64, 0, False, True),  # demand hit on the live prefetch
    ]
    result = run_fixed_design(
        "pf-credit", _stream(rows), DEFAULT_PLATFORM,
        [FixedSegment("shared", cache, sram())],
        lambda priv: cache,
        prefetcher=make_prefetcher("nextline"),
    )
    assert result.extras["prefetch_issued"] == 1
    assert result.extras["prefetch_useful"] == 1


# ----------------------------------------------------------------------
# assembler contracts


def test_finish_requires_weigh_timing(browser_stream_small):
    assembler = ResultAssembler(
        ReplaySession("x", browser_stream_small), DEFAULT_PLATFORM
    )
    with pytest.raises(RuntimeError, match="weigh_timing"):
        assembler.finish([])


def test_accounting_helpers_have_one_call_site():
    """compute_timing/segment_energy/dram_energy_j are pipeline-only.

    The refactor's point: no design assembles timing or energy by hand.
    Any new reference to the accounting helpers from another module
    under ``repro.core`` reintroduces a copy-pasted assembly path.
    """
    core_dir = pathlib.Path(repro.core.__file__).parent
    offenders = []
    for path in sorted(core_dir.glob("*.py")):
        if path.name == "pipeline.py":
            continue
        text = path.read_text()
        offenders += [
            f"{path.name}: {fn}"
            for fn in ("compute_timing", "segment_energy", "dram_energy_j")
            if fn in text
        ]
    assert offenders == []
