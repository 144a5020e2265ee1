"""Tests for the engine's job specifications and content keys."""

import dataclasses

import numpy as np
import pytest

from repro.cache.replacement import make_policy
from repro.config import DEFAULT_PLATFORM, platform_preset
from repro.core.dynamic_partition import DynamicControllerConfig
from repro.energy.technology import sram, stt_ram
from repro.engine import spec as spec_module
from repro.engine.spec import (
    EXPERIMENT_TRACE_LENGTH,
    JobSpec,
    canonical_json,
    platform_fingerprint,
    stream_key,
)


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec("baseline", "browser")
        assert spec.length == EXPERIMENT_TRACE_LENGTH
        assert spec.seed == 0
        assert spec.platform is DEFAULT_PLATFORM
        assert spec.design_kwargs == ()

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            JobSpec("frobnicate", "browser")

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            JobSpec("baseline", "browser", length=0)

    def test_kwargs_dict_normalised_and_hashable(self):
        a = JobSpec("static-stt", "game", design_kwargs={"user_ways": 6, "kernel_ways": 2})
        b = JobSpec("static-stt", "game", design_kwargs={"kernel_ways": 2, "user_ways": 6})
        assert a == b
        assert hash(a) == hash(b)
        assert a.kwargs == {"user_ways": 6, "kernel_ways": 2}

    def test_non_scalar_kwarg_rejected(self):
        with pytest.raises(TypeError, match="'geometry'.*JSON scalar"):
            JobSpec("baseline", "browser", design_kwargs={"geometry": [1, 2]})

    @pytest.mark.parametrize("name, value", [
        ("policy", make_policy("fifo")),
        ("ways", np.array([8])),
    ])
    def test_non_canonical_kwarg_rejected_with_its_name(self, name, value):
        # a frozen dataclass of JSON scalars is canonical; these are not
        JobSpec("baseline", "browser", design_kwargs={"tech": sram()})
        with pytest.raises(TypeError, match=f"'{name}'.*got {type(value).__name__}"):
            JobSpec("baseline", "browser", design_kwargs={name: value})

    def test_label(self):
        spec = JobSpec("baseline", "maps", seed=3, design_kwargs={"policy": "fifo"})
        assert spec.label() == "baseline:maps:s3:policy=fifo"

    def test_label_names_dataclass_kwargs_briefly(self):
        epoch = JobSpec("dynamic-stt", "game", design_kwargs={
            "config": DynamicControllerConfig(epoch_ticks=10_000, min_ways=2),
            "user_tech": sram(),
        })
        assert epoch.label() == (
            "dynamic-stt:game:config.epoch_ticks=10000,config.min_ways=2,user_tech=sram"
        )
        default = JobSpec("dynamic-stt", "game",
                          design_kwargs={"config": DynamicControllerConfig()})
        assert default.label() == "dynamic-stt:game:config=default"


class TestContentKey:
    def test_stable_across_instances(self):
        a = JobSpec("baseline", "browser", length=1000)
        b = JobSpec("baseline", "browser", length=1000)
        assert a.content_key == b.content_key

    def test_every_field_is_load_bearing(self):
        base = JobSpec("baseline", "browser", length=1000, seed=0)
        variants = [
            JobSpec("static-stt", "browser", length=1000, seed=0),
            JobSpec("baseline", "game", length=1000, seed=0),
            JobSpec("baseline", "browser", length=2000, seed=0),
            JobSpec("baseline", "browser", length=1000, seed=1),
            JobSpec("baseline", "browser", length=1000, platform=platform_preset("little")),
            JobSpec("baseline", "browser", length=1000, design_kwargs={"policy": "fifo"}),
        ]
        keys = {base.content_key} | {v.content_key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_platform_fingerprint_sees_every_knob(self):
        assert platform_fingerprint(DEFAULT_PLATFORM) != platform_fingerprint(
            platform_preset("big")
        )

    def test_canonical_json_is_order_free(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestResolvedKeys:
    """The keys hash the objects a job runs, not the names that pick them."""

    def test_equal_nested_kwargs_give_equal_keys(self):
        a = JobSpec("dynamic-stt", "game", length=1000,
                    design_kwargs={"config": DynamicControllerConfig(epoch_ticks=10_000)})
        b = JobSpec("dynamic-stt", "game", length=1000,
                    design_kwargs={"config": DynamicControllerConfig(epoch_ticks=10_000)})
        assert a == b and a.content_key == b.content_key

    def test_one_nested_field_changes_the_key(self):
        def key(**config):
            kwargs = {"config": DynamicControllerConfig(**config), "user_tech": sram()}
            return JobSpec("dynamic-stt", "game", length=1000, design_kwargs=kwargs).content_key

        assert key(epoch_ticks=10_000) != key(epoch_ticks=20_000)
        assert key(grow_miss_rate=0.22) != key(grow_miss_rate=0.23)

    def test_defaults_spelled_out_share_the_key(self):
        plain = JobSpec("dynamic-stt", "game", length=1000)
        spelled = JobSpec("dynamic-stt", "game", length=1000, design_kwargs={
            "config": DynamicControllerConfig(), "user_tech": stt_ram("short")})
        assert plain.content_key == spelled.content_key

    def test_technology_fields_are_in_the_key(self, monkeypatch):
        from repro.core import baseline

        before = JobSpec("baseline", "game", length=1000).content_key

        monkeypatch.setattr(baseline, "sram",
                            lambda: dataclasses.replace(sram(), leakage_mw_per_mb=10.0))
        assert JobSpec("baseline", "game", length=1000).content_key != before

    def test_model_version_is_in_both_keys(self, monkeypatch):
        job = JobSpec("baseline", "game", length=1000)
        stream = stream_key("game", 1000, 0, DEFAULT_PLATFORM)
        assert job.describe()["model"] == spec_module.MODEL_VERSION
        monkeypatch.setattr(spec_module, "MODEL_VERSION", spec_module.MODEL_VERSION + 1)
        bumped = JobSpec("baseline", "game", length=1000)
        assert stream_key("game", 1000, 0, DEFAULT_PLATFORM) != stream
        assert bumped.stream_key != job.stream_key
        assert bumped.content_key != job.content_key

    def test_keys_are_computed_once_per_spec(self, monkeypatch):
        job = JobSpec("baseline", "game", length=1000)
        first = job.content_key, job.stream_key
        monkeypatch.setattr(spec_module, "MODEL_VERSION", spec_module.MODEL_VERSION + 1)
        assert (job.content_key, job.stream_key) == first
