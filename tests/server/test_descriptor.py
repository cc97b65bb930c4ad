"""Descriptor canonicalization: equivalent requests, identical keys.

The memo store only works if every spelling of the same job lands on
the same :func:`job_digest` — and if digests from different engine
schema versions can never collide.
"""

import pytest

from repro.server.descriptor import (
    ALGORITHMS,
    ENGINE_SCHEMA,
    SPECS,
    DescriptorError,
    JobDescriptor,
    job_digest,
)

BASE = {
    "algorithm": "send-to-all",
    "n": 3,
    "scripts": {"0": ["a"], "1": ["b"]},
}


def digest_of(data):
    return job_digest(JobDescriptor.from_json(data))


class TestEquivalentSpellings:
    def test_reordered_keys(self):
        reordered = {
            "scripts": {"0": ["a"], "1": ["b"]},
            "n": 3,
            "algorithm": "send-to-all",
        }
        assert digest_of(BASE) == digest_of(reordered)

    def test_defaults_explicit_vs_omitted(self):
        explicit = dict(
            BASE,
            spec="channels",
            k=1,
            dedup=True,
            sleep_sets=False,
            symmetry="none",
            workers=1,
            max_schedules=100_000,
            max_depth=400,
            stop_at_first_violation=False,
            assume_complete=False,
            sync_broadcasts=False,
            crash_at_step={},
            crash_initially=[],
        )
        assert digest_of(BASE) == digest_of(explicit)

    def test_workers_under_dedup(self):
        # a cached search never shards: every worker count is one process
        for workers in (2, 4):
            spelled = dict(BASE, dedup=True, workers=workers)
            assert JobDescriptor.from_json(spelled).workers == 1
            assert digest_of(spelled) == digest_of(dict(BASE, dedup=True))
            assert digest_of(spelled) == digest_of(BASE)

    def test_list_vs_tuple_script_values(self):
        as_tuples = dict(BASE, scripts={"0": ("a",), "1": ("b",)})
        assert digest_of(BASE) == digest_of(as_tuples)

    def test_int_vs_str_script_pids(self):
        int_pids = dict(BASE, scripts={0: ["a"], 1: ["b"]})
        assert digest_of(BASE) == digest_of(int_pids)

    def test_script_pid_order_irrelevant(self):
        swapped = dict(BASE, scripts={"1": ["b"], "0": ["a"]})
        assert digest_of(BASE) == digest_of(swapped)

    def test_empty_scripts_dropped(self):
        padded = dict(BASE, scripts={"0": ["a"], "1": ["b"], "2": []})
        assert digest_of(BASE) == digest_of(padded)

    def test_progress_every_is_telemetry_only(self):
        assert digest_of(BASE) == digest_of(dict(BASE, progress_every=7))

    def test_crash_mapping_vs_pairs(self):
        as_mapping = dict(BASE, crash_at_step={"1": 2, "0": 3})
        as_pairs = dict(BASE, crash_at_step=[[0, 3], [1, 2]])
        assert digest_of(as_mapping) == digest_of(as_pairs)

    def test_crash_initially_order_and_dups(self):
        assert digest_of(dict(BASE, crash_initially=[2, 0])) == digest_of(
            dict(BASE, crash_initially=[0, 2, 0])
        )

    def test_json_round_trip_preserves_digest(self):
        descriptor = JobDescriptor.from_json(
            dict(BASE, sleep_sets=True, symmetry="rename", k=2, spec="kbo")
        )
        rebuilt = JobDescriptor.from_json(descriptor.to_json())
        assert rebuilt == descriptor
        assert job_digest(rebuilt) == job_digest(descriptor)


class TestDistinctRequestsDistinctKeys:
    @pytest.mark.parametrize(
        "change",
        [
            {"n": 4},
            {"scripts": {"0": ["a"], "1": ["c"]}},
            {"spec": "total-order"},
            {"dedup": False},
            {"sleep_sets": True},
            {"symmetry": "rename"},
            {"max_schedules": 50_000},
            {"max_depth": 100},
            {"stop_at_first_violation": True},
            {"assume_complete": True},
            {"sync_broadcasts": True},
            {"crash_initially": [0]},
            {"crash_at_step": {"0": 1}},
        ],
    )
    def test_engine_relevant_field_changes_digest(self, change):
        assert digest_of(BASE) != digest_of(dict(BASE, **change))

    def test_workers_change_digest_without_dedup(self):
        # a cache-less search shards, and its result records the count
        uncached = dict(BASE, dedup=False)
        assert digest_of(uncached) != digest_of(dict(uncached, workers=2))

    def test_schema_versions_never_collide(self):
        descriptor = JobDescriptor.from_json(BASE)
        digests = {
            job_digest(descriptor, schema=schema)
            for schema in range(ENGINE_SCHEMA + 4)
        }
        assert len(digests) == ENGINE_SCHEMA + 4
        assert job_digest(descriptor) == job_digest(
            descriptor, schema=ENGINE_SCHEMA
        )


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"algorithm": "nope"},
            {"spec": "nope"},
            {"scripts": {"-1": ["a"]}},  # negative pid
            {"symmetry": "nope"},
            {"n": 0},
            {"k": 0},
            {"workers": 0},
            {"max_schedules": 0},
            {"max_depth": 0},
            {"progress_every": 0},
            {"scripts": {"7": ["a"]}},  # pid outside 0..n-1
            {"crash_at_step": {"7": 1}},
            {"crash_at_step": {"0": -1}},
            {"crash_initially": [7]},
        ],
    )
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(DescriptorError):
            JobDescriptor.from_json(dict(BASE, **bad))

    def test_unknown_keys_rejected(self):
        with pytest.raises(DescriptorError, match="unknown descriptor"):
            JobDescriptor.from_json(dict(BASE, sleeep_sets=True))

    @pytest.mark.parametrize(
        "removed", [{"engine": "dedup"}, {"static_independence": True}]
    )
    def test_removed_keys_rejected_by_name(self, removed):
        (key,) = removed
        with pytest.raises(DescriptorError, match=key):
            JobDescriptor.from_json(dict(BASE, **removed))

    def test_missing_required_keys_rejected(self):
        with pytest.raises(DescriptorError, match="missing required"):
            JobDescriptor.from_json({"algorithm": "send-to-all"})

    def test_duplicate_script_pids_rejected(self):
        with pytest.raises(DescriptorError, match="duplicate"):
            JobDescriptor.from_json(
                dict(BASE, scripts=[[0, ["a"]], ["0", ["b"]]])
            )

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"n": "3"}, "n"),
            ({"n": 3.0}, "n"),
            ({"k": True}, "k"),
            ({"workers": "2"}, "workers"),
            ({"max_schedules": None}, "max_schedules"),
            ({"max_depth": [8]}, "max_depth"),
            ({"progress_every": "10"}, "progress_every"),
            ({"dedup": "false"}, "dedup"),
            ({"sleep_sets": "false"}, "sleep_sets"),
            ({"sleep_sets": 1}, "sleep_sets"),
            ({"assume_complete": "yes"}, "assume_complete"),
            ({"sync_broadcasts": 0}, "sync_broadcasts"),
            ({"stop_at_first_violation": None}, "stop_at_first_violation"),
            ({"algorithm": ["send-to-all"]}, "algorithm"),
            ({"spec": 3}, "spec"),
            ({"symmetry": None}, "symmetry"),
        ],
    )
    def test_wrong_typed_scalars_rejected(self, bad, field):
        with pytest.raises(DescriptorError, match=field):
            JobDescriptor.from_json(dict(BASE, **bad))

    @pytest.mark.parametrize(
        "bad",
        [
            {"scripts": {"0": "ab"}},  # a string, not a list of entries
            {"scripts": {"0": 5}},
            {"scripts": {"zero": ["a"]}},
            {"scripts": {"0": [["a"]]}},  # unhashable entry
            {"scripts": "0:a"},
            {"scripts": [["0"]]},
            {"crash_at_step": {"0": "1"}},
            {"crash_at_step": {"0": True}},
            {"crash_at_step": {"x": 1}},
            {"crash_at_step": [1, 2]},
            {"crash_initially": "0"},
            {"crash_initially": [0.5]},
            {"crash_initially": [True]},
        ],
    )
    def test_wrong_typed_scripts_and_crashes_rejected(self, bad):
        with pytest.raises(DescriptorError):
            JobDescriptor.from_json(dict(BASE, **bad))

    def test_registries_resolve(self):
        for name in ALGORITHMS:
            assert ALGORITHMS[name](0, 2) is not None
        for name in SPECS:
            assert SPECS[name](1) is not None


class TestBuildAndCost:
    def test_build_resolves_runnable_arguments(self):
        descriptor = JobDescriptor.from_json(
            dict(BASE, sleep_sets=True, crash_at_step={"0": 2})
        )
        simulator, scripts, prop, crash, kwargs = descriptor.build()
        assert simulator.n == 3
        assert scripts == {0: ("a",), 1: ("b",)}
        assert prop is not None
        assert crash is not None and crash.at_step == {0: 2}
        assert kwargs["dedup"] is True
        assert kwargs["sleep_sets"] is True

    def test_estimated_cost_orders_small_before_large(self):
        tiny = JobDescriptor.from_json(
            {"algorithm": "send-to-all", "n": 2, "scripts": {"0": ["x"]}}
        )
        showcase = JobDescriptor.from_json(BASE)
        assert tiny.estimated_cost() < showcase.estimated_cost()
