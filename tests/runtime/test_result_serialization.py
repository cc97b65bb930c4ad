"""JSON round-trips for exploration artifacts + progress-error handling.

The verification service ships :class:`ExplorationResult`,
:class:`Violation`, and :class:`ProgressSnapshot` over the wire and
into the memo store, so serialization must be lossless — digests,
per-depth counters, and violation guides all survive the round trip.

The second half covers the progress-callback contract: a callback that
raises must not abort the search mid-subtree.  The error is recorded on
the result and exploration continues to the exact same outcome a
callback-free run produces.
"""

import json

import pytest

from repro.broadcasts import SendToAllBroadcast
from repro.runtime import Simulator
from repro.runtime.explorer import (
    ExplorationResult,
    ProgressSnapshot,
    Violation,
    explore_schedules,
    spec_property,
)
from repro.specs import TotalOrderBroadcastSpec


def s2a(n=2, **kwargs):
    return Simulator(n, lambda pid, n_: SendToAllBroadcast(pid, n_), **kwargs)


def violating_exploration(**kwargs):
    """send-to-all against total order: produces real violations."""
    return explore_schedules(
        s2a(),
        {0: ["x"], 1: ["y"]},
        spec_property(TotalOrderBroadcastSpec(), assume_complete=False),
        **kwargs,
    )


class TestViolationRoundTrip:
    def test_round_trip_without_permutation(self):
        violation = Violation(
            guide=(0, 2, 1), problems=("p1", "p2"), permutation=None
        )
        data = json.loads(json.dumps(violation.to_json()))
        assert Violation.from_json(data) == violation

    def test_round_trip_with_permutation(self):
        violation = Violation(
            guide=(1, 0), problems=("q",), permutation=(1, 0, 2)
        )
        data = json.loads(json.dumps(violation.to_json()))
        restored = Violation.from_json(data)
        assert restored == violation
        assert restored.permutation == (1, 0, 2)

    def test_real_violations_round_trip(self):
        result = violating_exploration(dedup=True)
        assert result.violations
        for violation in result.violations:
            data = json.loads(json.dumps(violation.to_json()))
            assert Violation.from_json(data) == violation


class TestExplorationResultRoundTrip:
    @pytest.mark.parametrize("engine", ["incremental", "dedup"])
    def test_lossless(self, engine):
        dedup = engine == "dedup"
        result = violating_exploration(dedup=dedup, sleep_sets=dedup)
        data = json.loads(json.dumps(result.to_json()))
        restored = ExplorationResult.from_json(data)
        assert restored == result
        # per-depth counters come back with int keys
        assert restored.expansions_by_depth == result.expansions_by_depth
        assert restored.dedup_hits_by_depth == result.dedup_hits_by_depth
        assert restored.violations_digest() == result.violations_digest()

    def test_progress_errors_survive(self):
        result = violating_exploration(dedup=True)
        result.progress_errors.append("ValueError: boom")
        restored = ExplorationResult.from_json(
            json.loads(json.dumps(result.to_json()))
        )
        assert restored.progress_errors == ["ValueError: boom"]

    def test_from_json_tolerates_missing_progress_errors(self):
        # payloads memoized before the field existed still load
        data = violating_exploration(dedup=True).to_json()
        del data["progress_errors"]
        assert ExplorationResult.from_json(data).progress_errors == []

    def test_violations_digest_ignores_guide_ordering(self):
        result = violating_exploration(dedup=True)
        permuted = ExplorationResult.from_json(result.to_json())
        permuted.violations.reverse()
        assert permuted.violations_digest() == result.violations_digest()


class TestSchemaVersioning:
    """Payload schema: tolerant of the past, loud about the future."""

    def test_schema_one_payload_without_new_fields_loads(self):
        # what a pre-versioning service memoized: no schema stamp, no
        # interrupted flag, none of the later counter fields
        data = violating_exploration(dedup=True).to_json()
        del data["schema"]
        del data["interrupted"]
        del data["workers"]
        del data["states_deduped"]
        restored = ExplorationResult.from_json(data)
        assert restored.interrupted is False
        assert restored.workers == 1
        assert restored.states_deduped == 0

    def test_newer_schema_rejected_with_clear_error(self):
        data = violating_exploration(dedup=True).to_json()
        data["schema"] = 99
        with pytest.raises(ValueError, match="schema 99"):
            ExplorationResult.from_json(data)

    def test_missing_core_field_names_the_field(self):
        data = violating_exploration(dedup=True).to_json()
        del data["terminal_schedules"]
        with pytest.raises(ValueError, match="terminal_schedules"):
            ExplorationResult.from_json(data)

    def test_snapshot_newer_schema_rejected(self):
        snapshots = []
        violating_exploration(
            dedup=True, progress=snapshots.append, progress_every=5
        )
        data = snapshots[0].to_json()
        data["schema"] = 99
        with pytest.raises(ValueError, match="schema 99"):
            ProgressSnapshot.from_json(data)

    def test_snapshot_missing_core_field_names_the_field(self):
        snapshots = []
        violating_exploration(
            dedup=True, progress=snapshots.append, progress_every=5
        )
        data = snapshots[0].to_json()
        del data["expansions"]
        with pytest.raises(ValueError, match="expansions"):
            ProgressSnapshot.from_json(data)


class TestProgressSnapshotRoundTrip:
    def test_live_snapshots_round_trip(self):
        snapshots = []
        violating_exploration(
            dedup=True,
            progress=snapshots.append,
            progress_every=5,
        )
        assert snapshots
        for snapshot in snapshots:
            data = json.loads(json.dumps(snapshot.to_json()))
            restored = ProgressSnapshot.from_json(data)
            assert restored == snapshot
            assert restored.expansions_by_depth == dict(
                snapshot.expansions_by_depth
            )


class TestProgressCallbackErrors:
    """A raising ``progress=`` callback must not perturb the search."""

    @pytest.mark.parametrize("engine", ["incremental", "dedup"])
    def test_raising_callback_recorded_not_fatal(self, engine):
        clean = violating_exploration(dedup=engine == "dedup")

        def explode(snapshot):
            raise ValueError("boom")

        noisy = violating_exploration(
            dedup=engine == "dedup", progress=explode, progress_every=5
        )
        assert noisy.progress_errors == ["ValueError: boom"]
        # identical exploration outcome, error report aside
        clean_json = clean.to_json()
        noisy_json = noisy.to_json()
        del clean_json["progress_errors"], noisy_json["progress_errors"]
        assert noisy_json == clean_json

    def test_callback_disabled_after_first_error(self):
        calls = []

        def explode(snapshot):
            calls.append(snapshot)
            raise ValueError("boom")

        result = violating_exploration(
            dedup=True, progress=explode, progress_every=2
        )
        assert len(calls) == 1
        assert len(result.progress_errors) == 1

    def test_healthy_callback_still_streams(self):
        snapshots = []
        result = violating_exploration(
            dedup=True, progress=snapshots.append, progress_every=2
        )
        assert len(snapshots) > 1
        assert result.progress_errors == []
