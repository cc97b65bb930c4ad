"""Tests for Algorithm 1: the adversarial scheduler and Definition 4."""

import pytest

from repro.adversary import (
    SYNCH,
    AdversaryStalled,
    adversarial_scheduler,
    check_all_lemmas,
)
from repro.broadcasts import (
    FirstKKsaBroadcast,
    KboAttemptBroadcast,
    TrivialKsaBroadcast,
)
from repro.core import check_channels, check_ksa, verify_witness
from repro.runtime import BroadcastProcess, Deliver, Propose, Send, Wait

ALGORITHMS = {
    "trivial": TrivialKsaBroadcast,
    "first-k": FirstKKsaBroadcast,
    "kbo": KboAttemptBroadcast,
}


def adversary(name="first-k", k=2, n_value=2, **kwargs):
    algorithm_class = ALGORITHMS[name]
    return adversarial_scheduler(
        k, n_value, lambda pid, n: algorithm_class(pid, n), **kwargs
    )


class TestParameterValidation:
    def test_k_must_exceed_one(self):
        with pytest.raises(ValueError, match="k > 1"):
            adversary(k=1)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            adversary(n_value=0)


@pytest.mark.parametrize("name", list(ALGORITHMS))
@pytest.mark.parametrize("k,n_value", [(2, 1), (2, 3), (3, 2), (4, 2)])
class TestAdmissibility:
    def test_alpha_is_admissible(self, name, k, n_value):
        result = adversary(name, k, n_value)
        assert result.execution.check_well_formed() == []
        assert check_channels(result.execution).ok
        assert check_ksa(result.execution, k).ok

    def test_beta_is_n_solo(self, name, k, n_value):
        result = adversary(name, k, n_value)
        assert (
            verify_witness(
                result.beta, result.witness, list(range(k + 1))
            )
            == []
        )

    def test_all_lemmas_hold(self, name, k, n_value):
        reports = check_all_lemmas(adversary(name, k, n_value))
        failing = [str(r) for r in reports if not r.ok]
        assert failing == []


class TestWitnessStructure:
    def test_witness_has_n_messages_per_process(self):
        result = adversary("first-k", k=3, n_value=4)
        for p in range(4):
            assert len(result.witness.chosen[p]) == 4

    def test_witness_messages_carry_synch_content(self):
        result = adversary("trivial", k=2, n_value=2)
        for uids in result.witness.chosen.values():
            for uid in uids:
                message = result.execution.message_by_uid[uid]
                assert message.content == SYNCH

    def test_witness_messages_delivered_only_locally(self):
        result = adversary("trivial", k=2, n_value=2)
        sequences = result.beta.delivery_sequences
        for owner, uids in result.witness.chosen.items():
            for p, sequence in sequences.items():
                if p != owner:
                    assert all(
                        m.uid not in uids for m in sequence
                    )


class TestResetMechanics:
    def test_trivial_algorithm_never_resets(self):
        assert adversary("trivial", k=2, n_value=3).reset_marks == ()

    def test_shared_object_forces_exactly_one_reset(self):
        assert len(adversary("first-k", k=3, n_value=2).reset_marks) == 1

    def test_round_based_resets_scale_with_n(self):
        few = adversary("kbo", k=2, n_value=1)
        many = adversary("kbo", k=2, n_value=4)
        assert len(many.reset_marks) > len(few.reset_marks)

    def test_forced_decision_on_shared_object(self):
        result = adversary("first-k", k=2, n_value=1)
        per_object = result.decided["first"]
        assert per_object[2] == per_object[1]  # p_{k+1} copies p_k


class TestGammaExecutions:
    def test_gamma_contains_only_pi_and_anchor(self):
        result = adversary("first-k", k=3, n_value=2)
        anchor = result.k - 1
        for i in range(result.n):
            gamma = result.gamma(i)
            actors = {
                s.process for s in gamma if not s.is_crash()
            }
            assert actors <= {i, anchor}

    def test_gamma_steps_are_a_subsequence_of_alpha(self):
        result = adversary("kbo", k=2, n_value=2)
        alpha_steps = list(result.execution)
        for i in range(result.n):
            remaining = iter(alpha_steps)
            for step in result.gamma(i):
                if step.is_crash():
                    continue
                assert any(step == other for other in remaining), (
                    f"γ_{i} step {step} out of order"
                )

    def test_gamma_of_last_process_crashes_anchor(self):
        result = adversary("first-k", k=2, n_value=1)
        gamma = result.gamma(result.n - 1)
        anchor = result.k - 1
        assert anchor in gamma.crashed

    def test_gamma_is_well_formed(self):
        result = adversary("first-k", k=2, n_value=2)
        for i in range(result.n):
            assert result.gamma(i).check_well_formed() == []


class TestStallingCandidates:
    def test_waiting_for_others_is_diagnosed(self):
        class NeedsAck(BroadcastProcess):
            """Waits for an ack no one will send under the adversary."""

            def __init__(self, pid, n):
                super().__init__(pid, n)
                self.acks = 0

            def on_broadcast(self, message):
                yield from self.send_to_all(message)
                yield Wait(lambda: self.acks >= self.n - 1, "quorum")

            def on_receive(self, payload, sender):
                self.acks += 1
                return
                yield

        with pytest.raises(AdversaryStalled, match="termination"):
            adversarial_scheduler(
                2, 1, lambda pid, n: NeedsAck(pid, n)
            )

    def test_step_budget_guards_against_nontermination(self):
        class Chatty(BroadcastProcess):
            """Sends forever and never delivers."""

            def on_broadcast(self, message):
                while True:
                    yield Send((self.pid + 1) % self.n, message)

            def on_receive(self, payload, sender):
                return
                yield

        with pytest.raises(AdversaryStalled, match="terminate"):
            adversarial_scheduler(
                2, 1, lambda pid, n: Chatty(pid, n),
                max_steps_per_process=500,
            )

    def test_second_proposal_on_one_object_is_diagnosed(self):
        class ProposesTwice(BroadcastProcess):
            """Reuses one k-SA object, which is one-shot."""

            def on_broadcast(self, message):
                yield Propose("shared", self.pid)
                yield Propose("shared", self.pid)
                yield Deliver(message)

            def on_receive(self, payload, sender):
                return
                yield

        with pytest.raises(AdversaryStalled, match="one-shot"):
            adversarial_scheduler(
                2, 1, lambda pid, n: ProposesTwice(pid, n)
            )


class TestContinuation:
    def test_continuation_mark_set_only_when_requested(self):
        assert adversary("first-k").continuation_mark is None
        extended = adversary("first-k", continue_after_flush=True)
        assert extended.continuation_mark is not None
        assert extended.continuation_mark <= len(extended.execution)

    def test_continuation_preserves_admissibility(self):
        result = adversary("kbo", k=2, n_value=2,
                           continue_after_flush=True)
        assert result.execution.check_well_formed() == []
        assert check_channels(result.execution).ok
        assert check_ksa(result.execution, 2).ok

    def test_continuation_still_n_solo(self):
        result = adversary("kbo", k=2, n_value=2,
                           continue_after_flush=True)
        assert (
            verify_witness(result.beta, result.witness, [0, 1, 2]) == []
        )

    def test_continuation_materializes_kbo_violation(self):
        from repro.core.order import kbo_violation_witness

        result = adversary("kbo", k=2, n_value=1,
                           continue_after_flush=True)
        assert kbo_violation_witness(result.beta, 2) is not None


class TestResultRendering:
    def test_str_mentions_parameters(self):
        text = str(adversary("first-k", k=2, n_value=3))
        assert "k=2" in text and "N=3" in text
