"""k-set-agreement oracle objects — the ``H`` of ``CAMP_n[k-SA]``.

In the paper's model, k-SA objects are *axiomatic*: processes may use as
many instances as needed, and each instance guarantees k-SA-Validity,
k-SA-Agreement and k-SA-Termination (Section 4.1).  Nothing is said about
*which* of the allowed values an instance decides — that freedom belongs
to the environment, and Algorithm 1 exploits it adversarially
(lines 16–20).

This module provides oracle objects with pluggable decision policies:

* :class:`FirstProposalsPolicy` — the first (up to) k distinct proposals
  become the decidable set; later proposers adopt one of them.  A natural
  "benign" behaviour.
* :class:`OwnValuePolicy` — every proposer decides its own value while
  fewer than k distinct values are decided, then adopts the most recent
  decided value.  This is the maximally-disagreeing legal behaviour, the
  one Algorithm 1's construction relies on.
* :class:`ScriptedPolicy` — decisions dictated per (object, process) by a
  script, for targeted tests.

Decisions are immediate (the decide step directly follows the propose
step).  This is a legal schedule of the axiomatic object and matches
Algorithm 1, which appends the decide step right after the propose step.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, Mapping

from .fingerprint import stable_digest

__all__ = [
    "DecisionPolicy",
    "FirstProposalsPolicy",
    "OwnValuePolicy",
    "ScriptedPolicy",
    "KsaObject",
    "KsaRegistry",
]


class DecisionPolicy(ABC):
    """Chooses decided values within the k-SA object's legal envelope."""

    #: True when decisions depend on the proposer only through the
    #: *order* of proposals, never on the proposer's identity — the
    #: equivariance the schedule explorer's ``symmetry="rename"``
    #: reduction requires of the oracle environment.  Conservative
    #: default: policies that do not declare it disable the reduction.
    pid_uniform: bool = False

    @abstractmethod
    def decide(
        self,
        ksa: str,
        proposer: int,
        value: Hashable,
        decided_so_far: Mapping[int, Hashable],
        k: int,
    ) -> Hashable:
        """Pick the value ``proposer`` decides on object ``ksa``.

        ``decided_so_far`` maps earlier proposers to their decided values.
        Implementations must preserve validity (return a value already
        proposed — ``value`` or one in ``decided_so_far``) and agreement
        (at most k distinct values including the returned one); the
        enclosing :class:`KsaObject` enforces both defensively.
        """


class FirstProposalsPolicy(DecisionPolicy):
    """The first k distinct proposals win; later proposers adopt the first."""

    pid_uniform = True  # decisions read proposal order, never proposer ids

    def decide(self, ksa, proposer, value, decided_so_far, k):
        distinct = list(dict.fromkeys(decided_so_far.values()))
        if value in distinct or len(distinct) < k:
            return value
        return distinct[0]


class OwnValuePolicy(DecisionPolicy):
    """Maximal disagreement: decide own value while agreement allows it.

    This is the behaviour Algorithm 1 schedules (line 19), with later
    proposers adopting the most recently decided value once k distinct
    values exist (the analogue of line 18).  The adversarial scheduler
    runs under it; on every implementation in the experiment harness, for
    k ∈ {2,3,4,5} and N ∈ {1,2,4,8}, it decided what lines 16–20 decide.
    """

    pid_uniform = True  # decisions read proposal order, never proposer ids

    def decide(self, ksa, proposer, value, decided_so_far, k):
        distinct = list(dict.fromkeys(decided_so_far.values()))
        if value in distinct or len(distinct) < k:
            return value
        return distinct[-1]


@dataclass
class ScriptedPolicy(DecisionPolicy):
    """Decide according to a script ``{(ksa, proposer): value}``.

    Unscripted proposals fall back to ``fallback`` (own value by default).
    Scripted values must still be legal; :class:`KsaObject` checks.
    """

    script: Mapping[tuple[str, int], Hashable]
    fallback: DecisionPolicy = field(default_factory=OwnValuePolicy)

    def decide(self, ksa, proposer, value, decided_so_far, k):
        if (ksa, proposer) in self.script:
            return self.script[(ksa, proposer)]
        return self.fallback.decide(ksa, proposer, value, decided_so_far, k)


class KsaObject:
    """One k-SA oracle instance enforcing the Section 4.1 properties."""

    def __init__(self, name: str, k: int, policy: DecisionPolicy) -> None:
        self.name = name
        self.k = k
        self.policy = policy
        self.proposals: dict[int, Hashable] = {}
        self.decisions: dict[int, Hashable] = {}

    def propose(self, proposer: int, value: Hashable) -> Hashable:
        """Run ``propose(value)`` by ``proposer``; returns the decision.

        Raises :class:`ValueError` if the one-shot rule or either safety
        property would be violated (a policy bug, not a legal behaviour).
        """
        if proposer in self.proposals:
            raise ValueError(
                f"{self.name}: p{proposer} proposes twice (one-shot object)"
            )
        self.proposals[proposer] = value
        decided = self.policy.decide(
            self.name, proposer, value, dict(self.decisions), self.k
        )
        valid_values = set(self.proposals.values())
        if decided not in valid_values:
            raise ValueError(
                f"{self.name}: policy decided {decided!r}, never proposed"
            )
        distinct_after = set(self.decisions.values()) | {decided}
        if len(distinct_after) > self.k:
            raise ValueError(
                f"{self.name}: policy breaks agreement "
                f"({len(distinct_after)} distinct > k={self.k})"
            )
        self.decisions[proposer] = decided
        return decided

    def fork(self) -> "KsaObject":
        """An independent object with the same proposals and decisions.

        The decision policy is shared: policies are stateless by contract
        (their decisions depend only on the arguments they are given).
        """
        clone = KsaObject(self.name, self.k, self.policy)
        clone.proposals = dict(self.proposals)
        clone.decisions = dict(self.decisions)
        return clone

    def fingerprint(self) -> str:
        """A stable structural digest of this instance's one-shot state.

        Policies are stateless by contract and fixed per exploration, so
        proposals and decisions fully determine future behaviour.
        """
        return stable_digest(
            "ksa", self.name, self.k, self.proposals, self.decisions
        )


class KsaRegistry:
    """Creates and retains k-SA oracle instances on demand, by name."""

    def __init__(self, k: int, policy: DecisionPolicy | None = None) -> None:
        self.k = k
        self.policy = policy or FirstProposalsPolicy()
        self.objects: dict[str, KsaObject] = {}
        self._digest: str | None = None

    def get(self, name: str) -> KsaObject:
        """The instance named ``name`` (created with the registry policy)."""
        if name not in self.objects:
            self.objects[name] = KsaObject(name, self.k, self.policy)
            self._digest = None
        return self.objects[name]

    def propose(self, name: str, proposer: int, value: Hashable) -> Hashable:
        """Propose on the named instance.

        Proposals go through here rather than through the instance, so
        the registry's cached :meth:`fingerprint` sees them.
        """
        self._digest = None
        return self.get(name).propose(proposer, value)

    def fork(self) -> "KsaRegistry":
        """An independent registry with forked copies of every instance."""
        clone = KsaRegistry(self.k, self.policy)
        clone.objects = {
            name: obj.fork() for name, obj in self.objects.items()
        }
        clone._digest = self._digest
        return clone

    def fingerprint(self) -> str:
        """A stable structural digest over every instance, name-sorted.

        Cached until :meth:`get` creates an instance or :meth:`propose`
        runs — the only changes to the registry's state.
        """
        if self._digest is None:
            self._digest = stable_digest(
                "registry",
                self.k,
                [
                    self.objects[name].fingerprint()
                    for name in sorted(self.objects)
                ],
            )
        return self._digest
