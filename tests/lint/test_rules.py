"""Per-rule unit tests: each rule has true positives and true negatives.

Every rule is exercised against a *bad* fixture (expected findings, with
exact rule ids) and a *good* fixture (zero findings), both living under
``tests/lint/fixtures/<scope>/`` so path-based scoping applies exactly
as it does to the real tree.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.lint import LintEngine

FIXTURES = Path(__file__).parent / "fixtures"


def rule_ids(path: Path) -> Counter:
    """Rule-id counts the default engine reports for one fixture file."""
    return Counter(f.rule for f in LintEngine().lint_file(path))


# ---------------------------------------------------------------------------
# REP001 — determinism
# ---------------------------------------------------------------------------


def test_rep001_true_positives():
    counts = rule_ids(FIXTURES / "runtime" / "bad_determinism.py")
    assert counts == {"REP001": 6}


def test_rep001_true_negatives():
    assert rule_ids(FIXTURES / "runtime" / "good_determinism.py") == {}


def test_rep001_finds_each_pattern():
    findings = LintEngine().lint_file(
        FIXTURES / "runtime" / "bad_determinism.py"
    )
    messages = " ".join(f.message for f in findings)
    assert "module-level random.randrange" in messages
    assert "without an explicit seed" in messages
    assert "wall clock" in messages
    assert "id()" in messages
    assert "iteration over a set" in messages


# ---------------------------------------------------------------------------
# REP002 — effect discipline
# ---------------------------------------------------------------------------


def test_rep002_true_positives():
    counts = rule_ids(FIXTURES / "broadcasts" / "bad_effects.py")
    assert counts == {"REP002": 4}


def test_rep002_true_negatives():
    assert rule_ids(FIXTURES / "broadcasts" / "good_effects.py") == {}


def test_rep002_finds_each_pattern():
    findings = LintEngine().lint_file(
        FIXTURES / "broadcasts" / "bad_effects.py"
    )
    messages = " ".join(f.message for f in findings)
    assert "must not import" in messages
    assert "constructs runtime machinery" in messages
    assert "driver-side runtime call" in messages
    assert "parameter the process does not own" in messages


# ---------------------------------------------------------------------------
# REP003 — content neutrality
# ---------------------------------------------------------------------------


def test_rep003_true_positive():
    counts = rule_ids(FIXTURES / "specs" / "bad_neutrality.py")
    assert counts == {"REP003": 1}


def test_rep003_true_negative():
    assert rule_ids(FIXTURES / "specs" / "good_neutrality.py") == {}


def test_rep003_suppression_comments_silence_it():
    assert rule_ids(FIXTURES / "specs" / "suppressed_neutrality.py") == {}


# ---------------------------------------------------------------------------
# REP004 — mutable defaults / class-level process state
# ---------------------------------------------------------------------------


def test_rep004_true_positives():
    counts = rule_ids(FIXTURES / "state" / "bad_state.py")
    assert counts == {"REP004": 6}


def test_rep004_true_negatives():
    assert rule_ids(FIXTURES / "state" / "good_state.py") == {}


def test_rep004_ignores_non_process_class_constants():
    engine = LintEngine()
    findings = engine.lint_source(
        "class Policy:\n    _priority = {'recv': 0}\n",
        "anywhere/policies.py",
    )
    assert findings == []


def test_rep004_flags_process_class_even_outside_scoped_dirs():
    engine = LintEngine()
    findings = engine.lint_source(
        "class P(BroadcastProcess):\n    shared = []\n",
        "anywhere/algo.py",
    )
    assert [f.rule for f in findings] == ["REP004"]


def test_rep004_flags_process_class_state_bound_after_the_body():
    findings = LintEngine().lint_source(
        "class P(BroadcastProcess):\n"
        "    pass\n"
        "P.shared = []\n"
        "P.count = 0\n"
        "def install():\n"
        "    P.board: dict = {}\n"
        "class Policy:\n"
        "    pass\n"
        "Policy.table = {}\n",
        "anywhere/algo.py",
    )
    assert [(f.rule, f.line) for f in findings] == [
        ("REP004", 3),
        ("REP004", 6),
    ]
    assert "outside its body" in findings[0].message


def test_rep004_names_each_stateful_iterator_pattern():
    findings = LintEngine().lint_file(FIXTURES / "state" / "bad_state.py")
    messages = " ".join(f.message for f in findings)
    assert "module-level stateful iterator" in messages
    assert "class-level stateful iterator on TokenMint" in messages


def test_rep004_allows_instance_level_iterators():
    # the registers' `self._ids = itertools.count()` idiom must stay legal
    engine = LintEngine()
    findings = engine.lint_source(
        "import itertools\n"
        "class R:\n"
        "    def __init__(self):\n"
        "        self._ids = itertools.count()\n",
        "anywhere/registers.py",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# REP005 — swallowed failures
# ---------------------------------------------------------------------------


def test_rep005_true_positives():
    counts = rule_ids(FIXTURES / "core" / "bad_hygiene.py")
    assert counts == {"REP005": 3}


def test_rep005_true_negatives():
    assert rule_ids(FIXTURES / "core" / "good_hygiene.py") == {}


def test_rep005_finds_each_pattern():
    findings = LintEngine().lint_file(FIXTURES / "core" / "bad_hygiene.py")
    messages = " ".join(f.message for f in findings)
    assert "bare except" in messages
    assert "without re-raise" in messages
    assert "empty body" in messages


# ---------------------------------------------------------------------------
# REP006 — uid iteration order in spec verdicts
# ---------------------------------------------------------------------------


def test_rep006_true_positives():
    counts = rule_ids(FIXTURES / "specs" / "bad_uid_order.py")
    assert counts == {"REP006": 6}


def test_rep006_true_negatives():
    assert rule_ids(FIXTURES / "specs" / "good_uid_order.py") == {}


def test_rep006_suppression_comments_silence_it():
    assert rule_ids(FIXTURES / "specs" / "suppressed_uid_order.py") == {}


def test_rep006_finds_each_accumulator_idiom():
    findings = LintEngine().lint_file(FIXTURES / "specs" / "bad_uid_order.py")
    assert all(f.rule == "REP006" for f in findings)
    lines = sorted(f.line for f in findings)
    # set comprehension, .add accumulator, dict-of-sets unpack, dict
    # subscript, inline frozenset, enumerate-wrapped
    assert lines == [7, 16, 25, 34, 40, 47]


def test_rep006_scoped_to_specs():
    engine = LintEngine(select=["REP006"])
    source = (
        "def f(messages):\n"
        "    uids = {m.uid for m in messages}\n"
        "    return [u for u in uids]\n"
    )
    assert engine.lint_source(source, "src/repro/specs/x.py")
    assert not engine.lint_source(source, "src/repro/runtime/x.py")
    assert not engine.lint_source(source, "tests/specs/test_x.py")


# ---------------------------------------------------------------------------
# Scoping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "virtual_path, expected",
    [
        ("src/repro/runtime/x.py", True),
        ("src/repro/adversary/x.py", True),
        ("src/repro/specs/x.py", False),
        ("tests/runtime/test_x.py", False),  # test code is exempt
        ("tests/lint/fixtures/runtime/x.py", True),  # fixtures are not
    ],
)
def test_rep001_path_scoping(virtual_path, expected):
    engine = LintEngine(select=["REP001"])
    findings = engine.lint_source(
        "import random\nx = random.random()\n", virtual_path
    )
    assert bool(findings) is expected
