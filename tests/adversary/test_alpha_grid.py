"""α oracle: Algorithm 1's output over the whole adversary grid.

Every implementation in ``KSA_ALGORITHMS`` is attacked for
k ∈ {2, 3, 4, 5} and N ∈ {1, 2, 4, 8} (80 cells).  Per cell, one digest
pins what Definition 4 and the lemma verifiers read of the run: the
serialized α, the line-26 mark, the line-25 reset marks, the Definition 5
witness and the decided table (both in their insertion order).  Any
drift in how the scheduler steps processes, withholds and releases
messages or decides k-SA proposals changes a digest.

Regenerate (after an *intentional* change) with::

    PYTHONPATH=src python - <<'PY'
    import json
    from tests.adversary.test_alpha_grid import GOLDEN, GRID, cell_digest
    GOLDEN.write_text(json.dumps(
        {key: cell_digest(*cell) for key, cell in GRID.items()},
        indent=1) + "\\n")
    PY
"""

import json
from pathlib import Path

import pytest

from repro.adversary import adversarial_scheduler
from repro.core.serialize import dumps
from repro.experiments.harness import KSA_ALGORITHMS, algorithm_factory
from repro.runtime.fingerprint import stable_digest

GOLDEN = Path(__file__).parent.parent / "data" / "alpha_grid.json"

#: ``"name/k=…/N=…"`` → ``(name, k, N)``, for every cell of the grid.
GRID = {
    f"{name}/k={k}/N={n_value}": (name, k, n_value)
    for name in KSA_ALGORITHMS
    for k in (2, 3, 4, 5)
    for n_value in (1, 2, 4, 8)
}


def cell_digest(name: str, k: int, n_value: int) -> str:
    """The digest of one cell's run of Algorithm 1."""
    result = adversarial_scheduler(
        k, n_value, algorithm_factory(KSA_ALGORITHMS[name])
    )
    return stable_digest(
        dumps(result.execution),
        result.line26_mark,
        list(result.reset_marks),
        result.witness.n_value,
        sorted(result.witness.chosen.items()),
        [
            (ksa, list(per_object.items()))
            for ksa, per_object in result.decided.items()
        ],
    )


def test_golden_covers_the_grid():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(GRID)


@pytest.mark.parametrize("key", sorted(GRID))
def test_alpha_matches_golden(key):
    golden = json.loads(GOLDEN.read_text())
    assert cell_digest(*GRID[key]) == golden[key], (
        f"α changed in cell {key} — if intentional, regenerate "
        f"{GOLDEN.name} (see module docstring)"
    )
