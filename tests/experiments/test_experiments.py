"""The experiment harness must regenerate the paper's qualitative claims.

Beyond smoke-testing, each assertion here is a claim from the paper that
the corresponding experiment's output must exhibit.
"""

import pytest

from repro.experiments import (
    boundaries,
    figure1,
    lemma10_grid,
    register_power,
    symmetry_matrix,
    theorem_pipeline,
)


class TestFigure1:
    def test_default_parameters_match_the_paper(self):
        output = figure1.run()
        assert "k=3" in output and "N=2" in output
        assert "Lemma 10" in output
        assert "✗" not in output  # every caption claim verified

    def test_other_algorithms_work_too(self):
        output = figure1.run(k=2, n_value=1, algorithm="kbo-attempt")
        assert "KboAttemptBroadcast" in output


class TestLemmaGrid:
    def test_small_grid_all_green(self):
        table = lemma10_grid.rows(
            ks=(2, 3), ns=(1, 2), algorithms=("trivial-ksa", "first-k")
        )
        assert len(table) == 8
        for row in table:
            assert "✗" not in row

    def test_render_contains_headers(self):
        output = lemma10_grid.run(ks=(2,), ns=(1,),
                                  algorithms=("trivial-ksa",))
        assert "L10 (N-solo)" in output


class TestTheoremPipeline:
    def test_every_candidate_realizes_the_contradiction(self):
        rows = theorem_pipeline.theorem_rows(ks=(2, 3))
        assert len(rows) == 10  # 5 candidates x 2 values of k
        for row in rows:
            candidate, k, n, decisions, distinct, agreement, hypothesis = row
            assert distinct == k + 1
            assert agreement == "VIOLATED"

    def test_first_k_localized_to_compositionality(self):
        rows = theorem_pipeline.theorem_rows(ks=(2,))
        first_k = next(r for r in rows if r[0] == "first-k")
        assert "compositionality" in first_k[-1]

    def test_k_stepped_localized_to_compositionality(self):
        rows = theorem_pipeline.theorem_rows(ks=(2,))
        stepped = next(r for r in rows if r[0] == "k-stepped")
        assert "compositionality" in stepped[-1]

    def test_corollary_clique_always_exceeds_k(self):
        rows = theorem_pipeline.corollary_rows()  # C1's k x N grid
        assert [(row[1], row[2]) for row in rows] == [
            (k, n_value) for k in (2, 3, 4) for n_value in (1, 2, 4)
        ]
        for row in rows:
            _, k, _, _, clique, verdict = row
            assert clique == k + 1
            assert verdict == "VIOLATED"


class TestSymmetryMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return {row.spec.name: row for row in symmetry_matrix.rows()}

    def test_symmetric_abstractions(self, matrix):
        for name in (
            "Send-To-All Broadcast",
            "FIFO Broadcast",
            "Causal Broadcast",
            "Total Order Broadcast",
            "2-BO Broadcast",
        ):
            assert matrix[name].compositional.holds, name
            assert matrix[name].content_neutral.holds, name

    def test_kstepped_not_compositional(self, matrix):
        row = matrix["1-Stepped Broadcast"]
        assert not row.compositional.holds
        assert row.content_neutral.holds

    def test_first_k_not_compositional(self, matrix):
        row = matrix["First-2 Broadcast"]
        assert not row.compositional.holds
        assert row.content_neutral.holds

    def test_sa_tagged_not_content_neutral(self, matrix):
        row = matrix["SA-tagged Broadcast (k=2)"]
        assert not row.content_neutral.holds


class TestRegisterPower:
    def test_every_register_spec_rejects_every_adversarial_beta(self):
        rows = register_power.rejection_rows()
        assert len(rows) == 60  # 5 implementations x 2 k x 2 N x 3 specs
        for row in rows:
            assert row[-1] == "NO (rejected)"

    def test_total_order_control_admits(self):
        for row in register_power.control_rows(seeds=(0,)):
            assert row[-1] == "yes"

    def test_render(self):
        output = register_power.run()
        assert "shared memory" in output
        assert "Positive control" in output


class TestSymmetryMatrixExtensions:
    def test_new_specs_present_and_symmetric(self):
        matrix = {row.spec.name: row for row in symmetry_matrix.rows()}
        for name in (
            "Mutual Broadcast",
            "Pair Broadcast",
            "SCD Broadcast",
            "2-SCD Broadcast",
        ):
            assert matrix[name].compositional.holds, name
            assert matrix[name].content_neutral.holds, name

    def test_generic_broadcast_not_content_neutral(self):
        matrix = {row.spec.name: row for row in symmetry_matrix.rows()}
        row = matrix["Generic Broadcast"]
        assert row.compositional.holds
        assert not row.content_neutral.holds


class TestBoundaries:
    def test_consensus_rows_always_agree(self):
        for row in boundaries.consensus_rows(sizes=(3, 4), seeds=(0, 1)):
            assert row[5] == "✓"  # consensus
            assert row[6] == "✓"  # TO spec

    def test_trivial_rows(self):
        for row in boundaries.trivial_rows():
            assert row[-1] == "✓"

    def test_render(self):
        assert "k = n" in boundaries.run()
