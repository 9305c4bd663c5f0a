"""The five classical indices against independent brute-force oracles."""

import math

import numpy as np
import pytest

from pbspm.baselines import aa_scores, cn_scores, katz_scores, ra_scores, srw_scores
from pbspm.errors import NumericalError

from conftest import random_view
from oracles import katz_walk_oracle, neighbor_sets, srw_walk_oracle


PATH3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.float64)
STAR4 = np.array([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]], dtype=np.float64)


class TestCommonNeighbors:
    def test_path_endpoints(self):
        scores = cn_scores(PATH3)
        assert scores[0, 2] == 1.0

    def test_disjoint_components(self):
        block = np.zeros((4, 4))
        block[0, 1] = block[1, 0] = 1.0
        block[2, 3] = block[3, 2] = 1.0
        scores = cn_scores(block)
        assert scores[0, 2] == 0.0

    def test_matches_set_intersection_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            view = random_view(rng, int(rng.integers(3, 9)), p=0.5)
            nbrs = neighbor_sets(view)
            scores = cn_scores(view)
            for x in range(len(view)):
                for y in range(len(view)):
                    if x == y:
                        continue
                    assert scores[x, y] == len(nbrs[x] & nbrs[y])

    @pytest.mark.parametrize("n", [7, 150, 400])
    def test_bitwise_equal_to_the_float64_square(self, n):
        # Node 0 is a hub adjacent to every other node, so its row holds the
        # largest counts; the float32 product must still be exact.
        rng = np.random.default_rng(n)
        view = np.array(random_view(rng, n, p=0.05))
        view[0, 1:] = view[1:, 0] = 1.0
        square = view @ view
        expected = (square + square.T) / 2.0
        scores = cn_scores(view)
        assert scores.dtype == np.float64 and not scores.flags.writeable
        assert scores.tobytes() == expected.tobytes()
        assert scores[0, 0] == n - 1


class TestAdamicAdar:
    def test_star_leaves(self):
        scores = aa_scores(STAR4)
        assert scores[1, 2] == pytest.approx(1.0 / math.log(3))

    def test_no_common_neighbors(self):
        scores = aa_scores(PATH3)
        assert scores[0, 1] == 0.0

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            view = random_view(rng, int(rng.integers(3, 9)), p=0.5)
            nbrs = neighbor_sets(view)
            deg = [len(s) for s in nbrs]
            scores = aa_scores(view)
            for x in range(len(view)):
                for y in range(x + 1, len(view)):
                    expected = sum(1.0 / math.log(deg[z]) for z in nbrs[x] & nbrs[y])
                    assert scores[x, y] == pytest.approx(expected, abs=1e-12)

    def test_finite_everywhere(self):
        # A degree-1 common neighbor would divide by log(1); must stay finite.
        rng = np.random.default_rng(52)
        view = random_view(rng, 10, p=0.2)
        assert np.all(np.isfinite(aa_scores(view)))


class TestResourceAllocation:
    def test_star_leaves(self):
        scores = ra_scores(STAR4)
        assert scores[1, 2] == pytest.approx(1.0 / 3.0)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            view = random_view(rng, int(rng.integers(3, 9)), p=0.5)
            nbrs = neighbor_sets(view)
            deg = [len(s) for s in nbrs]
            scores = ra_scores(view)
            for x in range(len(view)):
                for y in range(x + 1, len(view)):
                    expected = sum(1.0 / deg[z] for z in nbrs[x] & nbrs[y])
                    assert scores[x, y] == pytest.approx(expected, abs=1e-12)

    def test_ra_at_most_half_cn_off_diagonal(self):
        # Every common neighbor has degree >= 2, so each term is <= 1/2.
        rng = np.random.default_rng(54)
        view = random_view(rng, 12, p=0.4)
        ra = ra_scores(view)
        cn = cn_scores(view)
        off = ~np.eye(12, dtype=bool)
        assert np.all(ra[off] <= cn[off] / 2 + 1e-12)


class TestKatz:
    def test_isolated_pair_scores_zero(self):
        scores = katz_scores(np.zeros((2, 2)), damping=0.1)
        assert scores[0, 1] == 0.0

    def test_two_node_closed_form(self):
        scores = katz_scores(np.array([[0.0, 1.0], [1.0, 0.0]]), damping=0.1)
        assert scores[0, 1] == pytest.approx(0.1 / (1 - 0.01), abs=1e-12)

    def test_path_matches_walk_enumeration(self):
        view = PATH3
        scores = katz_scores(view, damping=0.1)
        oracle = katz_walk_oracle(view, 0, 2, damping=0.1, max_len=20)
        assert scores[0, 2] == pytest.approx(oracle, abs=1e-8)

    def test_matches_walk_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            view = random_view(rng, int(rng.integers(3, 9)), p=0.5)
            lam_max = np.linalg.eigvalsh(view)[-1]
            damping = 0.2 / lam_max if lam_max > 0 else 0.1
            scores = katz_scores(view, damping=damping)
            for x in range(len(view)):
                for y in range(x + 1, len(view)):
                    oracle = katz_walk_oracle(view, x, y, damping)
                    assert scores[x, y] == pytest.approx(oracle, abs=1e-8)

    def test_closed_form_bitwise_equal_to_identity_subtraction(self):
        # Inverted in place, on random graphs and six equal cliques (degenerate).
        rng = np.random.default_rng(56)
        cliques = np.kron(np.eye(6), np.ones((5, 5)) - np.eye(5))
        for view in (*(random_view(rng, n, p=0.1) for n in (2, 9, 120, 300)), cliques):
            damping = 0.5 / max(float(np.linalg.eigvalsh(view)[-1]), 1.0)
            eye = np.eye(len(view))
            walks = np.linalg.inv(eye - damping * view) - eye
            expected = (walks + walks.T) / 2.0
            assert katz_scores(view, damping).tobytes() == expected.tobytes()

    def test_singular_system_keeps_its_message(self):
        # lam_max given as -1 skips the convergence check, and I - A is singular.
        pair = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError) as err:
            katz_scores(pair, damping=1.0, lam_max=-1.0)
        assert str(err.value) == "Katz linear system is singular: Singular matrix"

    def test_series_mode_converges_to_closed_form(self):
        rng = np.random.default_rng(56)
        view = random_view(rng, 10, p=0.4)
        lam_max = np.linalg.eigvalsh(view)[-1]
        damping = 0.5 / lam_max
        closed = katz_scores(view, damping=damping)
        gaps = []
        for length in (2, 5, 10, 20, 40, 80):
            series = katz_scores(view, damping=damping, max_path_length=length)
            gaps.append(np.abs(series - closed).max())
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6

    def test_divergent_damping_rejected(self):
        view = PATH3
        lam_max = np.linalg.eigvalsh(view)[-1]
        with pytest.raises(NumericalError):
            katz_scores(view, damping=1.0 / lam_max)

    def test_default_damping_is_half_the_bound(self):
        rng = np.random.default_rng(57)
        view = random_view(rng, 10, p=0.4)
        lam_max = np.linalg.eigvalsh(view)[-1]
        default = katz_scores(view)
        explicit = katz_scores(view, damping=0.5 / lam_max)
        assert np.array_equal(default, explicit)

    def test_default_damping_on_empty_graph(self):
        empty = np.zeros((3, 3))
        assert np.array_equal(
            katz_scores(empty),
            katz_scores(empty, damping=0.1),
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            katz_scores(PATH3, damping=0.0)
        with pytest.raises(ValueError):
            katz_scores(PATH3, damping=0.1, max_path_length=0)


class TestSrw:
    def test_single_edge_one_step(self):
        scores = srw_scores(np.array([[0.0, 1.0], [1.0, 0.0]]), steps=1)
        assert scores[0, 1] == pytest.approx(1.0)

    def test_one_step_scores_zero_on_non_edges(self):
        rng = np.random.default_rng(57)
        view = random_view(rng, 8, p=0.4)
        m_edges = int(view.sum()) // 2
        if m_edges == 0:
            pytest.skip("empty sample")
        scores = srw_scores(view, steps=1)
        non_edges = (view == 0) & ~np.eye(8, dtype=bool)
        assert np.all(scores[non_edges] == 0.0)
        edges = view == 1
        np.testing.assert_allclose(scores[edges], 1.0 / m_edges, atol=1e-12)

    def test_matches_walk_probability_oracle(self):
        rng = np.random.default_rng(58)
        for _ in range(15):
            view = random_view(rng, int(rng.integers(3, 9)), p=0.5)
            if view.sum() == 0:
                continue
            scores = srw_scores(view, steps=3)
            oracle = srw_walk_oracle(view, t=3)
            np.testing.assert_allclose(scores, oracle, atol=1e-10)

    def test_isolated_node_row_is_zero(self):
        matrix = np.zeros((3, 3))
        matrix[0, 1] = matrix[1, 0] = 1.0
        scores = srw_scores(matrix, steps=3)
        assert np.all(scores[2] == 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            srw_scores(PATH3, steps=0)


class TestSymmetryInvariant:
    def test_all_methods_symmetric_and_finite(self):
        rng = np.random.default_rng(59)
        view = random_view(rng, 11, p=0.4)
        lam_max = np.linalg.eigvalsh(view)[-1]
        outputs = [
            cn_scores(view),
            aa_scores(view),
            ra_scores(view),
            katz_scores(view, damping=0.5 / lam_max),
            srw_scores(view, steps=3),
        ]
        for scores in outputs:
            assert np.array_equal(scores, scores.T)
            assert np.all(np.isfinite(scores))
