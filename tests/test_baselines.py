"""The five classical indices against independent brute-force oracles."""

import math

import numpy as np
import pytest

from pbspm.baselines import (
    KatzConfig,
    WalkConfig,
    aa_scores,
    cn_scores,
    katz_scores,
    ra_scores,
    srw_scores,
)
from pbspm.errors import NumericalError
from pbspm.graph import AdjacencyView

from conftest import random_view
from oracles import katz_walk_oracle, neighbor_sets, srw_walk_oracle


def view_from(matrix) -> AdjacencyView:
    m = np.asarray(matrix, dtype=np.float64)
    m.setflags(write=False)
    return AdjacencyView(n=m.shape[0], matrix=m)


PATH3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
STAR4 = [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]


class TestCommonNeighbors:
    def test_path_endpoints(self):
        scores = cn_scores(view_from(PATH3))
        assert scores.values[0, 2] == 1.0

    def test_disjoint_components(self):
        block = np.zeros((4, 4))
        block[0, 1] = block[1, 0] = 1.0
        block[2, 3] = block[3, 2] = 1.0
        scores = cn_scores(view_from(block))
        assert scores.values[0, 2] == 0.0

    def test_matches_set_intersection_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            view = random_view(rng, int(rng.integers(3, 9)), p=0.5)
            nbrs = neighbor_sets(view)
            scores = cn_scores(view)
            for x in range(view.n):
                for y in range(view.n):
                    if x == y:
                        continue
                    assert scores.values[x, y] == len(nbrs[x] & nbrs[y])


class TestAdamicAdar:
    def test_star_leaves(self):
        scores = aa_scores(view_from(STAR4))
        assert scores.values[1, 2] == pytest.approx(1.0 / math.log(3))

    def test_no_common_neighbors(self):
        scores = aa_scores(view_from(PATH3))
        assert scores.values[0, 1] == 0.0

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            view = random_view(rng, int(rng.integers(3, 9)), p=0.5)
            nbrs = neighbor_sets(view)
            deg = [len(s) for s in nbrs]
            scores = aa_scores(view)
            for x in range(view.n):
                for y in range(x + 1, view.n):
                    expected = sum(1.0 / math.log(deg[z]) for z in nbrs[x] & nbrs[y])
                    assert scores.values[x, y] == pytest.approx(expected, abs=1e-12)

    def test_finite_everywhere(self):
        # A degree-1 common neighbor would divide by log(1); must stay finite.
        rng = np.random.default_rng(52)
        view = random_view(rng, 10, p=0.2)
        assert np.all(np.isfinite(aa_scores(view).values))


class TestResourceAllocation:
    def test_star_leaves(self):
        scores = ra_scores(view_from(STAR4))
        assert scores.values[1, 2] == pytest.approx(1.0 / 3.0)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            view = random_view(rng, int(rng.integers(3, 9)), p=0.5)
            nbrs = neighbor_sets(view)
            deg = [len(s) for s in nbrs]
            scores = ra_scores(view)
            for x in range(view.n):
                for y in range(x + 1, view.n):
                    expected = sum(1.0 / deg[z] for z in nbrs[x] & nbrs[y])
                    assert scores.values[x, y] == pytest.approx(expected, abs=1e-12)

    def test_ra_at_most_half_cn_off_diagonal(self):
        # Every common neighbor has degree >= 2, so each term is <= 1/2.
        rng = np.random.default_rng(54)
        view = random_view(rng, 12, p=0.4)
        ra = ra_scores(view).values
        cn = cn_scores(view).values
        off = ~np.eye(12, dtype=bool)
        assert np.all(ra[off] <= cn[off] / 2 + 1e-12)


class TestKatz:
    def test_isolated_pair_scores_zero(self):
        scores = katz_scores(view_from(np.zeros((2, 2))), KatzConfig(damping=0.1))
        assert scores.values[0, 1] == 0.0

    def test_two_node_closed_form(self):
        scores = katz_scores(view_from([[0, 1], [1, 0]]), KatzConfig(damping=0.1))
        assert scores.values[0, 1] == pytest.approx(0.1 / (1 - 0.01), abs=1e-12)

    def test_path_matches_walk_enumeration(self):
        view = view_from(PATH3)
        scores = katz_scores(view, KatzConfig(damping=0.1))
        oracle = katz_walk_oracle(view, 0, 2, damping=0.1, max_len=20)
        assert scores.values[0, 2] == pytest.approx(oracle, abs=1e-8)

    def test_matches_walk_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            view = random_view(rng, int(rng.integers(3, 9)), p=0.5)
            lam_max = np.linalg.eigvalsh(view.matrix)[-1]
            damping = 0.2 / lam_max if lam_max > 0 else 0.1
            scores = katz_scores(view, KatzConfig(damping=damping))
            for x in range(view.n):
                for y in range(x + 1, view.n):
                    oracle = katz_walk_oracle(view, x, y, damping)
                    assert scores.values[x, y] == pytest.approx(oracle, abs=1e-8)

    def test_series_mode_converges_to_closed_form(self):
        rng = np.random.default_rng(56)
        view = random_view(rng, 10, p=0.4)
        lam_max = np.linalg.eigvalsh(view.matrix)[-1]
        damping = 0.5 / lam_max
        closed = katz_scores(view, KatzConfig(damping=damping)).values
        gaps = []
        for length in (2, 5, 10, 20, 40, 80):
            series = katz_scores(
                view, KatzConfig(damping=damping, max_path_length=length)
            ).values
            gaps.append(np.abs(series - closed).max())
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6

    def test_divergent_damping_rejected(self):
        view = view_from(PATH3)
        lam_max = np.linalg.eigvalsh(view.matrix)[-1]
        with pytest.raises(NumericalError):
            katz_scores(view, KatzConfig(damping=1.0 / lam_max))

    def test_default_damping_is_half_the_bound(self):
        rng = np.random.default_rng(57)
        view = random_view(rng, 10, p=0.4)
        lam_max = np.linalg.eigvalsh(view.matrix)[-1]
        default = katz_scores(view, KatzConfig()).values
        explicit = katz_scores(view, KatzConfig(damping=0.5 / lam_max)).values
        assert np.array_equal(default, explicit)

    def test_default_damping_on_empty_graph(self):
        empty = view_from(np.zeros((3, 3)))
        assert np.array_equal(
            katz_scores(empty, KatzConfig()).values,
            katz_scores(empty, KatzConfig(damping=0.1)).values,
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KatzConfig(damping=0.0)
        with pytest.raises(ValueError):
            KatzConfig(damping=0.1, max_path_length=0)


class TestSrw:
    def test_single_edge_one_step(self):
        scores = srw_scores(view_from([[0, 1], [1, 0]]), WalkConfig(steps=1))
        assert scores.values[0, 1] == pytest.approx(1.0)

    def test_one_step_scores_zero_on_non_edges(self):
        rng = np.random.default_rng(57)
        view = random_view(rng, 8, p=0.4)
        m_edges = int(view.matrix.sum()) // 2
        if m_edges == 0:
            pytest.skip("empty sample")
        scores = srw_scores(view, WalkConfig(steps=1))
        non_edges = (view.matrix == 0) & ~np.eye(8, dtype=bool)
        assert np.all(scores.values[non_edges] == 0.0)
        edges = view.matrix == 1
        np.testing.assert_allclose(scores.values[edges], 1.0 / m_edges, atol=1e-12)

    def test_matches_walk_probability_oracle(self):
        rng = np.random.default_rng(58)
        for _ in range(15):
            view = random_view(rng, int(rng.integers(3, 9)), p=0.5)
            if view.matrix.sum() == 0:
                continue
            scores = srw_scores(view, WalkConfig(steps=3))
            oracle = srw_walk_oracle(view, t=3)
            np.testing.assert_allclose(scores.values, oracle, atol=1e-10)

    def test_isolated_node_row_is_zero(self):
        matrix = np.zeros((3, 3))
        matrix[0, 1] = matrix[1, 0] = 1.0
        scores = srw_scores(view_from(matrix), WalkConfig(steps=3))
        assert np.all(scores.values[2] == 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(steps=0)


class TestSymmetryInvariant:
    def test_all_methods_symmetric_and_finite(self):
        rng = np.random.default_rng(59)
        view = random_view(rng, 11, p=0.4)
        lam_max = np.linalg.eigvalsh(view.matrix)[-1]
        outputs = [
            cn_scores(view),
            aa_scores(view),
            ra_scores(view),
            katz_scores(view, KatzConfig(damping=0.5 / lam_max)),
            srw_scores(view, WalkConfig(steps=3)),
        ]
        for scores in outputs:
            assert np.array_equal(scores.values, scores.values.T)
            assert np.all(np.isfinite(scores.values))
