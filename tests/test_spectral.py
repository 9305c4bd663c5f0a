"""Perturbation sampling, eigendecomposition, corrections, reconstructions."""

import numpy as np
import pytest

from pbspm.errors import DegeneratePerturbationError
from pbspm.spectral import (
    eigendecompose,
    eigenvalue_correction,
    eigenvalues,
    pbspm_scores,
    sample_perturbation,
    select_m,
    spm_scores,
    truncated_scores,
)

from conftest import random_view, view_edges


def edge_matrix(edges, n) -> np.ndarray:
    """Dense symmetric 0/1 matrix with both orientations of each edge row set."""
    matrix = np.zeros((n, n))
    matrix[edges[:, 0], edges[:, 1]] = 1.0
    matrix[edges[:, 1], edges[:, 0]] = 1.0
    return matrix


def corrected_model(view, rng=None, p_h=0.2, seed=0):
    sample = sample_perturbation(view, view_edges(view), p_h, seed)
    return eigenvalue_correction(eigendecompose(sample.retained), sample.removed)


class TestSamplePerturbation:
    def test_single_edge_removed_from_ten(self):
        rng = np.random.default_rng(0)
        view = random_view(rng, 8, p=0.5)
        edges = view_edges(view)[:10]
        view10 = edge_matrix(edges, 8)
        sample = sample_perturbation(view10, edges, 0.1, seed=1)
        assert sample.removed.shape == (1, 2)
        assert np.count_nonzero(view10 - sample.retained) == 2

    def test_same_seed_same_removal(self):
        rng = np.random.default_rng(1)
        view = random_view(rng, 12, p=0.4)
        edges = view_edges(view)
        a = sample_perturbation(view, edges, 0.2, seed=99)
        b = sample_perturbation(view, edges, 0.2, seed=99)
        np.testing.assert_array_equal(a.removed, b.removed)
        np.testing.assert_array_equal(a.retained, b.retained)

    def test_retained_plus_removed_is_original(self):
        rng = np.random.default_rng(2)
        view = random_view(rng, 15, p=0.3)
        edges = view_edges(view)
        # Edges given as (max, min) rows in reverse order come back as (min, max), sorted.
        sample = sample_perturbation(view, edges[::-1, ::-1], 0.25, seed=5)
        removed = sample.removed
        np.testing.assert_array_equal(
            sample.retained + edge_matrix(removed, 15), view
        )
        assert removed.shape == (round(0.25 * edges.shape[0]), 2)
        assert np.all(removed[:, 0] < removed[:, 1])
        assert [tuple(row) for row in removed] == sorted(tuple(row) for row in removed)
        assert not removed.flags.writeable and not sample.retained.flags.writeable

    def test_removal_frequency_matches_p_h(self):
        # Monte Carlo oracle: per-edge removal frequency within 3 binomial sigma.
        rng = np.random.default_rng(3)
        view = random_view(rng, 10, p=0.5)
        edges = view_edges(view)
        m = edges.shape[0]
        p_eff = round(0.2 * m) / m
        trials = 1500
        position = {(int(u), int(v)): e for e, (u, v) in enumerate(edges)}
        counts = np.zeros(m)
        for seed in range(trials):
            sample = sample_perturbation(view, edges, 0.2, seed=seed)
            for u, v in sample.removed:
                counts[position[int(u), int(v)]] += 1
        freq = counts / trials
        sigma = np.sqrt(p_eff * (1 - p_eff) / trials)
        assert np.all(np.abs(freq - p_eff) <= 3.5 * sigma)

    def test_degenerate_when_zero_edges_removed(self):
        rng = np.random.default_rng(4)
        view = random_view(rng, 20, p=0.3)
        edges = view_edges(view)
        with pytest.raises(DegeneratePerturbationError):
            sample_perturbation(view, edges, 1e-4, seed=0)

    def test_p_h_bounds(self):
        rng = np.random.default_rng(5)
        view = random_view(rng, 6, p=0.5)
        with pytest.raises(ValueError):
            sample_perturbation(view, view_edges(view), 1.2, seed=0)


class TestEigendecompose:
    def test_single_edge_pair(self):
        model = eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(model.eigenvalues, [1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(
            model.eigenvectors[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12
        )
        assert np.all(model.corrections == 0.0)

    def test_empty_graph_all_zero(self):
        model = eigendecompose(np.zeros((4, 4)))
        np.testing.assert_array_equal(model.eigenvalues, np.zeros(4))

    def test_triangle_spectrum(self):
        # Characteristic polynomial (x - 2)(x + 1)^2 gives {2, -1, -1}.
        triangle = np.ones((3, 3)) - np.eye(3)
        model = eigendecompose(triangle)
        np.testing.assert_allclose(model.eigenvalues, [2.0, -1.0, -1.0], atol=1e-12)

    def test_order_is_abs_descending_with_sign_tiebreak(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            model = eigendecompose(random_view(rng, 12, p=0.4))
            lam = model.eigenvalues
            key = [(-abs(v), -v) for v in lam]
            assert key == sorted(key)

    def test_orthonormal_and_small_residual(self):
        rng = np.random.default_rng(7)
        view = random_view(rng, 40, p=0.2)
        model = eigendecompose(view)
        gram = model.eigenvectors.T @ model.eigenvectors
        np.testing.assert_allclose(gram, np.eye(40), atol=1e-8)
        residual = view @ model.eigenvectors - model.eigenvectors * model.eigenvalues
        assert np.abs(residual).max() <= 1e-6

    def test_sign_convention(self):
        rng = np.random.default_rng(8)
        model = eigendecompose(random_view(rng, 15, p=0.4))
        for k in range(15):
            col = model.eigenvectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0


class TestEigenvalues:
    def test_match_eigendecompose_order_and_selected_m(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            view = random_view(rng, int(rng.integers(2, 40)), p=0.3)
            lam = eigenvalues(view)
            full = eigendecompose(view).eigenvalues
            # Round-off may swap the members of a +x/-x pair, so compare the
            # magnitudes in order and the signed values as a set.
            np.testing.assert_allclose(np.abs(lam), np.abs(full), rtol=0, atol=1e-10)
            np.testing.assert_allclose(np.sort(lam), np.sort(full), rtol=0, atol=1e-10)
            key = [(-abs(v), -v) for v in lam]
            assert key == sorted(key)
            for threshold in (0.0, 0.05, 0.2):
                assert select_m(lam, threshold) == select_m(full, threshold)

    def test_triangle_spectrum(self):
        triangle = np.ones((3, 3)) - np.eye(3)
        np.testing.assert_allclose(eigenvalues(triangle), [2.0, -1.0, -1.0],
                                   atol=1e-12)


class TestEigenvalueCorrection:
    def test_zero_delta_gives_zero_corrections(self):
        rng = np.random.default_rng(9)
        view = random_view(rng, 10, p=0.4)
        model = eigendecompose(view)
        corrected = eigenvalue_correction(model, np.empty((0, 2), dtype=np.int64))
        assert corrected.corrections.shape == (10,)
        assert np.all(corrected.corrections == 0.0)

    def test_matches_dense_quadratic_form(self):
        # Independent oracle: diag(X^T dA X) with dA built densely from the edges.
        rng = np.random.default_rng(10)
        for _ in range(10):
            view = random_view(rng, 12, p=0.5)
            edges = view_edges(view)
            sample = sample_perturbation(view, edges, 0.2, seed=int(rng.integers(1000)))
            model = eigendecompose(sample.retained)
            corrected = eigenvalue_correction(model, sample.removed)
            X = model.eigenvectors
            oracle = np.diag(X.T @ edge_matrix(sample.removed, 12) @ X)
            np.testing.assert_allclose(corrected.corrections, oracle, rtol=0, atol=1e-12)

    def test_first_order_error_smaller_than_correction(self):
        # Exact re-decomposition oracle on 8-node graphs, one edge removed.
        rng = np.random.default_rng(11)
        wins = 0
        trials = 100
        for _ in range(trials):
            view = random_view(rng, 8, p=0.5)
            edges = view_edges(view)
            if edges.shape[0] < 5:
                continue
            p_h = 1.0 / edges.shape[0]
            sample = sample_perturbation(view, edges, p_h, seed=int(rng.integers(10_000)))
            model = eigenvalue_correction(eigendecompose(sample.retained), sample.removed)
            lam_true = np.linalg.eigvalsh(view).max()
            lam_est = model.eigenvalues[0] + model.corrections[0]
            if abs(lam_true - lam_est) < abs(lam_true - model.eigenvalues[0]):
                wins += 1
        assert wins >= 0.9 * trials

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        model = eigendecompose(random_view(rng, 6, p=0.5))
        for edge in ([0, 6], [-1, 2]):  # an endpoint outside the model's n nodes
            with pytest.raises(ValueError):
                eigenvalue_correction(model, np.array([[1, 2], edge]))


class TestSpmScores:
    def test_zero_corrections_reproduce_view(self):
        rng = np.random.default_rng(13)
        view = random_view(rng, 30, p=0.3)
        scores = spm_scores(eigendecompose(view))
        np.testing.assert_allclose(scores, view, atol=1e-8)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(14)
        view = random_view(rng, 25, p=0.3)
        scores = spm_scores(corrected_model(view))
        assert np.array_equal(scores, scores.T)

    def test_matches_outer_product_oracle(self):
        rng = np.random.default_rng(15)
        view = random_view(rng, 6, p=0.6)
        model = corrected_model(view, p_h=0.3, seed=2)
        expected = np.zeros((6, 6))
        for k in range(6):
            w = model.eigenvalues[k] + model.corrections[k]
            x = model.eigenvectors[:, k]
            expected += w * np.outer(x, x)
        np.testing.assert_allclose(spm_scores(model), expected, atol=1e-10)


class TestBoostEigenvectors:
    """Row i of the eigenvectors scaled by 1 + alpha * s_i, seen through the scores."""

    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(16)
        model = eigendecompose(random_view(rng, 10, p=0.4))
        boosted = pbspm_scores(model, np.full(10, 0.7), alpha=0.0)
        np.testing.assert_array_equal(boosted, spm_scores(model))

    def test_component_arithmetic(self):
        model = eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        fake = np.array([1.0, 0.0])
        boosted = pbspm_scores(model, fake, alpha=7.0)
        plain = spm_scores(model)
        # Node 0's components scale by (1 + 7*1) = 8, node 1's by 1.
        assert boosted[0, 0] == pytest.approx(plain[0, 0] * 64.0)
        assert boosted[0, 1] == pytest.approx(plain[0, 1] * 8.0)
        assert boosted[1, 0] == pytest.approx(plain[1, 0] * 8.0)
        assert boosted[1, 1] == pytest.approx(plain[1, 1])

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(17)
        model = eigendecompose(random_view(rng, 9, p=0.5))
        s = rng.random(9)
        for m in (None, 1, 4):
            boosted = pbspm_scores(model, s, alpha=3.5, m=m)
            plain = spm_scores(model, m)
            for i in range(9):
                for j in range(9):
                    expected = (1 + 3.5 * s[i]) * (1 + 3.5 * s[j]) * plain[i, j]
                    assert boosted[i, j] == pytest.approx(expected, rel=1e-15, abs=1e-15)

    def test_negative_alpha_rejected(self):
        rng = np.random.default_rng(18)
        model = eigendecompose(random_view(rng, 5, p=0.5))
        with pytest.raises(ValueError, match="alpha"):
            pbspm_scores(model, np.zeros(5), alpha=-0.1)

    def test_size_mismatch_rejected(self):
        rng = np.random.default_rng(19)
        model = eigendecompose(random_view(rng, 5, p=0.5))
        with pytest.raises(ValueError, match="popularity covers 4 nodes"):
            pbspm_scores(model, np.zeros(4), alpha=1.0)


class TestPbspmScores:
    def test_alpha_zero_equals_spm(self):
        rng = np.random.default_rng(20)
        view = random_view(rng, 20, p=0.3)
        model = corrected_model(view, p_h=0.15, seed=3)
        pop = rng.random(20)
        spm = spm_scores(model)
        pbspm = pbspm_scores(model, pop, alpha=0.0)
        np.testing.assert_allclose(pbspm, spm, atol=1e-10)

    def test_uniform_popularity_scales_scores(self):
        rng = np.random.default_rng(21)
        view = random_view(rng, 12, p=0.4)
        model = corrected_model(view, p_h=0.2, seed=4)
        c, alpha = 0.6, 2.0
        boosted = pbspm_scores(model, np.full(12, c), alpha)
        base = spm_scores(model)
        np.testing.assert_allclose(
            boosted, (1 + alpha * c) ** 2 * base, atol=1e-10
        )

    def test_matches_outer_product_oracle(self):
        rng = np.random.default_rng(22)
        view = random_view(rng, 6, p=0.6)
        model = corrected_model(view, p_h=0.3, seed=5)
        s = rng.random(6)
        alpha = 4.0
        for m in (None, 1, 2, 5, 6):
            # Reconstruct from the boosted eigenvectors, pair by pair.
            expected = np.zeros((6, 6))
            for k in range(6 if m is None else m):
                w = model.eigenvalues[k] + model.corrections[k]
                x = model.eigenvectors[:, k] * (1 + alpha * s)
                expected += w * np.outer(x, x)
            got = pbspm_scores(model, s, alpha, m)
            np.testing.assert_allclose(got, expected, atol=1e-10)
            assert np.array_equal(got, got.T)


class TestTruncatedScores:
    def test_full_truncation_equals_pbspm(self):
        rng = np.random.default_rng(23)
        view = random_view(rng, 14, p=0.4)
        model = corrected_model(view, p_h=0.2, seed=6)
        pop = rng.random(14)
        full = pbspm_scores(model, pop, alpha=2.5)
        trunc = pbspm_scores(model, pop, alpha=2.5, m=14)
        np.testing.assert_allclose(trunc, full, atol=1e-10)

    def test_rank_one_all_minors_vanish(self):
        rng = np.random.default_rng(24)
        view = random_view(rng, 8, p=0.5)
        model = corrected_model(view, p_h=0.2, seed=7)
        pop = rng.random(8)
        s = pbspm_scores(model, pop, alpha=1.5, m=1)
        for i in range(8):
            for k in range(i + 1, 8):
                for j in range(8):
                    for l in range(j + 1, 8):
                        minor = s[i, j] * s[k, l] - s[i, l] * s[k, j]
                        assert abs(minor) < 1e-8

    def test_residual_shrinks_to_zero(self):
        rng = np.random.default_rng(25)
        for alpha in (0.0, 3.0):
            view = random_view(rng, 16, p=0.4)
            model = corrected_model(view, p_h=0.2, seed=8)
            pop = rng.random(16)
            full = pbspm_scores(model, pop, alpha)
            norms = []
            for m in range(1, 17):
                part = pbspm_scores(model, pop, alpha, m=m)
                norms.append(np.linalg.norm(part - full))
            assert norms[-1] < 1e-10
            assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_m_out_of_range(self):
        rng = np.random.default_rng(26)
        view = random_view(rng, 6, p=0.5)
        model = corrected_model(view, p_h=0.3, seed=9)
        pop = np.zeros(6)
        with pytest.raises(ValueError):
            pbspm_scores(model, pop, alpha=1.0, m=0)
        with pytest.raises(ValueError):
            pbspm_scores(model, pop, alpha=1.0, m=7)

    def test_alias_is_pbspm_with_m(self):
        rng = np.random.default_rng(27)
        view = random_view(rng, 10, p=0.4)
        model = corrected_model(view, p_h=0.2, seed=10)
        pop = rng.random(10)
        np.testing.assert_array_equal(
            truncated_scores(model, pop, 2.0, 3), pbspm_scores(model, pop, 2.0, m=3)
        )


class TestSelectM:
    def test_documented_example(self):
        assert select_m([10, 9.5, 0.1, 0.05], threshold=0.05) == 2

    def test_flat_spectrum_falls_back_to_one(self):
        assert select_m([1.0, -1.0]) == 1
        assert select_m([2.0, 2.0, 2.0]) == 1

    def test_single_eigenvalue(self):
        assert select_m([3.0]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_m([])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            select_m([1.0, 0.5], threshold=-0.1)

    def test_gap_at_front_only(self):
        # One dominant eigenvalue, rest tiny: the classic rank-1 case.
        assert select_m([8.0, 0.2, 0.15, 0.1]) == 1
