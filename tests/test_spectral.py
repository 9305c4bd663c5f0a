"""Perturbation sampling, eigendecomposition, corrections, reconstructions."""

import tracemalloc

import numpy as np
import pytest

import pbspm.evaluation as evaluation
from pbspm.errors import DegeneratePerturbationError, NumericalError
from pbspm.evaluation import ExperimentConfig, _run_points
from pbspm.graph import adjacency, simplify
from pbspm.spectral import (
    _PAIR_ROWS,
    SpectralModel,
    _pair_sum,
    eigendecompose,
    eigenvalue_correction,
    eigenvalues,
    pbspm_scores,
    sample_perturbation,
    select_m,
    spm_scores,
    truncated_scores,
)
from pbspm.split import split_train_probe

from conftest import random_view, tsv_stream, view_edges


def edge_matrix(edges, n) -> np.ndarray:
    """Dense symmetric 0/1 matrix with both orientations of each edge row set."""
    matrix = np.zeros((n, n))
    matrix[edges[:, 0], edges[:, 1]] = 1.0
    matrix[edges[:, 1], edges[:, 0]] = 1.0
    return matrix


def corrected_model(view, rng=None, p_h=0.2, seed=0):
    sample = sample_perturbation(view_edges(view), p_h, seed)
    retained = adjacency(sample.retained, len(view))
    return eigenvalue_correction(eigendecompose(retained), sample.removed)


def ring_graph(n, seed):
    """A graph of exactly n nodes: a ring through all of them, then random chords."""
    rng = np.random.default_rng(seed)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [tuple(rng.choice(n, size=2, replace=False)) for _ in range(3 * n)]
    return simplify(tsv_stream((a, b, t) for t, (a, b) in enumerate(pairs, start=1)))


class TestSamplePerturbation:
    def test_single_edge_removed_from_ten(self):
        rng = np.random.default_rng(0)
        view = random_view(rng, 8, p=0.5)
        edges = view_edges(view)[:10]
        view10 = edge_matrix(edges, 8)
        sample = sample_perturbation(edges, 0.1, seed=1)
        assert sample.removed.shape == (1, 2)
        assert np.count_nonzero(view10 - adjacency(sample.retained, 8)) == 2

    def test_same_seed_same_removal(self):
        rng = np.random.default_rng(1)
        view = random_view(rng, 12, p=0.4)
        edges = view_edges(view)
        a = sample_perturbation(edges, 0.2, seed=99)
        b = sample_perturbation(edges, 0.2, seed=99)
        np.testing.assert_array_equal(a.removed, b.removed)
        np.testing.assert_array_equal(a.retained, b.retained)

    def test_retained_plus_removed_is_original(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            view = random_view(rng, int(rng.integers(6, 40)), p=0.3)
            edges = view_edges(view)
            if edges.shape[0] < 10:  # so that p_h >= 0.1 removes at least one
                continue
            # Rows in random orientation and order, with the time column a graph's rows carry.
            flip = rng.random(edges.shape[0]) < 0.5
            edges[flip] = edges[flip, ::-1]
            edges = edges[rng.permutation(edges.shape[0])]
            rows = np.column_stack((edges, rng.integers(0, 100, edges.shape[0])))
            p_h = rng.uniform(0.1, 0.6)
            sample = sample_perturbation(rows, p_h, seed=trial)
            retained, removed = sample.retained, sample.removed
            # Kept rows come back as given, in the given order ...
            position = {tuple(row): at for at, row in enumerate(edges.tolist())}
            at = [position[tuple(row)] for row in retained.tolist()]
            assert retained.shape[1] == 2 and at == sorted(at)
            # ... and with the removed rows they are the training rows, as a multiset.
            together = [*retained.tolist(), *removed.tolist()]
            assert sorted(map(sorted, together)) == sorted(map(sorted, edges.tolist()))
            # Removed rows come back as (min, max), sorted.
            assert removed.shape == (round(p_h * edges.shape[0]), 2)
            assert np.all(removed[:, 0] < removed[:, 1])
            assert [tuple(row) for row in removed] == sorted(tuple(row) for row in removed)
            assert not removed.flags.writeable and not retained.flags.writeable

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
            sample = sample_perturbation(edges, 0.2, seed=seed)
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
            sample_perturbation(edges, 1e-4, seed=0)

    def test_p_h_bounds(self):
        rng = np.random.default_rng(5)
        view = random_view(rng, 6, p=0.5)
        with pytest.raises(ValueError):
            sample_perturbation(view_edges(view), 1.2, seed=0)

    def test_endpoint_outside_n_rejected(self):
        # The sample keeps endpoints as given, so adjacency sees a bad one and raises.
        for edges, n in (
            (np.array([[0, 5], [1, 5], [2, 5], [3, 5]]), 5),
            (np.array([[-1, 0], [-1, 1], [-1, 2], [-1, 3]]), 6),
        ):
            sample = sample_perturbation(edges, 0.5, seed=0)
            assert sample.retained.shape == (2, 2)
            with pytest.raises(ValueError, match="outside"):
                adjacency(sample.retained, n)


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

    @pytest.mark.parametrize("n", [5, 64, 300])
    def test_reads_only_the_lower_triangle(self, n):
        # Entries above the diagonal may hold anything.
        rng = np.random.default_rng(n)
        view = random_view(rng, n, p=0.1)
        filled = view.copy()
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        filled[upper] = rng.normal(scale=10.0, size=np.count_nonzero(upper))
        want, got = eigendecompose(view), eigendecompose(filled)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)


def eigh_oracle(matrix):
    """The decomposition through ``np.linalg.eigh``, ordered and sign-fixed alike."""
    lam, vec = np.linalg.eigh(matrix)
    order = np.lexsort((np.arange(lam.size), -lam, -np.abs(lam)))
    lam, vec = lam[order], vec[:, order]
    peak = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[peak, np.arange(vec.shape[1])])
    signs[signs == 0] = 1.0
    return lam, vec * signs


def solve_inputs():
    """Random graphs over one to three column blocks, and degenerate ones."""
    rng = np.random.default_rng(61)
    cliques = np.kron(np.eye(6), np.ones((5, 5)) - np.eye(5))  # six equal blocks
    with_isolated = np.zeros((40, 40))
    with_isolated[:30, :30] = cliques
    yield from (random_view(rng, n, p=0.1) for n in (5, 64, 300))
    yield with_isolated
    yield np.zeros((7, 7))


class TestInPlaceSolve:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_equal_to_numpy_eigh(self, order):
        # The eigenvectors keep the memory order numpy's eigh gives them too:
        # the pair sums' bits depend on it.
        for matrix in solve_inputs():
            matrix = np.array(matrix, order=order)
            lam, vec = eigh_oracle(matrix)
            model = eigendecompose(matrix)
            assert np.array_equal(model.eigenvalues, lam)
            assert np.array_equal(model.eigenvectors, vec)
            assert model.eigenvectors.strides == vec.strides

    def test_overwrite_gives_the_same_model(self):
        for matrix in solve_inputs():
            want = eigendecompose(matrix)
            got = eigendecompose(matrix.copy(), overwrite=True)
            assert np.array_equal(got.eigenvalues, want.eigenvalues)
            assert np.array_equal(got.eigenvectors, want.eigenvectors)
            assert got.eigenvectors.strides == want.eigenvectors.strides

    def test_copy_leaves_a_writable_input_unchanged(self):
        for matrix in solve_inputs():
            writable = matrix.copy()
            eigendecompose(writable)
            assert writable.tobytes() == matrix.tobytes()

    def test_failed_solve_keeps_its_message(self):
        with pytest.raises(NumericalError) as err:
            eigendecompose(np.full((4, 4), np.nan))
        assert str(err.value) == "eigendecomposition failed: Eigenvalues did not converge"


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
            sample = sample_perturbation(edges, 0.2, seed=int(rng.integers(1000)))
            model = eigendecompose(adjacency(sample.retained, len(view)))
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
            sample = sample_perturbation(edges, p_h, seed=int(rng.integers(10_000)))
            retained = adjacency(sample.retained, len(view))
            model = eigenvalue_correction(eigendecompose(retained), sample.removed)
            lam_true = np.linalg.eigvalsh(view).max()
            lam_est = model.eigenvalues[0] + model.corrections[0]
            if abs(lam_true - lam_est) < abs(lam_true - model.eigenvalues[0]):
                wins += 1
        assert wins >= 0.9 * trials

    def test_chunked_sum_equals_one_einsum(self):
        # Reference: one einsum over every removed edge at once, bit for bit,
        # with edge counts on both sides of the gather's chunk size.
        rng = np.random.default_rng(13)
        for n, k in [(2, 1), (7, 300), (40, 256), (40, 257), (60, 1000), (5, 0)]:
            X = rng.standard_normal((n, n))
            removed = rng.integers(0, n, size=(k, 2))
            oracle = np.einsum("e,ek,ek->k", np.full(k, 2.0), X[removed[:, 0]], X[removed[:, 1]])
            model = SpectralModel(eigenvalues=np.zeros(n), eigenvectors=X, corrections=np.zeros(n))
            got = eigenvalue_correction(model, removed).corrections
            assert np.array_equal(got.view(np.int64), oracle.view(np.int64)), (n, k)

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

    @pytest.mark.parametrize("m", [30, None])
    def test_tracked_peak_below_two_score_matrices(self, m):
        # S, its upper-triangle pairs and one mask: about 1.63 n x n floats.
        # Mirroring S from a copy of itself, or a row block as large as the
        # pairs at this n, reads 2.1-2.6.
        n = 300
        model = corrected_model(random_view(np.random.default_rng(16), n, p=0.05))
        tracemalloc.start()
        try:
            spm_scores(model, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * n * n * 8


class TestPairSumBlocks:
    """The reconstruction hands over a mask's pairs in blocks of ``_PAIR_ROWS`` rows."""

    @pytest.mark.parametrize("kind", ["candidates", "upper", "none", "second-block-empty"])
    @pytest.mark.parametrize("n", [_PAIR_ROWS - 1, 2 * _PAIR_ROWS, 2 * _PAIR_ROWS + 1])
    def test_mask_pairs_in_row_major_order(self, n, kind):
        rng = np.random.default_rng(n)
        model = eigendecompose(random_view(rng, n, p=0.1))
        vectors, weights = model.eigenvectors[:, :9], rng.standard_normal(9)
        candidates = np.triu(random_view(rng, n, p=0.1) == 0, 1)
        if kind == "second-block-empty":  # at n < _PAIR_ROWS, no second block
            candidates[_PAIR_ROWS : 2 * _PAIR_ROWS] = False
        mask = {"upper": np.triu(np.ones((n, n), dtype=bool)),
                "none": np.zeros((n, n), dtype=bool)}.get(kind, candidates)
        pairs = _pair_sum(vectors, weights, mask)
        assert pairs.shape == (np.count_nonzero(mask),)
        dense = (vectors * weights) @ vectors.T
        np.testing.assert_allclose(pairs, dense[mask], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 8, None])
    @pytest.mark.parametrize("n", [_PAIR_ROWS - 1, 2 * _PAIR_ROWS, 2 * _PAIR_ROWS + 1])
    def test_symmetric_oracle_and_engine_equal(self, n, m, monkeypatch):
        graph = ring_graph(n, seed=n)
        assert graph.n == n
        cfg = ExperimentConfig(method="SPM" if m is None else "FastPBSPM", alpha=0.0, m=m,
                               realizations=1, seed=3)
        split = split_train_probe(graph, cfg.probe_fraction)
        cand = np.triu(adjacency(split.train, graph.n) == 0, 1)
        sample = sample_perturbation(split.train, cfg.p_h, cfg.seed)
        retained = adjacency(sample.retained, n)
        model = eigenvalue_correction(eigendecompose(retained), sample.removed)
        scores = spm_scores(model, m)
        assert np.array_equal(scores, scores.T)
        expected = np.zeros((n, n))
        for k in range(n if m is None else m):
            w = model.eigenvalues[k] + model.corrections[k]
            expected += w * np.outer(model.eigenvectors[:, k], model.eigenvectors[:, k])
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)

        cut = []

        def recorded(vector, *args, _real=evaluation._cut):
            cut.append(vector.copy())
            return _real(vector, *args)

        monkeypatch.setattr(evaluation, "_cut", recorded)
        _run_points(graph, [cfg])
        assert len(cut) == 1
        assert cut[0].tobytes() == scores[cand].tobytes()


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
