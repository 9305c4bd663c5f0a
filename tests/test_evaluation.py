"""Ranking, precision, correlation, and the experiment runner."""

import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pbspm.baselines import aa_scores, cn_scores, katz_scores, ra_scores, srw_scores
from pbspm.errors import UndefinedMetricError, ZeroVarianceError
from pbspm.evaluation import (
    ExperimentConfig,
    RankedCandidates,
    delta_cc,
    pearson_cc,
    precision_at,
    rank_candidates,
    _run_points,
    _sweep_configs,
    run_experiment,
    sweep,
    sweep_m,
)
from pbspm.graph import adjacency, simplify
from pbspm.spectral import (
    eigendecompose,
    eigenvalue_correction,
    eigenvalues,
    pbspm_scores,
    sample_perturbation,
    select_m,
    spm_scores,
)
from pbspm.split import popularity, split_train_probe

from conftest import random_event_stream, random_view, tsv_stream

# The alpha, p_fresher and m grids of the benchmark's sweep-grid workload.
BENCHMARK_SWEEP = ((0.0, 2.0, 5.0, 10.0), (0.05, 0.1, 0.2, 0.3), (1, 2, 4, 8, 16, 41))


BASELINE_ORACLES = {
    "CN": lambda view, cfg: cn_scores(view),
    "AA": lambda view, cfg: aa_scores(view),
    "RA": lambda view, cfg: ra_scores(view),
    "Katz": lambda view, cfg: katz_scores(view, cfg.katz_damping, cfg.katz_max_path_length),
    "SRW": lambda view, cfg: srw_scores(view, cfg.srw_steps),
}


def clique_events(seed, k=4, size=8):
    """k cliques of ``size`` nodes on a few early cross edges, intra pairs in random order.

    The newest intra pairs close many triangles, so every baseline ranks probe
    pairs at the very top.
    """
    rng = np.random.default_rng(seed)
    intra = [(c * size + a, c * size + b)
             for c in range(k) for a in range(size) for b in range(a + 1, size)]
    cross = [(a, b) for a, b in rng.integers(0, k * size, size=(20, 2)) if a // size != b // size]
    pairs = cross + [intra[i] for i in rng.permutation(len(intra))]
    return tsv_stream((a, b, t) for t, (a, b) in enumerate(pairs, start=1))


def engine_oracle(graph, cfg):
    """Per-realization precisions, mean precision, top-L list and mean delta-CC of one config.

    Built from the public pieces one realization and one config at a time:
    perturb, decompose, correct, reconstruct, rank, count hits, and correlate
    the boosted leading eigenvector ``x1 * (1 + alpha * s)`` with each node's
    count of the edges after the training prefix.
    """
    split = split_train_probe(graph, cfg.probe_fraction)
    view = adjacency(split.train, graph.n)
    L = cfg.L if cfg.L is not None else len(split.probe)
    if cfg.method in BASELINE_ORACLES:
        top = rank_candidates(BASELINE_ORACLES[cfg.method](view, cfg), view, L)
        prec = precision_at(top, split.probe, L)
        return (prec,), prec, top, None
    pop = popularity(split.train, graph.n, cfg.p_fresher)
    boost = 1.0 if cfg.method == "SPM" else 1.0 + cfg.alpha * pop
    k_probe = np.zeros(graph.n)
    for u, v, _ in graph.edges[len(split.train):]:
        k_probe[u] += 1
        k_probe[v] += 1
    m = cfg.m
    if cfg.method == "FastPBSPM" and m is None:
        m = select_m(eigenvalues(view), cfg.m_threshold)
    per, dccs, total = [], [], np.zeros((graph.n, graph.n))
    for r in range(cfg.realizations):
        sample = sample_perturbation(split.train, cfg.p_h, cfg.seed + r)
        retained = adjacency(sample.retained, graph.n)
        model = eigenvalue_correction(eigendecompose(retained), sample.removed)
        if cfg.method == "SPM":
            scores = spm_scores(model)
        elif cfg.method == "PBSPM":
            scores = pbspm_scores(model, pop, cfg.alpha)
        else:
            scores = pbspm_scores(model, pop, cfg.alpha, m=m)
        per.append(precision_at(rank_candidates(scores, view, L), split.probe, L))
        total += scores
        try:
            dccs.append(delta_cc(model, model.eigenvectors[:, 0] * boost, k_probe))
        except ZeroVarianceError:
            pass
    mean_dcc = float(np.mean(dccs)) if dccs else None
    top = rank_candidates(total / cfg.realizations, view, L)
    if cfg.score_averaging == "matrix":
        return (), precision_at(top, split.probe, L), top, mean_dcc
    return tuple(per), float(np.mean(per)), top, mean_dcc


class TestRankCandidates:
    def test_complete_graph_has_no_candidates(self):
        full = np.ones((4, 4)) - np.eye(4)
        ranked = rank_candidates(np.zeros((4, 4)), full)
        assert len(ranked) == 0

    def test_three_nodes_one_edge_two_candidates(self):
        train = np.zeros((3, 3))
        train[0, 1] = train[1, 0] = 1.0
        ranked = rank_candidates(np.zeros((3, 3)), train)
        assert len(ranked) == 2
        assert {tuple(p) for p in ranked.pairs} == {(0, 2), (1, 2)}

    def test_candidates_equal_complement_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            view = random_view(rng, 9, p=0.4)
            scores = rng.random((9, 9))
            ranked = rank_candidates(scores, view)
            expected = {
                (i, j)
                for i in range(9)
                for j in range(i + 1, 9)
                if view[i, j] == 0
            }
            assert {tuple(p) for p in ranked.pairs} == expected

    def test_candidates_and_edges_cover_all_pairs(self):
        rng = np.random.default_rng(61)
        view = random_view(rng, 12, p=0.3)
        ranked = rank_candidates(np.zeros((12, 12)), view)
        edge_count = int(view.sum()) // 2
        assert len(ranked) + edge_count == 12 * 11 // 2

    def test_descending_scores_with_index_tiebreak(self):
        rng = np.random.default_rng(62)
        view = np.zeros((5, 5))
        values = np.zeros((5, 5))
        values[0, 1] = values[1, 0] = 3.0
        values[2, 3] = values[3, 2] = 3.0
        values[0, 4] = values[4, 0] = 9.0
        ranked = rank_candidates(values, view)
        assert tuple(ranked.pairs[0]) == (0, 4)
        assert tuple(ranked.pairs[1]) == (0, 1)  # ties: (0,1) before (2,3)
        assert tuple(ranked.pairs[2]) == (2, 3)
        assert np.all(ranked.scores[:-1] >= ranked.scores[1:])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rank_candidates(np.zeros((3, 3)), np.zeros((4, 4)))


def ranking_oracle(scores, view):
    """Every non-edge pair in (score desc, i, j) order, by a brute-force lexsort."""
    iu, ju = np.triu_indices(len(view), k=1)
    keep = view[iu, ju] == 0
    ii, jj = iu[keep], ju[keep]
    sc = scores[ii, jj]
    order = np.lexsort((jj, ii, -sc))
    return np.column_stack((ii[order], jj[order])), sc[order]


class TestTopLRanking:
    """``rank_candidates(s, v, L)`` is exactly the first L rows of the full order."""

    def _assert_prefix(self, scores, view, L):
        pairs, sc = ranking_oracle(scores, view)
        ranked = rank_candidates(scores, view, L)
        top = len(pairs) if L is None else min(L, len(pairs))
        assert len(ranked) == top
        assert np.array_equal(ranked.pairs, pairs[:top])
        # Bitwise, so that +0.0 and -0.0 keep their signs.
        assert ranked.scores.tobytes() == sc[:top].tobytes()

    def test_common_neighbor_ties_on_random_graphs(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            n = int(rng.integers(6, 30))
            view = random_view(rng, n, p=float(rng.uniform(0.1, 0.5)))
            scores = cn_scores(view)
            count = len(ranking_oracle(scores, view)[0])
            for L in (None, 1, 2, int(rng.integers(1, count + 2)), count, count + 1):
                if L is None or L >= 1:
                    self._assert_prefix(scores, view, L)

    def test_l_inside_a_tie_block(self):
        view = np.zeros((6, 6))
        values = np.zeros((6, 6))
        for i, j, v in [(0, 5, 4.0), (1, 2, 2.0), (3, 4, 2.0), (0, 3, 2.0), (2, 5, 2.0)]:
            values[i, j] = values[j, i] = v
        for L in range(1, 17):
            self._assert_prefix(values, view, L)
        ranked = rank_candidates(values, view, 3)
        assert [tuple(p) for p in ranked.pairs] == [(0, 5), (0, 3), (1, 2)]

    def test_all_zero_scores(self):
        rng = np.random.default_rng(65)
        view = random_view(rng, 15, p=0.3)
        for L in (None, 1, 7, 40, 200):
            self._assert_prefix(np.zeros((15, 15)), view, L)

    def test_signed_zeros_tie(self):
        rng = np.random.default_rng(66)
        view = random_view(rng, 12, p=0.2)
        # Only the upper triangle is ranked; symmetrizing by addition would
        # turn every -0.0 into +0.0.
        values = np.where(rng.random((12, 12)) < 0.5, -0.0, 0.0)
        values[2, 7] = 1.0
        assert np.signbit(values[np.triu_indices(12, 1)]).any()
        for L in (None, 1, 2, 10, 66):
            self._assert_prefix(values, view, L)

    def test_nan_scores_rank_last(self):
        rng = np.random.default_rng(67)
        view = np.zeros((8, 8))
        values = np.round(rng.random((8, 8)) * 3)
        values[rng.random((8, 8)) < 0.4] = np.nan
        values = np.triu(values, 1) + np.triu(values, 1).T
        for L in range(1, 30):
            self._assert_prefix(values, view, L)

    def test_complete_graph_has_no_candidates(self):
        full = np.ones((5, 5)) - np.eye(5)
        for L in (None, 1, 3):
            ranked = rank_candidates(np.ones((5, 5)), full, L)
            assert len(ranked) == 0

    def test_l_beyond_candidates_fails_precision(self):
        train = np.zeros((3, 3))
        train[0, 1] = train[1, 0] = 1.0
        ranked = rank_candidates(np.zeros((3, 3)), train, 5)
        assert len(ranked) == 2
        with pytest.raises(ValueError, match="exceeds candidate count 2"):
            precision_at(ranked, {(0, 2)}, 5)

    def test_nonpositive_l_rejected(self):
        with pytest.raises(ValueError):
            rank_candidates(np.zeros((3, 3)), np.zeros((3, 3)), 0)


class TestPrecisionAt:
    def _ranked(self, pairs, scores):
        pairs = np.asarray(pairs)
        return RankedCandidates(pairs=pairs, scores=np.asarray(scores, dtype=float))

    def test_perfect_prediction(self):
        ranked = self._ranked([(0, 1), (0, 2), (1, 2)], [3.0, 2.0, 1.0])
        assert precision_at(ranked, {(0, 1), (0, 2)}, L=2) == 1.0

    def test_complete_miss(self):
        ranked = self._ranked([(0, 1), (0, 2)], [2.0, 1.0])
        assert precision_at(ranked, {(5, 6)}, L=2) == 0.0

    def test_matches_brute_force_intersection(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            n_cand = int(rng.integers(5, 30))
            pairs = [(i, i + 1) for i in range(n_cand)]
            scores = rng.random(n_cand)
            order = np.argsort(-scores)
            ranked = self._ranked([pairs[i] for i in order], scores[order])
            probe = {pairs[i] for i in rng.choice(n_cand, size=5, replace=False)}
            L = int(rng.integers(1, n_cand + 1))
            expected = len([p for p in (tuple(q) for q in ranked.pairs[:L]) if p in probe]) / L
            assert precision_at(ranked, probe, L) == pytest.approx(expected)

    def test_adding_probe_hit_never_decreases(self):
        ranked = self._ranked([(0, 1), (0, 2), (1, 2)], [3.0, 2.0, 1.0])
        probe = {(1, 2)}
        before = precision_at(ranked, probe, L=2)
        after = precision_at(ranked, probe | {(0, 1)}, L=2)
        assert after >= before

    def test_empty_probe_rejected(self):
        ranked = self._ranked([(0, 1)], [1.0])
        with pytest.raises(UndefinedMetricError):
            precision_at(ranked, set(), L=1)

    def test_l_out_of_range(self):
        ranked = self._ranked([(0, 1)], [1.0])
        with pytest.raises(ValueError):
            precision_at(ranked, {(0, 1)}, L=2)
        with pytest.raises(ValueError):
            precision_at(ranked, {(0, 1)}, L=0)


class TestPearsonCc:
    def test_perfect_linear(self):
        x = np.arange(10.0)
        assert pearson_cc(x, 2 * x + 3) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        x = np.arange(10.0)
        assert pearson_cc(x, -x) == pytest.approx(-1.0)

    def test_matches_textbook_oracle(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            x = rng.random(20)
            y = rng.random(20)
            mx, my = sum(x) / 20, sum(y) / 20
            sx = math.sqrt(sum((v - mx) ** 2 for v in x) / 20)
            sy = math.sqrt(sum((v - my) ** 2 for v in y) / 20)
            oracle = sum((a - mx) * (b - my) for a, b in zip(x, y)) / (20 * sx * sy)
            assert pearson_cc(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_constant_vector_rejected(self):
        with pytest.raises(ZeroVarianceError):
            pearson_cc(np.ones(5), np.arange(5.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson_cc(np.arange(4.0), np.arange(5.0))

    def test_one_sample_rejected(self):
        with pytest.raises(ValueError, match="need at least 2 samples, got 1"):
            pearson_cc([1.0], [2.0])


class TestDeltaCc:
    def test_unboosted_vector_gives_exact_zero(self):
        rng = np.random.default_rng(65)
        view = random_view(rng, 10, p=0.5)
        model = eigendecompose(view)
        k_probe = rng.integers(0, 5, size=10).astype(float)
        assert delta_cc(model, model.eigenvectors[:, 0], k_probe) == 0.0


class TestRunExperiment:
    def test_deterministic_reports(self, shift_graph):
        cfg = ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.15, seed=42,
                               realizations=3)
        assert run_experiment(shift_graph, cfg) == run_experiment(shift_graph, cfg)

    def test_pbspm_alpha_zero_equals_spm(self, shift_graph):
        spm = run_experiment(
            shift_graph, ExperimentConfig(method="SPM", p_fresher=0.15, seed=7,
                                          realizations=4)
        )
        pbspm = run_experiment(
            shift_graph, ExperimentConfig(method="PBSPM", alpha=0.0, p_fresher=0.15,
                                          seed=7, realizations=4)
        )
        assert pbspm.mean_precision == spm.mean_precision
        assert pbspm.per_realization == spm.per_realization

    def test_mean_is_arithmetic_mean(self, shift_graph):
        cfg = ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.15, seed=3,
                               realizations=5)
        report = run_experiment(shift_graph, cfg)
        assert len(report.per_realization) == 5
        assert report.mean_precision == pytest.approx(
            sum(report.per_realization) / 5, abs=1e-15
        )
        assert all(0.0 <= p <= 1.0 for p in report.per_realization)

    def test_baseline_runs_once_without_perturbation(self, shift_graph):
        report = run_experiment(
            shift_graph, ExperimentConfig(method="CN", p_fresher=0.15, seed=1)
        )
        assert len(report.per_realization) == 1
        assert report.mean_delta_lambda1 is None
        assert report.mean_delta_cc is None

    def test_popularity_boost_beats_plain_spm_on_shift_network(self, shift_graph):
        spm = run_experiment(
            shift_graph, ExperimentConfig(method="SPM", p_fresher=0.15, seed=42)
        )
        pbspm = run_experiment(
            shift_graph,
            ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.15, seed=42),
        )
        assert pbspm.mean_precision > spm.mean_precision

    def test_fast_variant_tracks_full_variant(self, shift_graph):
        full = run_experiment(
            shift_graph,
            ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.15, seed=42),
        )
        fast = run_experiment(
            shift_graph,
            ExperimentConfig(method="FastPBSPM", alpha=5.0, p_fresher=0.15, seed=42),
        )
        assert fast.resolved_m is not None and fast.resolved_m >= 1
        assert abs(fast.mean_precision - full.mean_precision) <= 0.03

    def test_matrix_averaging_mode(self, shift_graph):
        cfg = ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.15, seed=11,
                               realizations=4, score_averaging="matrix")
        report = run_experiment(shift_graph, cfg)
        assert report.per_realization == ()
        assert report.std_precision is None
        assert 0.0 <= report.mean_precision <= 1.0

    def test_rising_precision_from_alpha_zero(self, shift_graph):
        # Popularity has to help on a network built around recency shift.
        zero = run_experiment(
            shift_graph, ExperimentConfig(method="PBSPM", alpha=0.0, p_fresher=0.15, seed=42)
        )
        mid = run_experiment(
            shift_graph, ExperimentConfig(method="PBSPM", alpha=3.0, p_fresher=0.15, seed=42)
        )
        assert mid.mean_precision > zero.mean_precision

    @staticmethod
    def fail_second_solve(monkeypatch):
        """Make the engine's second eigensolve fail; return the real solver."""
        import pbspm.evaluation as evaluation
        from pbspm.errors import NumericalError

        real = evaluation.eigendecompose
        calls = {"count": 0}

        def flaky(view, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise NumericalError("synthetic solver failure")
            return real(view, **kwargs)

        monkeypatch.setattr(evaluation, "eigendecompose", flaky)
        return real

    @pytest.mark.parametrize("averaging", ["precision", "matrix"])
    def test_failed_realization_is_reported_not_fatal(self, shift_graph, monkeypatch,
                                                      averaging):
        real = self.fail_second_solve(monkeypatch)
        # At L = 400 the mean of realizations 0 and 2 has another precision
        # than either one alone or than all three.
        cfg = ExperimentConfig(method="SPM", p_fresher=0.15, seed=1, realizations=3, L=400,
                               score_averaging=averaging)
        report = run_experiment(shift_graph, cfg)
        assert len(report.failures) == 1
        assert "realization 1" in report.failures[0]
        if averaging == "precision":
            assert len(report.per_realization) == 2
            return
        # The failed solve leaves the sum of realization 0's scores as it is:
        # the mean is of realizations 0 and 2.
        split = split_train_probe(shift_graph, cfg.probe_fraction)

        def spm(r):
            sample = sample_perturbation(split.train, cfg.p_h, cfg.seed + r)
            model = real(adjacency(sample.retained, shift_graph.n))
            return spm_scores(eigenvalue_correction(model, sample.removed))

        ranked = rank_candidates((spm(0) + spm(2)) / 2, adjacency(split.train, shift_graph.n))
        assert report.mean_precision == precision_at(ranked, split.probe, cfg.L)

    def test_failed_realization_leaves_its_truncated_block_unread(self, shift_graph,
                                                                  monkeypatch):
        # A truncation's pairs fill one block of m columns per realization that
        # solved; realization 1 fails, so realization 2 fills the second block
        # and the third is never read.
        real = self.fail_second_solve(monkeypatch)
        cfg = ExperimentConfig(method="FastPBSPM", m=6, alpha=3.0, p_fresher=0.15, seed=1,
                               realizations=3, L=400, score_averaging="matrix")
        report = run_experiment(shift_graph, cfg)
        assert len(report.failures) == 1
        split = split_train_probe(shift_graph, cfg.probe_fraction)
        pop = popularity(split.train, shift_graph.n, cfg.p_fresher)

        def scores(r):
            sample = sample_perturbation(split.train, cfg.p_h, cfg.seed + r)
            model = real(adjacency(sample.retained, shift_graph.n))
            return pbspm_scores(eigenvalue_correction(model, sample.removed), pop, cfg.alpha,
                                m=cfg.m)

        mean = (scores(0) + scores(2)) / 2
        ranked = rank_candidates(mean, adjacency(split.train, shift_graph.n))
        assert report.mean_precision == precision_at(ranked, split.probe, cfg.L)

    def test_constant_probe_increment_leaves_delta_cc_undefined(self):
        # Training is a ring with chords on 12 nodes; the 6 later edges pair
        # node i with i + 6, so every node gains exactly one probe edge and no
        # vector correlates with the increment.
        ring = [(i, (i + d) % 12) for d in (1, 2) for i in range(12)]
        later = [(i, i + 6) for i in range(6)]
        graph = simplify(tsv_stream([(a, b, t) for t, (a, b) in enumerate(ring + later)]))
        for method in ("SPM", "PBSPM"):
            report = run_experiment(graph, ExperimentConfig(
                method=method, alpha=5.0, p_fresher=0.25, probe_fraction=0.2, realizations=2))
            assert len(report.per_realization) == 2
            assert report.mean_delta_cc is None, method

    def test_all_realizations_failing_raises(self, shift_graph, monkeypatch):
        import pbspm.evaluation as evaluation
        from pbspm.errors import NumericalError

        def broken(view, **kwargs):
            raise NumericalError("synthetic solver failure")

        monkeypatch.setattr(evaluation, "eigendecompose", broken)
        cfg = ExperimentConfig(method="SPM", p_fresher=0.15, seed=1, realizations=2)
        with pytest.raises(NumericalError):
            run_experiment(shift_graph, cfg)


class TestSweep:
    def test_single_zero_point_equals_spm(self, shift_graph):
        base = ExperimentConfig(method="PBSPM", p_fresher=0.15, seed=9, realizations=3)
        points = sweep(shift_graph, base, alphas=[0.0], p_freshers=[0.15])
        spm = run_experiment(
            shift_graph, ExperimentConfig(method="SPM", p_fresher=0.15, seed=9,
                                          realizations=3)
        )
        assert len(points) == 1
        assert points[0].mean_precision == spm.mean_precision

    def test_grid_size(self, shift_graph):
        base = ExperimentConfig(method="PBSPM", p_fresher=0.15, seed=9, realizations=2)
        points = sweep(shift_graph, base, alphas=[0.0, 2.0, 4.0], p_freshers=[0.1, 0.15])
        # p_fresher outermost, then alpha.
        assert [(p.config.p_fresher, p.config.alpha) for p in points] == [
            (pf, alpha) for pf in (0.1, 0.15) for alpha in (0.0, 2.0, 4.0)
        ]

    def test_points_match_run_experiment(self, shift_graph):
        base = ExperimentConfig(method="PBSPM", p_fresher=0.15, seed=5, realizations=3)
        points = sweep(shift_graph, base, alphas=[4.0], p_freshers=[0.15])
        direct = run_experiment(
            shift_graph,
            ExperimentConfig(method="PBSPM", alpha=4.0, p_fresher=0.15, seed=5,
                             realizations=3),
        )
        assert points[0].per_realization == direct.per_realization

    def test_empty_grid_rejected(self, shift_graph):
        base = ExperimentConfig(method="PBSPM", p_fresher=0.15, seed=5)
        with pytest.raises(ValueError):
            sweep(shift_graph, base, alphas=[], p_freshers=[0.1])

    def test_baseline_method_rejected(self, shift_graph):
        base = ExperimentConfig(method="CN", p_fresher=0.15, seed=5)
        with pytest.raises(ValueError):
            sweep(shift_graph, base, alphas=[0.0], p_freshers=[0.1])


class TestSweepM:
    def test_full_truncation_matches_pbspm(self, shift_graph):
        base = ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.15, seed=42,
                                realizations=3)
        results = sweep_m(shift_graph, base, ms=[1, shift_graph.n])
        full = run_experiment(
            shift_graph,
            ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.15, seed=42,
                             realizations=3),
        )
        by_m = {report.config.m: report for report in results}
        assert by_m[shift_graph.n].mean_precision == full.mean_precision

    def test_m_out_of_range_rejected(self, shift_graph):
        base = ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.15, seed=42)
        with pytest.raises(ValueError):
            sweep_m(shift_graph, base, ms=[0])

    def test_empty_grid_rejected(self, shift_graph):
        base = ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.15, seed=42)
        with pytest.raises(ValueError, match="m grid must be non-empty"):
            sweep_m(shift_graph, base, ms=[])


class TestOnePassEngine:
    def test_joint_run_matches_separate_runs(self, shift_graph):
        base = ExperimentConfig(method="SPM", alpha=4.0, p_fresher=0.15, seed=3,
                                realizations=3)
        cfgs = [
            base,
            replace(base, method="PBSPM"),
            replace(base, method="FastPBSPM"),
            replace(base, method="FastPBSPM", m=7, p_fresher=0.3),
            replace(base, method="PBSPM", score_averaging="matrix"),
            replace(base, method="CN"),
            # alpha = 0 is unboosted: these share SPM's score vector, and
            # those with one L its cut, as duplicates share theirs.
            replace(base, method="PBSPM", alpha=0.0),
            replace(base, method="PBSPM", alpha=0.0, p_fresher=0.3, L=9),
            replace(base, method="SPM", L=9),
            replace(base, method="PBSPM", alpha=0.0, score_averaging="matrix"),
            replace(base, method="FastPBSPM", alpha=0.0, m=7),
            replace(base, method="PBSPM"),
            replace(base, method="PBSPM", L=9),
        ]
        separate = [run_experiment(shift_graph, cfg) for cfg in cfgs]
        assert [report for report, _ in _run_points(shift_graph, cfgs)] == separate
        joint = _run_points(shift_graph, cfgs, keep_top=True)
        assert [report for report, _ in joint] == separate
        for cfg, (report, top) in zip(cfgs, joint):
            ((alone, alone_top),) = _run_points(shift_graph, [cfg], keep_top=True)
            assert report == alone, cfg
            assert np.array_equal(top.pairs, alone_top.pairs), cfg
            assert np.array_equal(top.scores, alone_top.scores), cfg

    def test_unboosted_points_share_one_cut_and_one_correlation(self, shift_graph, monkeypatch):
        import pbspm.evaluation as evaluation

        calls = dict.fromkeys(("_top", "delta_cc"), 0)
        for name in calls:
            def counted(*args, _real=getattr(evaluation, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(evaluation, name, counted)
        base = ExperimentConfig(method="PBSPM", alpha=0.0, seed=3, realizations=3)
        cfgs = [replace(base, p_fresher=pf) for pf in (0.05, 0.1, 0.2, 0.3)]
        cfgs += [replace(base, method="SPM"), replace(base, alpha=5.0)]
        reports = [report for report, _ in _run_points(shift_graph, cfgs)]
        # Per realization: one cut for the five unboosted points and one for
        # the boosted one; one unboosted correlation and one boosted.
        assert calls == {"_top": 2 * 3, "delta_cc": 2 * 3}
        for report in reports[:5]:
            assert report.per_realization == reports[4].per_realization
            assert report.mean_delta_cc == 0.0
        assert reports[5].mean_delta_cc != 0.0

    def test_delta_cc_is_computed_once_per_boost(self, shift_graph, monkeypatch):
        import pbspm.evaluation as evaluation

        calls = {"delta_cc": 0}

        def counted(*args, _real=evaluation.delta_cc):
            calls["delta_cc"] += 1
            return _real(*args)

        monkeypatch.setattr(evaluation, "delta_cc", counted)
        base = ExperimentConfig(method="SPM", alpha=5.0, p_fresher=0.2, seed=3, realizations=3)
        cfgs = [base, replace(base, method="PBSPM"), replace(base, method="FastPBSPM", m=3)]
        spm, pbspm, fast = (report for report, _ in _run_points(shift_graph, cfgs))
        # Per realization one unboosted correlation and one for the boost
        # that PBSPM and FastPBSPM share, whatever their truncations.
        assert calls["delta_cc"] == 2 * 3
        assert spm.mean_delta_cc == 0.0
        assert pbspm.mean_delta_cc is not None
        assert pbspm.mean_delta_cc == fast.mean_delta_cc

    def test_every_score_vector_is_cut_once_per_l(self, shift_graph, monkeypatch):
        import pbspm.evaluation as evaluation

        calls = {"_top": 0}

        def counted(*args, _real=evaluation._top):
            calls["_top"] += 1
            return _real(*args)

        monkeypatch.setattr(evaluation, "_top", counted)
        base = ExperimentConfig(method="PBSPM", alpha=5.0, seed=3, realizations=3)
        cfgs = [
            base,
            replace(base, score_averaging="matrix", L=17),  # the boosted vector's second L
            replace(base, alpha=0.0),
            replace(base, method="SPM"),  # shares the alpha = 0 vector and its L
            replace(base, method="CN"),
        ]
        results = _run_points(shift_graph, cfgs, keep_top=True)
        # Per realization one cut of each vector; on the means one per vector
        # and distinct L (two for the boosted vector); one per baseline.
        assert calls["_top"] == 2 * 3 + (2 + 1) + 1
        assert all(len(top) == report.L for report, top in results)

    @pytest.mark.parametrize(
        "cfgs, want",
        [
            # The benchmark's sweep: 16 grid points and 6 m-sweep points make
            # 12 boosted vectors over 4 p_fresher values and 7 unboosted ones.
            (_sweep_configs(ExperimentConfig(method="PBSPM", seed=3, realizations=2),
                            *BENCHMARK_SWEEP), 4),
            # A predict: two vectors, the full spectrum's and FastPBSPM's m, one boost.
            ([ExperimentConfig(method=method, alpha=5.0, seed=3, realizations=2)
              for method in ("PBSPM", "FastPBSPM")], 1),
        ],
        ids=["sweep", "predict"],
    )
    def test_popularity_is_computed_once_per_p_fresher(self, shift_graph, monkeypatch, cfgs, want):
        import pbspm.evaluation as evaluation

        calls = []

        def counted(*args, _real=evaluation.popularity):
            calls.append(args[2])
            return _real(*args)

        monkeypatch.setattr(evaluation, "popularity", counted)
        _run_points(shift_graph, cfgs)
        assert len(calls) == want
        assert len(set(calls)) == want

    @pytest.mark.parametrize("source", ["shift", "cliques", 0, 1, 2, 3])
    def test_matches_public_pieces_oracle(self, shift_graph, source):
        if source == "shift":
            graph = shift_graph
        elif source == "cliques":
            graph = simplify(clique_events(0))
        else:
            rng = np.random.default_rng(source)
            graph = simplify(random_event_stream(rng, n_labels=30, n_events=300, t_max=1000))
        base = ExperimentConfig(method="SPM", alpha=3.0, p_fresher=0.2, seed=7,
                                realizations=3)
        cfgs = [
            base,
            replace(base, method="PBSPM"),
            replace(base, method="FastPBSPM"),
            replace(base, method="FastPBSPM", m=5, p_fresher=0.3, alpha=7.0),
            replace(base, method="PBSPM", alpha=0.5, score_averaging="matrix", L=17),
            replace(base, method="CN"),
            replace(base, method="AA", L=23),
            replace(base, method="RA"),
            replace(base, method="Katz"),
            replace(base, method="SRW"),
        ]
        for cfg, (report, top) in zip(cfgs, _run_points(graph, cfgs, keep_top=True)):
            per, mean_precision, mean_top, mean_dcc = engine_oracle(graph, cfg)
            assert report.per_realization == per, cfg
            assert report.mean_precision == mean_precision, cfg
            assert report.mean_delta_cc == mean_dcc, cfg
            assert np.array_equal(top.pairs, mean_top.pairs), cfg
            if cfg.method in BASELINE_ORACLES:
                np.testing.assert_array_equal(top.scores, mean_top.scores)
                assert report.std_precision == 0.0, cfg
                assert report.mean_delta_lambda1 is report.mean_delta_cc is None, cfg
                assert report.resolved_m is None and report.failures == (), cfg
            else:
                np.testing.assert_allclose(top.scores, mean_top.scores, rtol=1e-12, atol=0)


class TestAveragedScores:
    """The engine's mean boosted scores against the mean of the boosted matrices.

    The engine boosts the averaged SPM scores. It averages a truncation from
    its stacked eigenpairs while n·R·m is below the candidate count, as at
    m=1 here, and from a running sum of its scores otherwise, as at m=20.
    The oracle sums ``f_i * f_j * S_ij`` matrices realization by
    realization, as ``pbspm_scores`` gives them.
    """

    @pytest.mark.parametrize("source", ["shift", 0, 1, 2])
    def test_boost_of_mean_matches_mean_of_boosted(self, shift_graph, source):
        if source == "shift":
            graph = shift_graph
        else:
            rng = np.random.default_rng(source)
            graph = simplify(random_event_stream(rng, n_labels=40, n_events=500, t_max=1000))
        split = split_train_probe(graph, 0.1)
        train_adj = adjacency(split.train, graph.n)
        n_cand = int(np.count_nonzero(np.triu(train_adj == 0, 1)))
        assert graph.n * 4 * 1 < n_cand <= graph.n * 4 * 20  # m=1 stacked, m=20 summed
        base = ExperimentConfig(method="PBSPM", alpha=4.0, p_fresher=0.2, seed=5,
                                realizations=4)
        cfgs = [
            base,
            replace(base, method="FastPBSPM", m=1),
            replace(base, method="FastPBSPM", m=6, alpha=9.0, p_fresher=0.3),
            replace(base, method="FastPBSPM"),
            replace(base, score_averaging="matrix"),
            replace(base, method="FastPBSPM", m=6, score_averaging="matrix"),
            replace(base, method="FastPBSPM", m=1, score_averaging="matrix"),
            replace(base, method="FastPBSPM", m=20, score_averaging="matrix"),
        ]
        for cfg, (report, top) in zip(cfgs, _run_points(graph, cfgs, keep_top=True)):
            per, mean_precision, mean_top, _ = engine_oracle(graph, cfg)
            assert report.per_realization == per, cfg
            assert report.mean_precision == mean_precision, cfg
            assert np.array_equal(top.pairs, mean_top.pairs), cfg
        # Every candidate's mean score, matched by pair, not by rank.
        every = [replace(cfg, L=n_cand) for cfg in cfgs]
        for cfg, (_, top) in zip(every, _run_points(graph, every, keep_top=True)):
            mean_top = engine_oracle(graph, cfg)[2]
            got = top.scores[np.lexsort(top.pairs.T[::-1])]
            want = mean_top.scores[np.lexsort(mean_top.pairs.T[::-1])]
            assert got.size == want.size == n_cand
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), cfg


# Tracked (tracemalloc) peak of one keep_top _run_points call, in n x n float64
# arrays, per method set. It counts every numpy array; the LAPACK workspace
# numpy's eigh gufunc allocates outside them (its input copy and two n x n of
# dsyevd work) is untracked, and adds about 3 to the resident peak.
# ``FastPBSPM:k`` is FastPBSPM at m = k; plain FastPBSPM takes the auto m.
# A set runs 2 realizations, or R with the suffix ``/R``: at R=10 the n·R·m
# floats of m=100 or 250 stacked eigenpairs would outnumber the ~42.5k
# candidates, so the engine keeps a running sum instead.
# ``sweep`` is the benchmark's sweep: PBSPM over ``BENCHMARK_SWEEP``.
PEAK_NXN = {
    "PBSPM": 3.35,
    "FastPBSPM": 2.85,
    "FastPBSPM:1": 2.85,
    "FastPBSPM:8": 2.9,
    "FastPBSPM:100/10": 3.4,
    "FastPBSPM:250/10": 3.4,
    "SPM": 3.35,
    "CN": 3.3,
    "AA": 3.5,
    "RA": 3.5,
    "Katz": 3.4,
    "SRW": 5.25,
    "PBSPM,SPM,FastPBSPM,CN,Katz": 3.45,
    "sweep": 4.0,
}


@pytest.mark.parametrize("methods", sorted(PEAK_NXN))
def test_engine_peak_within_its_nxn_budget(methods):
    names, _, reps = methods.partition("/")
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        graph = simplify(random_event_stream(rng, n_labels=300, n_events=3000, t_max=10**6))
        base = ExperimentConfig(alpha=5.0, realizations=int(reps or 2), seed=seed)
        if names == "sweep":
            cfgs = _sweep_configs(replace(base, method="PBSPM"), *BENCHMARK_SWEEP)
        else:
            cfgs = []
            for spec in names.split(","):
                method, _, m = spec.partition(":")
                cfgs.append(replace(base, method=method, m=int(m) if m else None))
        tracemalloc.start()
        try:
            _run_points(graph, cfgs, keep_top=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_NXN[methods] * graph.n ** 2 * 8, (seed, peak / (graph.n ** 2 * 8))


def test_predict_eigensolve_allocates_no_nxn_output(monkeypatch):
    # Each realization's retained matrix is solved in place: inside the LAPACK
    # gufunc call numpy tracks only the eigenvalues, not an n x n output.
    from numpy.linalg import _umath_linalg

    real = _umath_linalg.eigh_lo
    growth = []

    def traced(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = real(*args, **kwargs)
        growth.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    traced.nout = real.nout
    monkeypatch.setattr(_umath_linalg, "eigh_lo", traced)
    graph = simplify(random_event_stream(np.random.default_rng(0), n_labels=300,
                                         n_events=3000, t_max=10**6))
    base = ExperimentConfig(method="SPM", alpha=5.0, realizations=3)
    tracemalloc.start()
    try:
        _run_points(graph, [base, replace(base, method="PBSPM")], keep_top=True)
    finally:
        tracemalloc.stop()
    assert len(growth) == 3
    assert max(growth) < 0.5 * graph.n ** 2 * 8, max(growth) / (graph.n ** 2 * 8)


# Each record of the package with ndarray fields, built from the shift graph.
RECORDS = {
    "TemporalEventStream": lambda g: tsv_stream(
        (g.labels[u], g.labels[v], t) for u, v, t in g.edges.tolist()
    ),
    "TemporalGraph": lambda g: g,
    "TrainProbeSplit": lambda g: split_train_probe(g, 0.1),
    "PerturbationSample": lambda g: sample_perturbation(g.edges, 0.1, seed=0),
    "SpectralModel": lambda g: eigendecompose(adjacency(g.edges, g.n)),
    "RankedCandidates": lambda g: rank_candidates(
        cn_scores(adjacency(g.edges, g.n)), adjacency(g.edges, g.n), L=10
    ),
}


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_records_compare_and_hash_by_identity(record, shift_graph):
    # An ndarray field makes a generated __eq__ raise on equal records, and
    # a generated __hash__ raise on any record.
    x = RECORDS[record](shift_graph)
    twin = copy.copy(x)
    assert x == x
    assert x != twin
    assert hash(x) == hash(x)
    assert len({x, twin}) == 2


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method="PageRank")

    def test_zero_realizations(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method="SPM", realizations=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(method="SPM", seed=-1)

    def test_zero_L(self):
        with pytest.raises(ValueError, match="L must be >= 1, got 0"):
            ExperimentConfig(method="CN", L=0)

    def test_bad_averaging(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method="SPM", score_averaging="median")
