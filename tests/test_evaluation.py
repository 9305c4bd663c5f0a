"""Ranking, precision, correlation, and the experiment runner."""

import math
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
    run_experiment,
    sweep,
    sweep_m,
)
from pbspm.graph import RawEvent, TemporalEventStream, adjacency, simplify
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

from conftest import random_event_stream, random_view


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
    return TemporalEventStream.from_events(
        [RawEvent(str(a), str(b), t) for t, (a, b) in enumerate(pairs, start=1)]
    )


def engine_oracle(graph, cfg):
    """Per-realization precisions, mean precision and top-L list of one config.

    Built from the public pieces one realization and one config at a time:
    perturb, decompose, correct, reconstruct, rank, count hits.
    """
    split = split_train_probe(graph, cfg.probe_fraction)
    view = adjacency(graph, split.train)
    L = cfg.L if cfg.L is not None else len(split.probe)
    if cfg.method in BASELINE_ORACLES:
        top = rank_candidates(BASELINE_ORACLES[cfg.method](view, cfg), view, L)
        prec = precision_at(top, split.probe, L)
        return (prec,), prec, top
    pop = popularity(graph, split.train, cfg.p_fresher)
    m = cfg.m
    if cfg.method == "FastPBSPM" and m is None:
        m = select_m(eigenvalues(view), cfg.m_threshold)
    per, total = [], np.zeros((graph.n, graph.n))
    for r in range(cfg.realizations):
        sample = sample_perturbation(view, graph.edges[split.train], cfg.p_h, cfg.seed + r)
        model = eigenvalue_correction(eigendecompose(sample.retained), sample.removed)
        if cfg.method == "SPM":
            scores = spm_scores(model)
        elif cfg.method == "PBSPM":
            scores = pbspm_scores(model, pop, cfg.alpha)
        else:
            scores = pbspm_scores(model, pop, cfg.alpha, m=m)
        per.append(precision_at(rank_candidates(scores, view, L), split.probe, L))
        total += scores
    top = rank_candidates(total / cfg.realizations, view, L)
    if cfg.score_averaging == "matrix":
        return (), precision_at(top, split.probe, L), top
    return tuple(per), float(np.mean(per)), top


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

    def test_failed_realization_is_reported_not_fatal(self, shift_graph, monkeypatch):
        import pbspm.evaluation as evaluation
        from pbspm.errors import NumericalError

        real = evaluation.eigendecompose
        calls = {"count": 0}

        def flaky(view):
            calls["count"] += 1
            if calls["count"] == 2:
                raise NumericalError("synthetic solver failure")
            return real(view)

        monkeypatch.setattr(evaluation, "eigendecompose", flaky)
        cfg = ExperimentConfig(method="SPM", p_fresher=0.15, seed=1, realizations=3)
        report = run_experiment(shift_graph, cfg)
        assert len(report.failures) == 1
        assert "realization 1" in report.failures[0]
        assert len(report.per_realization) == 2

    def test_all_realizations_failing_raises(self, shift_graph, monkeypatch):
        import pbspm.evaluation as evaluation
        from pbspm.errors import NumericalError

        def broken(view):
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
        assert points[0].report.mean_precision == spm.mean_precision

    def test_grid_size(self, shift_graph):
        base = ExperimentConfig(method="PBSPM", p_fresher=0.15, seed=9, realizations=2)
        points = sweep(shift_graph, base, alphas=[0.0, 2.0, 4.0], p_freshers=[0.1, 0.15])
        assert len(points) == 6

    def test_points_match_run_experiment(self, shift_graph):
        base = ExperimentConfig(method="PBSPM", p_fresher=0.15, seed=5, realizations=3)
        points = sweep(shift_graph, base, alphas=[4.0], p_freshers=[0.15])
        direct = run_experiment(
            shift_graph,
            ExperimentConfig(method="PBSPM", alpha=4.0, p_fresher=0.15, seed=5,
                             realizations=3),
        )
        assert points[0].report.per_realization == direct.per_realization

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
        by_m = dict(results)
        assert by_m[shift_graph.n].mean_precision == full.mean_precision

    def test_m_out_of_range_rejected(self, shift_graph):
        base = ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.15, seed=42)
        with pytest.raises(ValueError):
            sweep_m(shift_graph, base, ms=[0])


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
        ]
        joint = [report for report, _ in _run_points(shift_graph, cfgs)]
        assert joint == [run_experiment(shift_graph, cfg) for cfg in cfgs]

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
            per, mean_precision, mean_top = engine_oracle(graph, cfg)
            assert report.per_realization == per, cfg
            assert report.mean_precision == mean_precision, cfg
            assert np.array_equal(top.pairs, mean_top.pairs), cfg
            if cfg.method in BASELINE_ORACLES:
                np.testing.assert_array_equal(top.scores, mean_top.scores)
                assert report.std_precision == 0.0, cfg
                assert report.mean_delta_lambda1 is report.mean_delta_cc is None, cfg
                assert report.resolved_m is None and report.failures == (), cfg
            else:
                np.testing.assert_allclose(top.scores, mean_top.scores, rtol=1e-12, atol=0)


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

    def test_bad_averaging(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method="SPM", score_averaging="median")
