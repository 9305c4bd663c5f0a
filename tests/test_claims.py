"""The paper's claims as seeded tests, on planted drift and on a no-drift control.

Criteria 6, 8 and 10 of the acceptance suite need the real datasets. Their
surrogates run here on ``perfbench/gen.py``'s ``sweep-grid`` streams
(n=410): a block of nodes joins at 75% of the span, so the newest edges
concentrate on recently active nodes. In the control the block never joins
(``late_start=1.0``), so there is no drift for the popularity boost to
follow, and a strong boost must hurt. Each threshold sits below the smallest
gap measured on seeds 0-3.

The abstract's robustness claim is read as Lü et al. (*PNAS* 112:2325, 2015)
test SPM: the same streams with random spurious contacts added to training.
Two more stresses move the split point, and choose alpha on a validation
split of the training edges instead of on the probe. The abstract's second
task, identifying spurious edges, runs on the same noisy streams.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pbspm.baselines import cn_scores
from pbspm.evaluation import ExperimentConfig, _run_points
from pbspm.graph import TemporalGraph, adjacency, parse_edge_stream, simplify
from pbspm.spectral import (
    eigendecompose,
    eigenvalue_correction,
    pbspm_scores,
    sample_perturbation,
    spm_scores,
)
from pbspm.split import popularity, split_train_probe

SEEDS = (0, 1, 2, 3)
ALPHAS = (0.0, 2.0, 5.0, 10.0)


def stream_graph(gen, tmp_path_factory, seed, drift=True):
    """The ``sweep-grid`` stream of ``seed``, with its planted drift or without it."""
    spec = gen.SPECS["sweep-grid"]
    if not drift:
        spec = replace(spec, late_start=1.0)
    path = tmp_path_factory.mktemp("claims") / f"stream-{seed}.tsv"
    gen.write_stream(path, gen.contacts(spec, seed))
    with open(path, "rb") as fh:
        return simplify(parse_edge_stream(fh))


def lead_over_spm(graph, cfg):
    """PBSPM's precision at ``cfg`` minus SPM's, from one engine run."""
    pbspm, spm = _run_points(graph, [cfg, replace(cfg, method="SPM")])
    return pbspm[0].mean_precision - spm[0].mean_precision


def claim_reports(gen, tmp_path_factory, seed, drift):
    """PBSPM at every alpha, SPM, and FastPBSPM at alpha 5 with m = n // 10, from one engine run."""
    graph = stream_graph(gen, tmp_path_factory, seed, drift)
    base = ExperimentConfig(method="PBSPM", p_fresher=0.1, realizations=10, seed=0)
    cfgs = [replace(base, alpha=alpha) for alpha in ALPHAS]
    cfgs += [replace(base, method="SPM"),
             replace(base, method="FastPBSPM", alpha=5.0, m=graph.n // 10)]
    reports = [report for report, _ in _run_points(graph, cfgs)]
    return dict(zip(ALPHAS, reports)), reports[-2], reports[-1]


@pytest.mark.parametrize("seed", SEEDS)
def test_boost_follows_planted_drift(gen, tmp_path_factory, seed):
    pbspm, spm, fast = claim_reports(gen, tmp_path_factory, seed, drift=True)
    precision = {alpha: report.mean_precision for alpha, report in pbspm.items()}
    # Criterion 6: the boost beats plain SPM, and the fast variant tracks it.
    assert precision[5.0] - spm.mean_precision >= 0.05
    assert abs(fast.mean_precision - precision[5.0]) <= 0.03
    # Criterion 8: the perturbation raises lambda1, and the boost moves the
    # principal eigenvector toward the nodes that gain probe edges.
    assert pbspm[5.0].mean_delta_lambda1 > 0
    for alpha in ALPHAS[1:]:
        assert pbspm[alpha].mean_delta_cc > 0, alpha
    # Criterion 10: precision over alpha rises, then falls.
    assert precision[2.0] < precision[5.0] > precision[10.0]


@pytest.mark.parametrize("seed", SEEDS)
def test_boost_hurts_without_drift(gen, tmp_path_factory, seed):
    pbspm, _, _ = claim_reports(gen, tmp_path_factory, seed, drift=False)
    assert pbspm[0.0].mean_precision - pbspm[10.0].mean_precision >= 0.02
    assert pbspm[10.0].mean_delta_cc < 0


def spurious_graph(gen, tmp_path_factory, seed, q):
    """The ``sweep-grid`` stream of ``seed`` with q·|E| random contacts added,
    and which of its edges only an added contact made.

    |E| counts the stream's distinct edges. Every added contact comes before
    the first contact of the newest (1 + q)·10% + 2% of them, so the probe,
    the newest 10% of the noisy graph's edges, holds genuine edges only.
    """
    spec = gen.SPECS["sweep-grid"]
    rows = gen.contacts(spec, seed)
    low, high = rows[:, :2].min(axis=1), rows[:, :2].max(axis=1)
    _, first = np.unique(low * spec.n + high, return_index=True)
    stamps = np.sort(rows[first, 2])
    cut = stamps[-math.ceil(((1 + q) * 0.1 + 0.02) * stamps.size)]
    rng = np.random.default_rng([seed, round(100 * q)])
    k = round(q * stamps.size)
    u = rng.integers(spec.n, size=k)
    v = (u + rng.integers(1, spec.n, size=k)) % spec.n  # no self-loops
    t = rng.integers(rows[0, 2], cut, size=k)
    noisy = np.concatenate((rows, np.column_stack((u, v, t - t % spec.resolution_s))))
    path = tmp_path_factory.mktemp("spurious") / f"stream-{seed}-{q}.tsv"
    gen.write_stream(path, noisy)
    with open(path, "rb") as fh:
        graph = simplify(parse_edge_stream(fh))
    assert graph.edges[len(split_train_probe(graph, 0.1).train):, 2].min() >= cut
    ends = np.array(graph.labels, dtype=np.int64)[graph.edges[:, :2]]
    keys = ends.min(axis=1) * spec.n + ends.max(axis=1)
    return graph, ~np.isin(keys, low * spec.n + high)


def spurious_reports(gen, tmp_path_factory, seed, q):
    """PBSPM at alpha 5, SPM, CN, RA and Katz from one engine run, on
    ``spurious_graph``."""
    graph, _ = spurious_graph(gen, tmp_path_factory, seed, q)
    base = ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.1, realizations=10, seed=0)
    cfgs = [base] + [replace(base, method=method) for method in ("SPM", "CN", "RA", "Katz")]
    return [report.mean_precision for report, _ in _run_points(graph, cfgs)]


@pytest.mark.parametrize("q", (0.2, 0.4))
@pytest.mark.parametrize("seed", (0, 1))
def test_boost_survives_spurious_edges(gen, tmp_path_factory, seed, q):
    # Measured on seeds 0 and 1: PBSPM leads SPM by 0.093-0.118 at q = 0.2 and
    # by 0.065-0.091 at q = 0.4, and the best of CN, RA and Katz by 0.142 or more.
    pbspm, spm, *indices = spurious_reports(gen, tmp_path_factory, seed, q)
    assert pbspm - spm >= 0.05
    assert pbspm > max(indices)


@pytest.mark.parametrize("seed", (0, 1))
def test_truncated_spm_identifies_spurious_edges(gen, tmp_path_factory, seed):
    # Rank the training edges by score, lowest first: the share of added edges
    # among the lowest K, where K training edges are added, against chance,
    # K / |training|. Scores are summed over 10 perturbations. Measured on
    # seeds 0-3 at q = 0.2: chance 0.174-0.178, CN 0.567-0.591, SPM on its
    # 31 leading eigenpairs (7.5% of n) 0.603-0.614, PBSPM at alpha 5 on them
    # 0.541-0.565, and SPM on the full spectrum 0.243-0.276, whose score of
    # an observed edge is mostly the retained adjacency's 1 or 0.
    graph, added = spurious_graph(gen, tmp_path_factory, seed, 0.2)
    train = split_train_probe(graph, 0.1).train
    added = added[: len(train)]
    m = round(0.075 * graph.n)
    pop = popularity(train, graph.n, 0.1)
    sums = np.zeros((3, graph.n, graph.n))
    for r in range(10):
        sample = sample_perturbation(train, 0.1, r)
        model = eigendecompose(adjacency(sample.retained, graph.n))
        model = eigenvalue_correction(model, sample.removed)
        sums += spm_scores(model), spm_scores(model, m), pbspm_scores(model, pop, 5.0, m)
    scores = dict(zip(("SPM", "SPM m", "PBSPM m"), sums), CN=cn_scores(adjacency(train, graph.n)))
    k = int(added.sum())
    share = {name: added[np.argsort(s[train[:, 0], train[:, 1]], kind="stable")[:k]].mean()
             for name, s in scores.items()}
    chance = k / len(train)
    assert share["SPM m"] > share["CN"]
    assert share["PBSPM m"] < share["SPM m"]
    for name in ("CN", "SPM m", "PBSPM m"):
        assert share[name] - chance >= 0.3, name
    assert 0.03 <= share["SPM"] - chance <= 0.15


@pytest.mark.parametrize("probe_fraction", (0.05, 0.2))
@pytest.mark.parametrize("seed", (0, 1))
def test_boost_leads_at_other_split_points(gen, tmp_path_factory, seed, probe_fraction):
    # Measured on seeds 0 and 1: PBSPM at alpha 5 leads SPM by 0.069-0.098
    # with a 5% probe and by 0.106-0.145 with a 20% one. With a 30% probe it
    # trails by 0.033-0.039: training then ends at 66% of the span, before
    # the late block joins at 75%.
    base = ExperimentConfig(method="PBSPM", alpha=5.0, p_fresher=0.1, realizations=10,
                            seed=0, probe_fraction=probe_fraction)
    assert lead_over_spm(stream_graph(gen, tmp_path_factory, seed), base) >= 0.05


@pytest.mark.parametrize("seed", (0, 1))
def test_boost_leads_at_alpha_chosen_without_the_probe(gen, tmp_path_factory, seed):
    # The newest 10% of the training edges validate alpha. Measured on seeds
    # 0-3: validation picks alpha 5, the probe's best too, and it leads SPM
    # on the probe by 0.108-0.128.
    graph = stream_graph(gen, tmp_path_factory, seed)
    base = ExperimentConfig(method="PBSPM", p_fresher=0.1, realizations=10, seed=0)
    alphas = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0)
    prefix = TemporalGraph(graph.labels, split_train_probe(graph, 0.1).train)
    reports = _run_points(prefix, [replace(base, alpha=alpha) for alpha in alphas])
    alpha = alphas[int(np.argmax([report.mean_precision for report, _ in reports]))]
    assert lead_over_spm(graph, replace(base, alpha=alpha)) >= 0.05


@pytest.mark.parametrize("seed", (0, 1))
def test_fast_variant_tracks_pbspm_at_m_chosen_without_the_probe(gen, tmp_path_factory, seed):
    # The newest 10% of the training edges validate m, from fractions of n.
    # Measured on seeds 0 and 1: validation picks m = 31 (7.5% of n), and
    # FastPBSPM there is within 0.006-0.008 of PBSPM on the probe. Auto-m
    # gives m = 1 on both, where FastPBSPM scores 0.037 on seed 0 against
    # PBSPM's 0.309.
    graph = stream_graph(gen, tmp_path_factory, seed)
    base = ExperimentConfig(method="FastPBSPM", alpha=5.0, p_fresher=0.1, realizations=10,
                            seed=0)
    ms = [round(f * graph.n) for f in (0.005, 0.01, 0.02, 0.035, 0.05, 0.075, 0.1, 0.15, 0.25)]
    prefix = TemporalGraph(graph.labels, split_train_probe(graph, 0.1).train)
    reports = _run_points(prefix, [replace(base, m=m) for m in ms])
    m = ms[int(np.argmax([report.mean_precision for report, _ in reports]))]
    (fast, _), (pbspm, _) = _run_points(graph, [replace(base, m=m), replace(base, method="PBSPM")])
    assert abs(fast.mean_precision - pbspm.mean_precision) <= 0.03
