"""The paper's claims as seeded tests, on planted drift and on a no-drift control.

Criteria 6, 8 and 10 of the acceptance suite need the real datasets. Their
surrogates run here on ``perfbench/gen.py``'s ``sweep-grid`` streams
(n=410): a block of nodes joins at 75% of the span, so the newest edges
concentrate on recently active nodes. In the control the block never joins
(``late_start=1.0``), so there is no drift for the popularity boost to
follow, and a strong boost must hurt. Each threshold sits below the smallest
gap measured on seeds 0-3.
"""

from dataclasses import replace

import pytest

from pbspm.evaluation import ExperimentConfig, _run_points
from pbspm.graph import parse_edge_stream, simplify

SEEDS = (0, 1, 2, 3)
ALPHAS = (0.0, 2.0, 5.0, 10.0)


def claim_reports(gen, tmp_path_factory, seed, drift):
    """PBSPM at every alpha, SPM, and FastPBSPM at alpha 5 with m = n // 10, from one engine run."""
    spec = gen.SPECS["sweep-grid"]
    if not drift:
        spec = replace(spec, late_start=1.0)
    path = tmp_path_factory.mktemp("claims") / f"stream-{seed}.tsv"
    gen.write_stream(path, gen.contacts(spec, seed))
    with open(path, "rb") as fh:
        graph = simplify(parse_edge_stream(fh))
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
