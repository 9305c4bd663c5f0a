"""Tests of the benchmark's own code: generator, output checks, tracer, metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import traced_cli  # noqa: E402

# Stated shape of each workload's input: n, distinct edges, distinct
# timestamps and the largest group of first contacts sharing one stamp.
SHAPES = {
    "predict-large": {"n": (1880, 1900), "edges": (19_000, 23_000), "largest_group": (1, 5)},
    "sweep-grid": {"n": (405, 410), "edges": (3_600, 4_600), "largest_group": (1, 10)},
    "ingest-coarse": {"n": (270, 274), "edges": (7_500, 10_000), "stamps": (42, 42),
                      "largest_group": (2_400, 3_400)},
}


@pytest.mark.parametrize("workload", sorted(gen.SPECS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    paths = [tmp_path / f"{i}.tsv" for i in range(3)]
    for path, seed in zip(paths, (5, 5, 6)):
        gen.write_stream(path, gen.contacts(gen.SPECS[workload], seed))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


@pytest.mark.parametrize("workload", sorted(gen.SPECS))
@pytest.mark.parametrize("seed", [0, 1, 2, 977])
def test_generated_shape_within_stated_ranges(workload, seed):
    shape = gen.stream_shape(gen.contacts(gen.SPECS[workload], seed))
    for key, (lo, hi) in SHAPES[workload].items():
        assert lo <= shape[key] <= hi, (key, shape)


def _toy_truth():
    # 20 edges with distinct stamps: the first 18 are training, the last 2 probe.
    rows = np.array([(i, i + 1, 10 * i) for i in range(20)], dtype=np.int64)
    return check.truth_of(rows)


def _write(path: Path, lines) -> Path:
    path.write_text("".join(f"{a}\t{b}\t{s!r}\n" for a, b, s in lines))
    return path


GOOD = [(0, 2, 3.0), (18, 20, 2.5), (5, 9, 2.5), (1, 7, 0.25)]


def test_predictions_check_accepts_a_valid_list(tmp_path):
    check.check_predictions(_write(tmp_path / "p.txt", GOOD), _toy_truth(), L=4)


@pytest.mark.parametrize(
    "lines, reason",
    [
        (GOOD[::-1], "score"),
        (GOOD + [(3, 4, 0.1)], "lines for L"),
        (GOOD[:2] + [(2, 0, 0.5)], "repeated pair"),
        ([(0, 1, 1.0)], "training edge"),
        ([(7, 7, 1.0)], "self pair"),
    ],
    ids=["reversed", "too-long", "duplicate", "training-edge", "self-pair"],
)
def test_predictions_check_rejects_corrupted_lists(tmp_path, lines, reason):
    with pytest.raises(check.CheckError, match=reason):
        check.check_predictions(_write(tmp_path / "p.txt", lines), _toy_truth(), L=4)


def test_boundary_pairs_are_training_under_any_tie_break():
    # Three edges share the stamp where training ends; one of them is training.
    rows = np.array([(i, i + 1, min(i, 17)) for i in range(20)], dtype=np.int64)
    truth = check.truth_of(rows)
    assert len(truth.boundary) == 3 and truth.boundary_train == 1


def test_reference_check_tolerates_near_ties_and_rejects_chance():
    truth = check.truth_of(gen.contacts(gen.SPECS["sweep-grid"], 0))
    reference = {"PBSPM": 0.30, "CN": 0.12}
    check.check_against_reference({"PBSPM": 0.295, "CN": 0.121}, reference, truth)
    chance = truth.random_precision
    for ranked_badly in (chance, 0.0):
        with pytest.raises(check.CheckError):
            check.check_against_reference({"PBSPM": ranked_badly, "CN": 0.12}, reference, truth)
    check.check_against_reference({"PBSPM": 0.30, "CN": 0.12}, None, truth)
    with pytest.raises(check.CheckError, match="chance"):
        check.check_against_reference({"PBSPM": chance, "CN": chance}, None, truth)


def test_truncation_gap_must_shrink_with_m():
    precisions = {"alpha=0,pf=0.1": 0.20, "m=1": 0.02, "m=41": 0.19}
    check.check_truncation_gap(precisions, "alpha=0,pf=0.1", (1, 41))
    precisions["m=41"] = 0.40
    with pytest.raises(check.CheckError):
        check.check_truncation_gap(precisions, "alpha=0,pf=0.1", (1, 41))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOADS]:
        assert pattern.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_attributes_self_time_and_counts():
    tracer = traced_cli.Tracer()
    inner = tracer.wrap("evaluation.rank", "inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("evaluation.self", "outer", lambda: inner() + inner())
    outer()
    assert tracer.calls["evaluation.rank"] == 2 and tracer.calls["evaluation.self"] == 1
    assert 0 < tracer.self_s["evaluation.self"]
    assert 0 < tracer.self_s["evaluation.rank"]


@pytest.fixture
def unwrap_after():
    yield
    for name, module in list(sys.modules.items()):
        if isinstance(module, types.ModuleType) and name.startswith("pbspm"):
            for attr, value in list(vars(module).items()):
                while callable(value) and hasattr(value, "__wrapped__"):
                    value = value.__wrapped__
                setattr(module, attr, value)


def test_tracer_reports_missing_names_as_absent(monkeypatch, unwrap_after):
    layers = dict(traced_cli.LAYERS)
    layers["spectral.eigendecompose"] = ("spectral", ("no_such_solver",))
    monkeypatch.setattr(traced_cli, "LAYERS", layers)
    tracer = traced_cli.Tracer()
    tracer.install()
    assert tracer.absent == ["spectral.no_such_solver"]
    metrics, absent = run.layer_metrics(tracer.stats())
    assert set(metrics) == set(run.PER_LAYER) - {"trace.overhead_s"}
    assert absent == ["spectral.eigendecompose_s", "spectral.eigendecompose_calls",
                      "spectral.eigenpairs_computed"]


def test_tracer_wraps_every_call_site(unwrap_after):
    tracer = traced_cli.Tracer()
    tracer.install()
    import pbspm.baselines
    import pbspm.cli
    import pbspm.evaluation
    import pbspm.spectral

    for module in (pbspm.spectral, pbspm.evaluation, pbspm.cli):
        assert hasattr(module.eigendecompose, "__wrapped__"), module.__name__
    assert hasattr(pbspm.cli.rank_candidates, "__wrapped__")
    assert hasattr(pbspm.baselines.max_eigenvalue, "__wrapped__")
