"""CLI behavior: files emitted, schema validity, determinism, exit codes."""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import pbspm
from pbspm.cli import _fmt6, build_parser, main
from pbspm.evaluation import METHODS, ExperimentConfig
from pbspm.graph import parse_edge_stream, simplify
from pbspm.split import split_train_probe

from conftest import popularity_shift_events, tsv_text

SCHEMA_PATH = Path(pbspm.__file__).parent / "schemas" / "report.schema.json"


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def common_args(dataset, out_dir, **overrides):
    args = {
        "--input": dataset,
        "--p-fresher": 0.15,
        "--alpha": 5.0,
        "--realizations": 2,
        "--seed": 42,
        "--out-dir": out_dir,
    }
    args.update(overrides)
    flat = []
    for key, value in args.items():
        flat.extend([key, value])
    return flat


class TestPredict:
    def test_single_baseline_row(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("predict", *common_args(shift_dataset, out), "--method", "CN")
        assert rc == 0
        with open(out / "report.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["method"] == "CN"
        assert 0.0 <= float(rows[0]["mean_precision"]) <= 1.0

    def test_three_methods_three_rows(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            "predict", *common_args(shift_dataset, out), "--method", "CN,SPM,PBSPM"
        )
        assert rc == 0
        with open(out / "report.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["CN", "SPM", "PBSPM"]

    def test_prediction_lists_written(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        run_cli("predict", *common_args(shift_dataset, out), "--method", "PBSPM")
        lines = (out / "predictions_PBSPM.txt").read_text(encoding="utf-8").splitlines()
        assert len(lines) >= 1
        first = lines[0].split("\t")
        assert len(first) == 3
        float(first[2])

    def test_json_validates_against_published_schema(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        run_cli(
            "predict", *common_args(shift_dataset, out), "--method", "PBSPM,FastPBSPM,AA"
        )
        schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        jsonschema.validate(payload, schema)
        fast = next(r for r in payload["reports"] if r["method"] == "FastPBSPM")
        assert fast["resolved_m"] >= 1

    def test_rerun_is_byte_identical(self, shift_dataset, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(
                "predict", *common_args(shift_dataset, out), "--method", "PBSPM,CN"
            )
            blob = b"".join(
                (out / f).read_bytes()
                for f in ("report.csv", "report.json", "predictions_PBSPM.txt",
                          "predictions_CN.txt")
            )
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests[0] == digests[1]

    def test_methods_are_case_insensitive(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("predict", *common_args(shift_dataset, out), "--method", "pbspm")
        assert rc == 0
        assert (out / "predictions_PBSPM.txt").exists()

    def test_csv_only_emission(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        run_cli("predict", *common_args(shift_dataset, out), "--method", "CN",
                "--emit", "csv")
        assert (out / "report.csv").exists()
        assert not (out / "report.json").exists()

    def test_m_column_is_the_truncation_used(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("predict", *common_args(shift_dataset, out),
                     "--method", "CN,SPM,PBSPM,FastPBSPM", "--m", 7)
        assert rc == 0
        with open(out / "report.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        # Only FastPBSPM truncates; the other methods ignore --m.
        assert {r["method"]: r["m"] for r in rows} == {
            "CN": "", "SPM": "", "PBSPM": "", "FastPBSPM": "7",
        }


class TestCountDroppedInL:
    def test_L_counts_the_dropped_probe_pairs_and_precision_uses_it(self, tmp_path):
        # 45 training edges on 12 nodes: pairs at index distance 1, 2 (from
        # nodes 0-8), 3 and 5. The 5 probe edges are 3 pairs at distance 6,
        # and 2 pairs that touch nodes unseen in training, which are dropped.
        pairs = [(i, (i + d) % 12) for d in (1, 3, 5) for i in range(12)]
        pairs += [(i, i + 2) for i in range(9)]
        pairs += [(0, 6), (1, 7), (2, 8), (3, "ghost1"), ("ghost2", "ghost3")]
        path = tmp_path / "dropped.tsv"
        text = "".join(f"n{a}\tn{b}\t{t}\n" for t, (a, b) in enumerate(pairs, 1))
        path.write_text(text, encoding="utf-8")
        with open(path, "rb") as fh:
            graph = simplify(parse_edge_stream(fh))
        split = split_train_probe(graph, 0.1)
        assert (len(split.probe), split.probe_dropped, split.probe_total) == (3, 2, 5)
        probe = {frozenset((graph.labels[u], graph.labels[v])) for u, v in split.probe}
        for flag, L in (((), len(split.probe)), (("--count-dropped-in-L",), split.probe_total)):
            out = tmp_path / f"out-{L}"
            rc = run_cli("predict", "--input", path, "--method", "CN,SPM",
                         "--score-averaging", "matrix", "--out-dir", out, *flag)
            assert rc == 0
            for report in json.loads((out / "report.json").read_text(encoding="utf-8"))["reports"]:
                assert report["L"] == L
                ranked = out / f"predictions_{report['method']}.txt"
                lines = ranked.read_text(encoding="utf-8").splitlines()
                assert len(lines) == L
                hits = sum(frozenset(line.split("\t")[:2]) in probe for line in lines)
                assert report["mean_precision"] == hits / L


class TestSweep:
    def test_alpha_grid_row_count(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            "sweep", *common_args(shift_dataset, out),
            "--alpha-grid", "0,1,2,3,4,5,6,7,8,9,10",
        )
        assert rc == 0
        path = out / "sweep_alpha_pf0.15.csv"
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert list(rows[0].keys()) == ["alpha", "mean_precision", "std_precision"]

    def test_m_sweep_endpoint_matches_full_method(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        graph_n = 80
        rc = run_cli(
            "sweep", *common_args(shift_dataset, out),
            "--m-grid", f"1,10,{graph_n}",
        )
        assert rc == 0
        with open(out / "sweep_m.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["m_over_n", "mean_precision"]
        assert float(rows[-1]["m_over_n"]) == 1.0

        out2 = tmp_path / "full"
        run_cli("predict", *common_args(shift_dataset, out2), "--method", "PBSPM")
        with open(out2 / "report.csv", encoding="utf-8") as fh:
            full = list(csv.DictReader(fh))[0]
        assert float(rows[-1]["mean_precision"]) == pytest.approx(
            float(full["mean_precision"]), abs=1e-6
        )

    def test_requires_some_grid(self, shift_dataset, tmp_path):
        rc = run_cli("sweep", *common_args(shift_dataset, tmp_path / "out"))
        assert rc == 1

    def test_more_than_one_method_rejected(self, shift_dataset, tmp_path, eigh_calls):
        out = tmp_path / "out"
        rc = run_cli("sweep", *common_args(shift_dataset, out), "--method", "PBSPM,CN",
                     "--alpha-grid", "0,1")
        assert rc == 1
        assert eigh_calls["count"] == 0
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.1,0.10000001", "0.1,0.1"])
    def test_p_fresher_values_sharing_a_file_name_rejected(
        self, shift_dataset, tmp_path, eigh_calls, grid
    ):
        out = tmp_path / "out"
        rc = run_cli("sweep", *common_args(shift_dataset, out), "--alpha-grid", "0,1",
                     "--p-fresher-grid", grid)
        assert rc == 1
        assert eigh_calls["count"] == 0
        assert not out.exists()


class TestSpectrum:
    def test_columns_and_selected_m(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("spectrum", "--input", shift_dataset, "--out-dir", out)
        assert rc == 0
        with open(out / "spectrum.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["i", "lambda_i", "abs_lambda_i", "gap_i"]
        assert len(rows) == 80
        assert rows[-1]["gap_i"] == ""
        meta = json.loads((out / "spectrum.json").read_text(encoding="utf-8"))
        assert meta["selected_m"] >= 1
        assert len(meta["eigenvalues"]) == 80

    def test_failing_spectrum_leaves_no_directory(self, tmp_path):
        tiny = tmp_path / "tiny.tsv"
        tiny.write_text("1 2 3\n2 3 4\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = run_cli("spectrum", "--input", tiny, "--out-dir", out)
        assert rc == 2
        assert not out.exists()

    def test_gap_matches_eigenvalue_columns(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        run_cli("spectrum", "--input", shift_dataset, "--out-dir", out)
        meta = json.loads((out / "spectrum.json").read_text(encoding="utf-8"))
        lam = meta["eigenvalues"]
        for i, gap in enumerate(meta["gaps"]):
            assert gap == pytest.approx(abs(lam[i]) - abs(lam[i + 1]), abs=1e-12)


class TestDiagnose:
    def test_alpha_zero_zeroes_delta_cc(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            "diagnose", *common_args(shift_dataset, out, **{"--alpha": 0.0}),
            "--method", "PBSPM",
        )
        assert rc == 0
        with open(out / "diagnostics.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == [
            "dataset", "mean_delta_lambda1", "delta_cc", "realizations",
        ]
        assert float(rows[0]["delta_cc"]) == 0.0
        assert rows[0]["dataset"] == "shiftnet"

    def test_requires_single_spectral_method(self, shift_dataset, tmp_path):
        rc = run_cli(
            "diagnose", *common_args(shift_dataset, tmp_path / "out"),
            "--method", "CN",
        )
        assert rc == 1


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestCsvMatchesJson:
    """Every CSV cell is ``_fmt6`` of the JSON value it reports."""

    def test_report(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("predict", *common_args(shift_dataset, out), "--method", ",".join(METHODS))
        assert rc == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        rows = read_csv(out / "report.csv")
        assert len(rows) == len(payload["reports"]) == len(METHODS)
        for row, report in zip(rows, payload["reports"]):
            expected = {**report["config"], **report, "dataset": payload["dataset"],
                        "m": report["resolved_m"]}
            assert row == {column: _fmt6(expected[column]) for column in row}
        assert rows[-1]["method"] == "FastPBSPM" and rows[-1]["m"] != ""

    def test_sweep(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("sweep", *common_args(shift_dataset, out), "--alpha-grid", "0,2.5,5",
                     "--p-fresher-grid", "0.05,0.2", "--m-grid", "1,7,80")
        assert rc == 0
        payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        assert len(payload["alpha_sweep"]) == 6
        for name in ("0.05", "0.2"):
            points = [p for p in payload["alpha_sweep"] if f"{p['p_fresher']:g}" == name]
            rows = read_csv(out / f"sweep_alpha_pf{name}.csv")
            assert rows == [{c: _fmt6(p[c]) for c in rows[0]} for p in points]
        rows = read_csv(out / "sweep_m.csv")
        assert [p["m"] for p in payload["m_sweep"]] == [1, 7, 80]
        assert rows == [{c: _fmt6(p[c]) for c in rows[0]} for p in payload["m_sweep"]]

    def test_spectrum(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        assert run_cli("spectrum", "--input", shift_dataset, "--out-dir", out) == 0
        payload = json.loads((out / "spectrum.json").read_text(encoding="utf-8"))
        lam, gaps = payload["eigenvalues"], payload["gaps"] + [None]
        expected = [
            {"i": _fmt6(i + 1), "lambda_i": _fmt6(value), "abs_lambda_i": _fmt6(abs(value)),
             "gap_i": _fmt6(gaps[i])}
            for i, value in enumerate(lam)
        ]
        assert read_csv(out / "spectrum.csv") == expected

    def test_diagnostics(self, shift_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("diagnose", *common_args(shift_dataset, out), "--method", "PBSPM")
        assert rc == 0
        payload = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        (row,) = read_csv(out / "diagnostics.csv")
        assert row == {column: _fmt6(payload[column]) for column in row}
        assert payload["method"] == "PBSPM" and payload["config"]["alpha"] == 5.0


def relabel(lines):
    """Each node label to a distinct new one, not in the old label order."""
    labels = sorted({label for line in lines for label in line[:2]})
    perm = np.random.default_rng(3).permutation(len(labels))
    new = {label: f"v{perm[i]}x" for i, label in enumerate(labels)}
    return [(new[a], new[b], t) for a, b, t in lines], {v: k for k, v in new.items()}


def stretch_time(lines):
    """Every timestamp t to 3t + 7."""
    return [(a, b, str(3 * int(t) + 7)) for a, b, t in lines], {}


def append_duplicates_and_loops(lines):
    """Later repeats of every fifth contact, reversed, and later self-loops."""
    last = max(int(t) for _, _, t in lines)
    repeats = [(b, a, str(int(t) + 50)) for a, b, t in lines[::5]]
    loops = [(a, a, str(last + k)) for k, (a, _, _) in enumerate(lines[::9], start=1)]
    return lines + repeats + loops, {}


class TestMetamorphic:
    """Transforms of the input that keep the simplified graph, up to labels.

    ``predict`` must write the same ``report.json``, apart from the input's
    name, and the same prediction lists once the labels are mapped back.
    """

    @pytest.mark.parametrize("transform", [relabel, stretch_time, append_duplicates_and_loops])
    def test_predict_output_is_invariant(self, shift_dataset, tmp_path, transform):
        header, *body = shift_dataset.read_text(encoding="utf-8").splitlines()
        lines, back = transform([tuple(line.split("\t")) for line in body])
        moved = tmp_path / "moved.tsv"
        text = header + "\n" + "".join("\t".join(line) + "\n" for line in lines)
        moved.write_text(text, encoding="utf-8")

        outputs = []
        for name, dataset in (("base", shift_dataset), ("moved", moved)):
            out = tmp_path / name
            rc = run_cli("predict", *common_args(dataset, out), "--method", ",".join(METHODS))
            assert rc == 0
            payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
            assert payload.pop("input") == str(dataset)
            assert payload.pop("dataset") == dataset.stem
            outputs.append((out, payload))
        (base, expected), (out, payload) = outputs
        assert payload == expected

        for method in METHODS:
            rows = [line.split("\t") for line in
                    (out / f"predictions_{method}.txt").read_text(encoding="utf-8").splitlines()]
            mapped = "".join(f"{back.get(a, a)}\t{back.get(b, b)}\t{s}\n" for a, b, s in rows)
            ranked = (base / f"predictions_{method}.txt").read_text(encoding="utf-8")
            assert mapped == ranked, method


class TestFetch:
    def test_fetch_with_matching_checksum(self, tmp_path):
        src = tmp_path / "remote.tsv"
        src.write_bytes(b"1 2 3\n4 5 6\n")
        digest = hashlib.sha256(src.read_bytes()).hexdigest()
        dest = tmp_path / "data" / "local.tsv"
        rc = run_cli("fetch", "--url", src.as_uri(), "--sha256", digest,
                     "--dest", dest)
        assert rc == 0
        assert dest.read_bytes() == src.read_bytes()

    def test_fetch_checksum_mismatch_is_data_error(self, tmp_path):
        src = tmp_path / "remote.tsv"
        src.write_bytes(b"1 2 3\n")
        dest = tmp_path / "local.tsv"
        rc = run_cli("fetch", "--url", src.as_uri(), "--sha256", "0" * 64,
                     "--dest", dest)
        assert rc == 2
        assert not dest.exists()


class TestExitCodes:
    def test_missing_input_is_data_error(self, tmp_path):
        rc = run_cli("predict", "--input", tmp_path / "nope.tsv", "--method", "CN",
                     "--out-dir", tmp_path / "out")
        assert rc == 2

    def test_unknown_method_is_usage_error(self, shift_dataset, tmp_path):
        rc = run_cli("predict", *common_args(shift_dataset, tmp_path / "out"),
                     "--method", "PageRank")
        assert rc == 1

    def test_empty_method_list_is_usage_error(self, shift_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli("predict", *common_args(shift_dataset, out), "--method", ",")
        assert rc == 1
        assert "at least one method is required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "sweep", "spectrum", "diagnose"])
    @pytest.mark.parametrize("emit, message", [
        ("", "names no format"),
        (" , ", "names no format"),
        ("csv,xml", "unknown emit format 'xml'"),
    ], ids=["empty", "commas", "unknown"])
    def test_emit_without_format_fails_before_loading_input(
        self, tmp_path, capsys, command, emit, message
    ):
        # The input does not exist: reading it first would be a data error (2).
        rc = run_cli(command, "--input", tmp_path / "missing.tsv", "--out-dir", tmp_path / "out",
                     "--emit", emit)
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method, flag, value, field", [
        ("SPM", "--seed", "-1", "seed"),
        ("CN", "--seed", "-1", "seed"),
        ("CN", "--p-h", "1.5", "p_h"),
        ("CN", "--alpha", "-1", "alpha"),
        ("SRW", "--srw-steps", "0", "srw_steps must"),
        ("Katz", "--katz-damping", "-1", "katz_damping must"),
        ("Katz", "--katz-max-path-length", "0", "katz_max_path_length must"),
        ("SPM", "--p-h", "1.5", "p_h"),
        ("FastPBSPM", "--m", "0", "m must be >= 1"),
        ("FastPBSPM", "--m-threshold", "-1", "m_threshold"),
        ("SPM", "--probe-fraction", "1.5", "probe_fraction"),
    ])
    def test_bad_config_value_fails_before_loading_input(
        self, tmp_path, capsys, method, flag, value, field
    ):
        # The input does not exist: reading it first would be a data error (2).
        rc = run_cli("predict", "--input", tmp_path / "missing.tsv",
                     "--out-dir", tmp_path / "out", "--method", method, flag, value)
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method, grid, field", [
        ("PBSPM", ("--m-grid", "0,2"), "m must be >= 1"),
        ("PBSPM", ("--alpha-grid", "1", "--p-fresher-grid", "1.5"), "p_fresher"),
        ("PBSPM", ("--alpha-grid=-1,2",), "alpha"),
        ("CN", ("--alpha-grid", "1"), "popularity-boosted method"),
    ], ids=["m-grid-0", "p-fresher-grid-1.5", "alpha-grid-negative", "alpha-grid-CN"])
    def test_bad_sweep_grid_fails_before_loading_input(
        self, tmp_path, capsys, method, grid, field
    ):
        # The input does not exist: reading it first would be a data error (2).
        rc = run_cli("sweep", "--input", tmp_path / "missing.tsv",
                     "--out-dir", tmp_path / "out", "--method", method, *grid)
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fast_m_above_n_is_usage_error(self, shift_dataset, tmp_path, capsys):
        with open(shift_dataset, "rb") as fh:
            n = simplify(parse_edge_stream(fh)).n
        rc = run_cli("predict", *common_args(shift_dataset, tmp_path / "out"),
                     "--method", "FastPBSPM", "--m", n + 1)
        assert rc == 1
        assert f"m must be in [1, {n}], got {n + 1}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_dir_naming_a_file_is_io_error(self, shift_dataset, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_bytes(b"")
        rc = run_cli("predict", *common_args(shift_dataset, taken), "--method", "CN")
        assert rc == 2
        assert "pbspm: i/o error:" in capsys.readouterr().err
        assert taken.read_bytes() == b""

    def test_bad_flag_is_usage_error(self, shift_dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("predict", "--not-a-flag", "x")
        assert exc.value.code == 1

    def test_divergent_katz_is_numerical_error(self, shift_dataset, tmp_path):
        rc = run_cli("predict", *common_args(shift_dataset, tmp_path / "out"),
                     "--method", "Katz", "--katz-damping", 10.0)
        assert rc == 3

    def test_malformed_input_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("1 2\n", encoding="utf-8")
        rc = run_cli("predict", "--input", bad, "--method", "CN",
                     "--out-dir", tmp_path / "out")
        assert rc == 2

    def test_non_utf8_input_is_data_error_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"1 2 3\n2 3 4\n3 \xff 5\n")
        rc = run_cli("predict", "--input", bad, "--method", "CN",
                     "--out-dir", tmp_path / "out")
        assert rc == 2
        assert "data error: line 3:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["predict", "spectrum"])
    def test_csv_field_over_size_limit_is_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n2,3,4\n" + "x" * 200_000 + ",3,5\n", encoding="utf-8")
        rc = run_cli(command, "--input", bad, "--format", "csv",
                     "--out-dir", tmp_path / "out")
        assert rc == 2
        assert "data error: line 3: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, line_no", [
        ("1\t2\t99999999999999999999\n", 1),
        ("1\t2\t5\n1\t2\t99999999999999999999\n", 2),
        ("1\t2\t5\n2\t3\t1e20\n", 2),
    ], ids=["new-pair", "seen-pair", "float"])
    def test_timestamp_outside_int64_is_data_error(self, tmp_path, capsys, text, line_no):
        bad = tmp_path / "bad.tsv"
        bad.write_text(text, encoding="utf-8")
        rc = run_cli("predict", "--input", bad, "--method", "CN",
                     "--out-dir", tmp_path / "out")
        assert rc == 2
        assert f"data error: line {line_no}: timestamp" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# Every flag each subcommand declares: only those it reads.
IO_FLAGS = {"--input", "--format", "--out-dir", "--emit", "--probe-fraction"}
RUN_FLAGS = IO_FLAGS | {"--method", "--alpha", "--p-fresher", "--p-h", "--realizations", "--seed"}
COMMAND_FLAGS = {
    "predict": RUN_FLAGS | {"--m", "--L", "--count-dropped-in-L", "--m-threshold",
                            "--score-averaging", "--katz-damping", "--katz-max-path-length",
                            "--srw-steps"},
    "sweep": RUN_FLAGS | {"--m", "--L", "--count-dropped-in-L", "--m-threshold",
                          "--alpha-grid", "--p-fresher-grid", "--m-grid"},
    "spectrum": IO_FLAGS | {"--m-threshold"},
    "diagnose": RUN_FLAGS,
    "fetch": {"--url", "--sha256", "--dest"},
}


def subcommand_parsers():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


class TestFlags:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        declared = {
            name: {flag for action in sub._actions for flag in action.option_strings}
            - {"-h", "--help"}
            for name, sub in subcommand_parsers().items()
        }
        assert declared == COMMAND_FLAGS
        assert sum(len(flags) for flags in declared.values()) == 57

    def test_experiment_flags_have_no_default_of_their_own(self):
        config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"methods"}
        for sub in subcommand_parsers().values():
            for action in sub._actions:
                if action.dest in config_fields:
                    assert action.default is argparse.SUPPRESS, action.option_strings

    @pytest.mark.parametrize("args", [
        ("spectrum", "--seed", "1"),
        ("spectrum", "--alpha", "5"),
        ("sweep", "--alpha-grid", "0,1", "--score-averaging", "matrix"),
        ("sweep", "--alpha-grid", "0,1", "--katz-damping", "0.1"),
        ("spectrum", "--m", "5"),
        ("diagnose", "--m", "3"),
        ("diagnose", "--L", "10"),
    ])
    def test_removed_flag_is_usage_error(self, shift_dataset, tmp_path, args):
        command, *rest = args
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--input", shift_dataset, "--out-dir", tmp_path / "out", *rest)
        assert exc.value.code == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_flag_prints_the_subcommand_usage(self, shift_dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("spectrum", "--input", shift_dataset, "--out-dir", tmp_path / "out",
                    "--seed", "7")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: pbspm spectrum ")
        assert "--m-threshold" in err and "{predict," not in err
        assert "pbspm spectrum: error: unrecognized arguments: --seed 7" in err
        assert not (tmp_path / "out").exists()

    def test_bare_predict_uses_experiment_config_defaults(
        self, shift_dataset, tmp_path, monkeypatch
    ):
        import pbspm.cli as cli

        seen = []

        def recording(graph, cfgs, **kwargs):
            seen.extend(cfgs)
            return []

        monkeypatch.setattr(cli, "_run_points", recording)
        assert run_cli("predict", "--input", shift_dataset, "--out-dir", tmp_path / "out") == 0
        assert seen == [ExperimentConfig(method="PBSPM")]


class TestModuleEntryPoint:
    def test_module_runner_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pbspm.cli", "--help"],
            capture_output=True, encoding="utf-8",
        )
        assert proc.returncode == 0
        assert "predict" in proc.stdout

    def test_import_leaves_fetch_and_scipy_modules_unloaded(self):
        # Every command pays for what `import pbspm.cli` loads.
        code = "import sys, pbspm.cli; print(sorted({'urllib.request', 'scipy'} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, encoding="utf-8"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_outputs_are_utf8_in_an_ascii_locale(self, tmp_path):
        # The C locale's default encoding is ASCII, and its file system encoding
        # escapes the name's other bytes; labels and the name come out as UTF-8,
        # with no lone-surrogate escape in any file.
        dataset = tmp_path / "réseau.tsv"
        rows = [(f"ü{a}", f"ü{b}", t) for a, b, t in popularity_shift_events()]
        dataset.write_bytes(tsv_text(rows).encode())
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(pbspm.__file__).parents[1]))
        commands = {
            "predict": ("--method", "CN,PBSPM", "--realizations", "2"),
            "sweep": ("--alpha-grid", "0,5", "--realizations", "2"),
            "spectrum": (),
            "diagnose": ("--method", "PBSPM", "--realizations", "2"),
        }
        outputs = {}
        for command, args in commands.items():
            proc = subprocess.run(
                [sys.executable, "-m", "pbspm.cli", command, *args, "--input", dataset.name,
                 "--out-dir", command], cwd=tmp_path, env=env, capture_output=True,
            )
            assert proc.returncode == 0, (command, proc.stderr)
            for path in (tmp_path / command).iterdir():
                outputs[f"{command}/{path.name}"] = path.read_bytes().decode("utf-8")
        assert len(outputs) == 10, sorted(outputs)
        assert outputs["predict/report.csv"].splitlines()[1].startswith("réseau,CN,")
        assert outputs["diagnose/diagnostics.csv"].splitlines()[1].startswith("réseau,")
        assert outputs["predict/predictions_CN.txt"].startswith("ü")
        assert [name for name, text in outputs.items() if "\\udc" in text] == []
        jsons = {name: json.loads(text) for name, text in outputs.items() if name.endswith(".json")}
        assert {name: p["dataset"] for name, p in jsons.items()} == dict.fromkeys(jsons, "réseau")
        assert {name: p["input"] for name, p in jsons.items() if "input" in p} == {
            "predict/report.json": "réseau.tsv", "sweep/sweep.json": "réseau.tsv"}


class TestBlasThreadCount:
    """``predict`` at one and at two BLAS threads, each in a fresh process.

    Precisions, resolved m and the top-L pairs must be equal; every other
    float (delta-lambda1, delta-CC, prediction scores) within 1e-12 relative.
    The input is the ``sweep-grid`` seed-0 stream (n=410), large enough that
    the two thread counts give different bits; at n=80 they give none.
    """

    FLOAT_REL = 1e-12

    def run_at(self, threads, dataset, out):
        env = dict(os.environ, PYTHONPATH=str(Path(pbspm.__file__).parents[1]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-m", "pbspm.cli", "predict", *map(str, common_args(dataset, out)),
             "--method", ",".join(METHODS)],
            env=env, capture_output=True, encoding="utf-8",
        )
        assert proc.returncode == 0, proc.stderr
        return out

    def test_one_and_two_threads_agree(self, sweep_grid_dataset, tmp_path):
        one, two = (self.run_at(t, sweep_grid_dataset, tmp_path / f"t{t}") for t in (1, 2))
        reports = [json.loads((out / "report.json").read_text(encoding="utf-8"))["reports"]
                   for out in (one, two)]
        assert [r["method"] for r in reports[0]] == list(METHODS)
        for a, b in zip(*reports):
            for key in ("per_realization", "mean_precision", "std_precision", "resolved_m",
                        "L", "failures"):
                assert a[key] == b[key], (a["method"], key)
            for key in ("mean_delta_lambda1", "mean_delta_cc"):
                if a[key] is None:
                    assert b[key] is None, (a["method"], key)
                else:
                    assert b[key] == pytest.approx(a[key], rel=self.FLOAT_REL, abs=1e-15)
        for method in METHODS:
            texts = [(out / f"predictions_{method}.txt").read_text(encoding="utf-8")
                     for out in (one, two)]
            rows = [[line.split("\t") for line in text.splitlines()] for text in texts]
            assert [r[:2] for r in rows[0]] == [r[:2] for r in rows[1]], method
            scores = [np.array([float(r[2]) for r in rs]) for rs in rows]
            np.testing.assert_allclose(scores[1], scores[0], rtol=self.FLOAT_REL, atol=0)


@pytest.fixture()
def eigh_calls(monkeypatch):
    """Count the eigendecompositions the experiment engine runs."""
    import pbspm.evaluation as evaluation

    calls = {"count": 0}
    real = evaluation.eigendecompose

    def counting(view, **kwargs):
        calls["count"] += 1
        return real(view, **kwargs)

    monkeypatch.setattr(evaluation, "eigendecompose", counting)
    return calls


class TestOnePass:
    @pytest.mark.parametrize("realizations", [1, 3])
    def test_predict_decomposes_each_realization_once(
        self, shift_dataset, tmp_path, eigh_calls, realizations
    ):
        rc = run_cli(
            "predict", *common_args(shift_dataset, tmp_path / "out",
                                    **{"--realizations": realizations}),
            "--method", "PBSPM,SPM,FastPBSPM",
        )
        assert rc == 0
        # One per realization; FastPBSPM's m is picked from eigenvalues alone.
        assert eigh_calls["count"] == realizations

    def test_sweep_grids_share_one_decomposition_per_realization(
        self, shift_dataset, tmp_path, eigh_calls
    ):
        rc = run_cli(
            "sweep", *common_args(shift_dataset, tmp_path / "out", **{"--realizations": 3}),
            "--alpha-grid", "0,5", "--p-fresher-grid", "0.1,0.2", "--m-grid", "1,10,80",
        )
        assert rc == 0
        assert eigh_calls["count"] == 3

    def test_baselines_are_ranked_once(self, shift_dataset, tmp_path, monkeypatch):
        import pbspm.evaluation as evaluation

        scored = []

        def counting(name):
            real = getattr(evaluation, name)

            def score(*args, **kwargs):
                scored.append(name)
                return real(*args, **kwargs)
            return score

        for name in ("cn_scores", "aa_scores", "ra_scores", "katz_scores", "srw_scores"):
            monkeypatch.setattr(evaluation, name, counting(name))
        rc = run_cli("predict", *common_args(shift_dataset, tmp_path / "out"),
                     "--method", "CN,Katz,SPM")
        assert rc == 0
        assert scored == ["cn_scores", "katz_scores"]

    @pytest.mark.parametrize("methods, spectra", [
        (("--method", "Katz,FastPBSPM"), 1),
        (("--method", "Katz"), 1),
        (("--method", "FastPBSPM"), 1),
        (("--method", "CN,FastPBSPM", "--m", "2"), 0),
    ])
    def test_one_training_spectrum_serves_katz_and_auto_m(
        self, shift_dataset, tmp_path, monkeypatch, methods, spectra
    ):
        import pbspm.baselines as baselines
        import pbspm.evaluation as evaluation

        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def spectrum(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return spectrum

        monkeypatch.setattr(evaluation, "eigenvalues", counting(evaluation, "eigenvalues"))
        monkeypatch.setattr(baselines, "max_eigenvalue", counting(baselines, "max_eigenvalue"))
        rc = run_cli("predict", *common_args(shift_dataset, tmp_path / "out"), *methods)
        assert rc == 0
        assert calls == ["eigenvalues"] * spectra

    @pytest.mark.parametrize("args", [
        ("sweep", "--alpha-grid", "0,5", "--p-fresher-grid", "0.1,0.2", "--m-grid", "1,0"),
        ("predict", "--method", "PBSPM", "--alpha", "-1"),
        ("predict", "--method", "PBSPM", "--alpha", "nan"),
        ("predict", "--method", "PBSPM", "--alpha", "inf"),
        ("predict", "--method", "CN", "--p-h", "nan"),
        ("predict", "--method", "Katz", "--katz-damping", "nan"),
        ("predict", "--method", "FastPBSPM", "--m-threshold", "nan"),
        ("sweep", "--alpha-grid", "0,nan"),
        ("sweep", "--m-grid", "1,5", "--p-fresher-grid", "0.1,0.2"),
        ("predict", "--emit", ""),
        ("predict", "--L", "1000000000"),
    ])
    def test_bad_values_rejected_before_decomposing_or_writing(
        self, shift_dataset, tmp_path, eigh_calls, args
    ):
        out = tmp_path / "out"
        command, *rest = args
        rc = run_cli(command, *common_args(shift_dataset, out, **{"--realizations": 3}), *rest)
        assert rc == 1
        assert eigh_calls["count"] == 0
        assert not out.exists() or not any(out.iterdir())
