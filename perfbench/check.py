"""Output checks for one CLI invocation.

Every check raises ``CheckError`` with a reason; the caller counts a raised
check as a failed invocation. The checks know the generated contact stream,
so they need nothing from the package beyond its JSON schema.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

PROBE_FRACTION = 0.10  # the CLI default, which every workload keeps
REFERENCE_SHARE = 0.25
FLOOR_SIGMAS = 4.0


class CheckError(Exception):
    """An output file is missing, malformed or wrong."""


@dataclass(frozen=True)
class Truth:
    """What the generated stream fixes about any correct run on it.

    ``train`` holds the pairs that are training edges under every tie-break
    of equal timestamps; ``boundary`` holds the pairs first seen at the
    timestamp where training ends, ``boundary_train`` of which are training.
    """

    n: int
    edges: int
    train: frozenset
    boundary: frozenset
    boundary_train: int

    @property
    def probe_estimate(self) -> int:
        return self.edges - round((1.0 - PROBE_FRACTION) * self.edges)

    @property
    def random_precision(self) -> float:
        """Expected precision of a ranking that ignores the graph."""
        n_train = self.edges - self.probe_estimate
        return self.probe_estimate / (self.n * (self.n - 1) // 2 - n_train)


def truth_of(rows: np.ndarray) -> Truth:
    """Truth for a time-sorted ``(u, v, t)`` contact array."""
    lo = np.minimum(rows[:, 0], rows[:, 1])
    hi = np.maximum(rows[:, 0], rows[:, 1])
    keys = lo * (int(hi.max()) + 1) + hi
    _, first = np.unique(keys, return_index=True)
    first = np.sort(first)
    pairs = list(zip(lo[first].tolist(), hi[first].tolist()))
    stamps = rows[first, 2]
    n_train = round((1.0 - PROBE_FRACTION) * first.size)
    t_end = stamps[n_train]
    before = int(np.count_nonzero(stamps < t_end))
    return Truth(
        n=int(np.unique(rows[:, :2]).size),
        edges=int(first.size),
        train=frozenset(p for p, t in zip(pairs, stamps) if t < t_end),
        boundary=frozenset(p for p, t in zip(pairs, stamps) if t == t_end),
        boundary_train=n_train - before,
    )


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckError(reason)


def check_predictions(path: Path, truth: Truth, L: int) -> None:
    """At most L distinct non-training pairs, scores non-increasing."""
    _require(path.is_file(), f"{path.name} missing")
    lines = path.read_text().splitlines()
    _require(1 <= len(lines) <= L, f"{path.name}: {len(lines)} lines for L={L}")
    seen = set()
    on_boundary = 0
    previous = math.inf
    for number, line in enumerate(lines, start=1):
        fields = line.split("\t")
        _require(len(fields) == 3, f"{path.name}:{number}: expected 3 fields")
        try:
            a, b, score = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise CheckError(f"{path.name}:{number}: unparsable line") from None
        pair = (min(a, b), max(a, b))
        _require(a != b, f"{path.name}:{number}: self pair {pair}")
        _require(pair not in seen, f"{path.name}:{number}: repeated pair {pair}")
        _require(pair not in truth.train, f"{path.name}:{number}: {pair} is a training edge")
        _require(math.isfinite(score) and score <= previous,
                 f"{path.name}:{number}: score {score} after {previous}")
        seen.add(pair)
        on_boundary += pair in truth.boundary
        previous = score
    _require(on_boundary <= len(truth.boundary) - truth.boundary_train,
             f"{path.name}: predicts {on_boundary} pairs that are training edges")


def check_report(out_dir: Path, schema_path: Path, methods, truth: Truth) -> dict:
    """Validate report.json and every predictions file; return precisions."""
    report = json.loads((out_dir / "report.json").read_text())
    try:
        jsonschema.validate(report, json.loads(schema_path.read_text()))
    except jsonschema.ValidationError as err:
        raise CheckError(f"report.json: {err.message}") from None
    got = [r["method"] for r in report["reports"]]
    _require(got == list(methods), f"report.json lists {got}, expected {list(methods)}")
    for r in report["reports"]:
        check_predictions(out_dir / f"predictions_{r['method']}.txt", truth, r["L"])
    return {r["method"]: r["mean_precision"] for r in report["reports"]}


def _csv_rows(path: Path, header: list) -> list:
    _require(path.is_file(), f"{path.name} missing")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == header, f"{path.name}: header {rows[:1]}")
    return [[float(cell) for cell in row] for row in rows[1:]]


def _unit(value: float, where: str) -> None:
    _require(0.0 <= value <= 1.0, f"{where}: precision {value} outside [0, 1]")


def check_sweep(out_dir: Path, alphas, p_freshers, ms, truth: Truth) -> dict:
    """One row per grid point in every CSV and in sweep.json; return precisions."""
    precisions = {}
    for pf in p_freshers:
        name = f"sweep_alpha_pf{pf:g}.csv"
        rows = _csv_rows(out_dir / name, ["alpha", "mean_precision", "std_precision"])
        _require([r[0] for r in rows] == list(alphas), f"{name}: alpha column {rows}")
        for row in rows:
            _unit(row[1], name)
    rows = _csv_rows(out_dir / "sweep_m.csv", ["m_over_n", "mean_precision"])
    _require(len(rows) == len(ms), f"sweep_m.csv: {len(rows)} rows for {len(ms)} m values")
    for row in rows:
        _unit(row[1], "sweep_m.csv")

    payload = json.loads((out_dir / "sweep.json").read_text())
    points = payload.get("alpha_sweep", [])
    _require(len(points) == len(alphas) * len(p_freshers),
             f"sweep.json: {len(points)} alpha points")
    for p in points:
        _unit(p["mean_precision"], "sweep.json")
        precisions[f"alpha={p['alpha']:g},pf={p['p_fresher']:g}"] = p["mean_precision"]
    m_points = payload.get("m_sweep", [])
    _require([p["m"] for p in m_points] == list(ms), f"sweep.json: m points {m_points}")
    for p in m_points:
        _unit(p["mean_precision"], "sweep.json")
        _require(math.isclose(p["m_over_n"], p["m"] / truth.n), f"sweep.json: m_over_n {p}")
        precisions[f"m={p['m']}"] = p["mean_precision"]
    return precisions


def check_truncation_gap(precisions: dict, full_key: str, ms) -> None:
    """Truncating to the most eigenpairs tracks the full sum more closely than to the fewest.

    ``full_key`` names the untruncated point with the same alpha and
    p_fresher as the m sweep.
    """
    full = precisions[full_key]
    gap_most = abs(precisions[f"m={max(ms)}"] - full)
    gap_fewest = abs(precisions[f"m={min(ms)}"] - full)
    _require(gap_most < gap_fewest,
             f"m={max(ms)} is {gap_most:.4g} from the full sum, m={min(ms)} {gap_fewest:.4g}")


def check_against_reference(precisions: dict, reference, truth: Truth) -> None:
    """Precisions stay near the recorded ones, or clearly above chance.

    With a reference, each precision may move by a quarter of its lead over
    a graph-blind ranking (and by at least two hits): enough for round-off
    and for a change of basis inside a degenerate eigenspace to reorder near
    ties, far too little for a reversed or random ranking, which lands at or
    below chance. Seeds without a reference only require the mean precision
    to beat chance by ``FLOOR_SIGMAS`` standard deviations.
    """
    chance = truth.random_precision
    slack = 2.0 / truth.probe_estimate
    if reference is None:
        mean = sum(precisions.values()) / len(precisions)
        sigma = math.sqrt(chance * (1.0 - chance) / truth.probe_estimate)
        _require(mean > chance + FLOOR_SIGMAS * sigma,
                 f"mean precision {mean:.4g} is not above chance {chance:.4g}")
        return
    _require(sorted(precisions) == sorted(reference),
             f"precision keys {sorted(precisions)} differ from the reference")
    for key, ref in reference.items():
        tol = max(REFERENCE_SHARE * abs(ref - chance), slack)
        _require(abs(precisions[key] - ref) <= tol,
                 f"{key}: precision {precisions[key]:.6g}, reference {ref:.6g} +- {tol:.3g}")
