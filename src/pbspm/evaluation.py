"""Candidate ranking, precision, correlation diagnostics, and the runner.

An experiment splits a temporal graph once, scores the non-observed training
pairs with the requested method, and measures how many of the top-L ranked
pairs fall in the probe set. The classical baselines are deterministic and
run once. Spectral methods repeat this over independent random
perturbations. ``run_experiment``, ``sweep``, ``sweep_m`` and the CLI all
run on one engine: it perturbs and eigendecomposes each realization once and
scores every requested method and grid point from that one corrected
spectrum, so all of them share the same perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .baselines import aa_scores, cn_scores, katz_scores, ra_scores, srw_scores
from .errors import NumericalError, UndefinedMetricError, ZeroVarianceError
from .graph import TemporalGraph, adjacency
from .spectral import (
    SpectralModel,
    eigendecompose,
    eigenvalue_correction,
    eigenvalues,
    sample_perturbation,
    select_m,
    spm_scores,
)
from .split import TrainProbeSplit, _endpoint_counts, popularity, split_train_probe

__all__ = [
    "METHODS",
    "SPECTRAL_METHODS",
    "RankedCandidates",
    "ExperimentConfig",
    "PrecisionReport",
    "SweepPoint",
    "rank_candidates",
    "precision_at",
    "pearson_cc",
    "delta_cc",
    "run_experiment",
    "sweep",
    "sweep_m",
]

METHODS = ("CN", "AA", "RA", "Katz", "SRW", "SPM", "PBSPM", "FastPBSPM")
SPECTRAL_METHODS = ("SPM", "PBSPM", "FastPBSPM")


@dataclass(frozen=True)
class RankedCandidates:
    """Non-observed pairs sorted by score descending, ties by (i, j) ascending.

    A ranking cut at L holds the first L pairs of the full order, no others.
    """

    pairs: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.pairs.shape[0]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a single experiment needs besides the graph itself.

    The only config type: it holds the one copy of every default, and the
    layers below take its fields as plain values. ``L`` defaults to the
    filtered probe size; ``count_dropped_in_L`` switches to the unfiltered
    probe size instead. ``score_averaging`` selects whether precision is
    averaged over realizations or computed once on the averaged score matrix.
    ``katz_damping=None`` means half the convergence bound, and
    ``katz_max_path_length=None`` the closed form. Every value is
    range-checked here, for every method, so a bad value fails before any
    input is read; only ``m <= n`` waits for the graph.
    """

    method: str = "PBSPM"
    alpha: float = 0.0
    p_fresher: float = 0.10
    p_h: float = 0.10
    realizations: int = 10
    m: Optional[int] = None
    seed: int = 0
    L: Optional[int] = None
    probe_fraction: float = 0.10
    score_averaging: str = "precision"
    count_dropped_in_L: bool = False
    katz_damping: Optional[float] = None
    katz_max_path_length: Optional[int] = None
    srw_steps: int = 3
    m_threshold: float = 0.05

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if not 0.0 < self.p_fresher < 1.0:
            raise ValueError(f"p_fresher must be in (0,1), got {self.p_fresher}")
        if not 0.0 < self.p_h < 1.0:
            raise ValueError(f"p_h must be in (0,1), got {self.p_h}")
        if self.m is not None and self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.m_threshold < 0:
            raise ValueError(f"m_threshold must be nonnegative, got {self.m_threshold}")
        if self.L is not None and self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.score_averaging not in ("precision", "matrix"):
            raise ValueError(
                f"score_averaging must be 'precision' or 'matrix', got {self.score_averaging!r}"
            )
        if not 0.0 < self.probe_fraction < 1.0:
            raise ValueError(f"probe_fraction must be in (0,1), got {self.probe_fraction}")
        if self.katz_damping is not None and self.katz_damping <= 0:
            raise ValueError(f"katz_damping must be positive, got {self.katz_damping}")
        if self.katz_max_path_length is not None and self.katz_max_path_length < 1:
            raise ValueError(f"katz_max_path_length must be >= 1, got {self.katz_max_path_length}")
        if self.srw_steps < 1:
            raise ValueError(f"srw_steps must be >= 1, got {self.srw_steps}")


@dataclass(frozen=True)
class PrecisionReport:
    """Outcome of one experiment: per-realization precisions plus diagnostics.

    ``mean_delta_lambda1`` and ``mean_delta_cc`` are None for baseline
    methods, which involve no perturbation. ``resolved_m`` records the
    truncation actually used by the fast method.
    """

    config: ExperimentConfig
    L: int
    probe_dropped: int
    per_realization: tuple[float, ...]
    mean_precision: float
    std_precision: Optional[float]
    mean_delta_lambda1: Optional[float]
    mean_delta_cc: Optional[float]
    resolved_m: Optional[int] = None
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepPoint:
    alpha: float
    p_fresher: float
    report: PrecisionReport


def _candidates(train_adj: np.ndarray) -> np.ndarray:
    # Flat indices of the upper-triangle non-edges, already (i, j) ascending,
    # so a stable sort on the score alone breaks ties by (i, j).
    return np.flatnonzero(np.triu(train_adj == 0, 1))


def _top(scores: np.ndarray, L: Optional[int]) -> np.ndarray:
    """Positions of the top ``min(L, scores.size)`` scores: score descending, then position.

    Partial selection finds the L-th largest score; only the scores at least
    that large (every tie at the boundary included) are sorted.
    """
    neg = -scores
    if L is None or L >= neg.size:
        return np.argsort(neg, kind="stable")
    kth = np.partition(neg, L - 1)[L - 1]
    # Not `neg <= kth`: NaN scores sort last, and when fewer than L
    # scores are numbers the cut is NaN and every candidate is kept.
    keep = np.flatnonzero(~(neg > kth))
    return keep[np.argsort(neg[keep], kind="stable")[:L]]


def _ranked(flat: np.ndarray, scores: np.ndarray, top: np.ndarray, n: int) -> RankedCandidates:
    """The candidate pairs ``flat`` and their ``scores`` at the positions ``top``."""
    pairs = np.column_stack(np.divmod(flat[top], n))
    pairs.setflags(write=False)
    ranked_scores = scores[top]
    ranked_scores.setflags(write=False)
    return RankedCandidates(pairs=pairs, scores=ranked_scores)


def rank_candidates(
    scores: np.ndarray, train_adj: np.ndarray, L: Optional[int] = None
) -> RankedCandidates:
    """Rank the non-edge pairs of the training adjacency by score.

    Ordering is deterministic: score descending, then (i, j) ascending. With
    ``L`` set, only the top ``min(L, candidates)`` pairs are returned; that
    cut ranking is exactly a prefix of the full one.
    """
    if len(scores) != len(train_adj):
        raise ValueError(f"size mismatch: scores n={len(scores)}, adjacency n={len(train_adj)}")
    if L is not None and L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    flat = _candidates(train_adj)
    sc = scores.take(flat)
    return _ranked(flat, sc, _top(sc, L), len(train_adj))


def precision_at(ranked: RankedCandidates, probe: Iterable[tuple[int, int]], L: int) -> float:
    """Fraction of the top-L ranked pairs that appear in the probe set."""
    probe_set = set(probe)
    if not probe_set:
        raise UndefinedMetricError("probe set is empty")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if L > len(ranked):
        raise ValueError(f"L={L} exceeds candidate count {len(ranked)}")
    hits = sum(1 for u, v in ranked.pairs[:L] if (int(u), int(v)) in probe_set)
    return hits / L


def pearson_cc(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation with population (1/N) normalization."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError(f"vectors must share one dimension, got {xv.shape} and {yv.shape}")
    if xv.size < 2:
        raise ValueError(f"need at least 2 samples, got {xv.size}")
    sx = xv.std()
    sy = yv.std()
    if sx == 0 or sy == 0:
        raise ZeroVarianceError("correlation undefined for a constant vector")
    return float(np.mean(((xv - xv.mean()) / sx) * ((yv - yv.mean()) / sy)))


def delta_cc(
    model: SpectralModel, boosted_x1: np.ndarray, probe_degree_increment: np.ndarray
) -> float:
    """Correlation gain of the boosted principal eigenvector.

    Both the raw and the boosted principal eigenvector are correlated against
    the per-node probe degree increment; the difference shows whether the
    popularity rescaling pushed attractiveness toward the nodes that actually
    gained edges.
    """
    base = pearson_cc(model.eigenvectors[:, 0], probe_degree_increment)
    boosted = pearson_cc(boosted_x1, probe_degree_increment)
    return boosted - base


def _baseline_scores(
    method: str, train_adj: np.ndarray, cfg: ExperimentConfig
) -> np.ndarray:
    if method == "CN":
        return cn_scores(train_adj)
    if method == "AA":
        return aa_scores(train_adj)
    if method == "RA":
        return ra_scores(train_adj)
    if method == "Katz":
        return katz_scores(train_adj, cfg.katz_damping, cfg.katz_max_path_length)
    if method == "SRW":
        return srw_scores(train_adj, cfg.srw_steps)
    raise ValueError(f"not a baseline method: {method}")


def _mean_or_none(values: list[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


@dataclass
class _Point:
    """One requested config and what has been computed for it so far."""

    cfg: ExperimentConfig
    L: int
    m: Optional[int] = None
    boost: Optional[np.ndarray] = None  # 1 + alpha * popularity; None for SPM
    score_sum: Optional[np.ndarray] = None
    precisions: list[float] = field(default_factory=list)
    delta_ccs: list[Optional[float]] = field(default_factory=list)
    ranked: Optional[RankedCandidates] = None


def _validate(cfgs: Sequence[ExperimentConfig], n: int) -> None:
    for cfg in cfgs:
        if cfg.method == "FastPBSPM" and cfg.m is not None and cfg.m > n:
            raise ValueError(f"m must be in [1, {n}], got {cfg.m}")


def _score_spectral(
    graph: TemporalGraph,
    split: TrainProbeSplit,
    train_adj: np.ndarray,
    flat: np.ndarray,
    hit: np.ndarray,
    points: Sequence[_Point],
    keep_top: bool,
) -> tuple[list[float], list[str]]:
    """Score every point from each realization's one corrected spectrum.

    Returns the realizations' leading-eigenvalue shifts and their failures.
    """
    p_freshers = dict.fromkeys(p.cfg.p_fresher for p in points)
    pops = {pf: popularity(graph, split.train, pf) for pf in p_freshers}
    for p in points:
        if p.cfg.method != "SPM":
            p.boost = 1.0 + p.cfg.alpha * pops[p.cfg.p_fresher]
        if keep_top or p.cfg.score_averaging == "matrix":
            p.score_sum = np.zeros(flat.size)
    fast = [p for p in points if p.cfg.method == "FastPBSPM"]
    if any(p.cfg.m is None for p in fast):
        train_lam = eigenvalues(train_adj)
    for p in fast:
        p.m = p.cfg.m if p.cfg.m is not None else select_m(train_lam, p.cfg.m_threshold)
    ms = dict.fromkeys(p.m for p in points)
    probe_inc = _endpoint_counts(graph.edges[split.train.size :], graph.n)

    shared = points[0].cfg
    train_edges = graph.edges[split.train]
    shifts: list[float] = []
    failures: list[str] = []
    for r in range(shared.realizations):
        try:
            sample = sample_perturbation(train_adj, train_edges, shared.p_h, shared.seed + r)
            model = eigenvalue_correction(eigendecompose(sample.retained), sample.removed)
        except NumericalError as err:
            failures.append(f"realization {r}: {err}")
            continue
        finally:
            sample = None
        shifts.append(float(model.corrections[0]))
        for m in ms:
            spm = spm_scores(model, m).take(flat)
            for p in (p for p in points if p.m == m):
                scores, x1 = spm, model.eigenvectors[:, 0]
                if p.boost is not None:  # as in pbspm_scores: S_ij * f_i * f_j
                    scores = spm * np.multiply.outer(p.boost, p.boost).take(flat)
                    x1 = x1 * p.boost
                try:
                    p.delta_ccs.append(delta_cc(model, x1, probe_inc))
                except ZeroVarianceError:
                    p.delta_ccs.append(None)
                if p.cfg.score_averaging == "precision":
                    p.precisions.append(np.count_nonzero(hit[_top(scores, p.L)]) / p.L)
                if p.score_sum is not None:
                    p.score_sum += scores
        # Free the eigenvectors (x1 may be a view of them) before the next eigh.
        model = spm = scores = x1 = None
    if not shifts:
        raise NumericalError(f"all {shared.realizations} realizations failed: {failures}")

    for p in points:
        if p.score_sum is not None:
            p.score_sum /= len(shifts)
            top = _top(p.score_sum, p.L)
            if p.cfg.score_averaging == "matrix":
                p.precisions.append(np.count_nonzero(hit[top]) / p.L)
            if keep_top:
                p.ranked = _ranked(flat, p.score_sum, top, graph.n)
    return shifts, failures


def _run_points(
    graph: TemporalGraph, cfgs: Sequence[ExperimentConfig], keep_top: bool = False
) -> list[tuple[PrecisionReport, Optional[RankedCandidates]]]:
    """Evaluate every config from one split and one spectrum per realization.

    The configs must agree on ``realizations``, ``seed``, ``p_h`` and
    ``probe_fraction``, which fix the split and the perturbations, and may
    differ in everything else; all are validated before anything is
    scored. Every method is taken over one candidate list, cut with ``_top``
    and counted with one probe-hit mask. Baselines are scored once. Each
    realization is then perturbed, decomposed and corrected once; its SPM
    scores are reconstructed once per distinct truncation, and every
    spectral config is scored as that vector, rescaled by the config's
    popularity boost. ``keep_top`` pairs each report with its top-L ranking
    (of the scores averaged over the realizations, for spectral methods).
    """
    _validate(cfgs, graph.n)
    split = split_train_probe(graph, cfgs[0].probe_fraction)
    train_adj = adjacency(graph, split.train)
    flat = _candidates(train_adj)
    hit = np.isin(flat, [u * graph.n + v for u, v in split.probe])
    points = []
    for cfg in cfgs:
        L = cfg.L
        if L is None:
            L = split.probe_total if cfg.count_dropped_in_L else len(split.probe)
        if L > flat.size:
            raise ValueError(f"L={L} exceeds candidate count {flat.size}")
        points.append(_Point(cfg, L))
    for p in (p for p in points if p.cfg.method not in SPECTRAL_METHODS):
        scores = _baseline_scores(p.cfg.method, train_adj, p.cfg).take(flat)
        top = _top(scores, p.L)
        p.precisions.append(np.count_nonzero(hit[top]) / p.L)
        if keep_top:
            p.ranked = _ranked(flat, scores, top, graph.n)
        scores = top = None  # free both before the realization loop
    spectral = [p for p in points if p.cfg.method in SPECTRAL_METHODS]
    if spectral:
        shifts, failures = _score_spectral(graph, split, train_adj, flat, hit, spectral, keep_top)
    results = []
    for p in points:
        is_spectral = p.cfg.method in SPECTRAL_METHODS
        matrix = is_spectral and p.cfg.score_averaging == "matrix"
        report = PrecisionReport(
            config=p.cfg,
            L=p.L,
            probe_dropped=split.probe_dropped,
            per_realization=() if matrix else tuple(p.precisions),
            mean_precision=float(np.mean(p.precisions)),
            std_precision=None if matrix else float(np.std(p.precisions)),
            mean_delta_lambda1=float(np.mean(shifts)) if is_spectral else None,
            mean_delta_cc=_mean_or_none(p.delta_ccs),
            resolved_m=p.m,
            failures=tuple(failures) if is_spectral else (),
        )
        results.append((report, p.ranked))
    return results


def run_experiment(graph: TemporalGraph, cfg: ExperimentConfig) -> PrecisionReport:
    """Split, score, rank, and evaluate precision for one method.

    The temporal split is deterministic. Spectral methods run
    ``cfg.realizations`` independent perturbations seeded ``seed .. seed+r-1``
    and average precision over them (or average the score matrices first when
    ``cfg.score_averaging == "matrix"``); baselines run once, unperturbed.
    """
    return _run_points(graph, [cfg])[0][0]


def _sweep_configs(
    base_cfg: ExperimentConfig,
    alphas: Sequence[float],
    p_freshers: Sequence[float],
    ms: Sequence[int],
) -> list[ExperimentConfig]:
    """The (alpha, p_fresher) grid's configs, p_fresher outermost, then the m sweep's.

    An empty ``alphas`` or ``ms`` skips that sweep. Every config averages
    precision over the realizations, whatever ``score_averaging`` says, and
    every value is range-checked here, before any input is read.
    """
    base = replace(base_cfg, score_averaging="precision")
    if len(alphas) and base.method not in ("PBSPM", "FastPBSPM"):
        raise ValueError(f"sweep requires a popularity-boosted method, got {base.method}")
    cfgs = [replace(base, alpha=alpha, p_fresher=pf) for pf in p_freshers for alpha in alphas]
    return cfgs + [replace(base, method="FastPBSPM", m=m) for m in ms]


def sweep(
    graph: TemporalGraph,
    base_cfg: ExperimentConfig,
    alphas: Sequence[float],
    p_freshers: Sequence[float],
) -> list[SweepPoint]:
    """Precision over the (alpha, p_fresher) grid with one shared split.

    Each realization is perturbed and decomposed once and scored at every
    grid point, so all points share the same perturbations; results are
    identical to running each point through ``run_experiment`` with
    precision averaging.
    """
    if len(alphas) == 0 or len(p_freshers) == 0:
        raise ValueError("alpha and p_fresher grids must be non-empty")
    results = _run_points(graph, _sweep_configs(base_cfg, alphas, p_freshers, ()))
    return [SweepPoint(r.config.alpha, r.config.p_fresher, r) for r, _ in results]


def sweep_m(
    graph: TemporalGraph, base_cfg: ExperimentConfig, ms: Sequence[int]
) -> list[tuple[int, PrecisionReport]]:
    """Precision of the truncated reconstruction for each requested m."""
    if len(ms) == 0:
        raise ValueError("m grid must be non-empty")
    return [(r.config.m, r) for r, _ in _run_points(graph, _sweep_configs(base_cfg, (), (), ms))]
