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
    _leading_pairs,
    _pair_sum,
    sample_perturbation,
    select_m,
)
from .split import TrainProbeSplit, _endpoint_counts, popularity, split_train_probe

__all__ = [
    "METHODS",
    "RankedCandidates",
    "ExperimentConfig",
    "PrecisionReport",
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


@dataclass(frozen=True, eq=False)
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


def _candidates(train_adj: np.ndarray) -> np.ndarray:
    # The upper-triangle non-edges as an n x n boolean mask. Indexing with it
    # reads the pairs row-major, (i, j) ascending, so a stable sort on the
    # score alone breaks ties by (i, j).
    return np.triu(train_adj == 0, 1)


def _hits(cand: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Which candidates, in ``cand``'s order, are the ``(k, 2)`` ``probe`` rows."""
    is_probe = np.zeros_like(cand)
    is_probe[probe[:, 0], probe[:, 1]] = True
    return is_probe[cand]


def _top(scores: np.ndarray, L: Optional[int]) -> np.ndarray:
    """Positions of the top ``min(L, scores.size)`` scores: score descending, then position.

    Partial selection finds the L-th largest score; only the scores at least
    that large (every tie at the boundary included) are sorted.
    """
    neg = -scores
    if L is None or L >= neg.size:
        return np.argsort(neg, kind="stable")
    neg.partition(L - 1)  # in place: neg is this call's own copy
    kth = -neg[L - 1]
    # Not `scores >= kth`: NaN scores sort last, and when fewer than L
    # scores are numbers the cut is NaN and every candidate is kept.
    keep = np.flatnonzero(~(scores < kth))
    return keep[np.argsort(-scores[keep], kind="stable")[:L]]


def _ranked(cand: np.ndarray, scores: np.ndarray, top: np.ndarray) -> RankedCandidates:
    """The pairs of the candidate mask ``cand`` and their ``scores`` at the positions ``top``."""
    pairs = np.column_stack(np.divmod(np.flatnonzero(cand)[top], len(cand)))
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
    cand = _candidates(train_adj)
    sc = scores[cand]
    return _ranked(cand, sc, _top(sc, L))


def precision_at(ranked: RankedCandidates, probe: Iterable[tuple[int, int]], L: int) -> float:
    """Fraction of the top-L ranked pairs that appear in the probe set."""
    probe_set = {(int(u), int(v)) for u, v in probe}
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
    method: str, train_adj: np.ndarray, cfg: ExperimentConfig, lam_max: Optional[float]
) -> np.ndarray:
    if method == "CN":
        return cn_scores(train_adj)
    if method == "AA":
        return aa_scores(train_adj)
    if method == "RA":
        return ra_scores(train_adj)
    if method == "Katz":
        return katz_scores(train_adj, cfg.katz_damping, cfg.katz_max_path_length, lam_max)
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
    precisions: list[float] = field(default_factory=list)
    delta_ccs: list[Optional[float]] = field(default_factory=list)
    ranked: Optional[RankedCandidates] = None


def _cut(
    scores: np.ndarray,
    cand: np.ndarray,
    hit: np.ndarray,
    count: Sequence[_Point],
    rank: Sequence[_Point],
) -> None:
    """One ``_top`` per distinct L: ``count``'s points get precisions, ``rank``'s rankings."""
    for L in dict.fromkeys(p.L for p in (*count, *rank)):
        top = _top(scores, L)
        for p in (p for p in count if p.L == L):
            p.precisions.append(np.count_nonzero(hit[top]) / L)
        for p in (p for p in rank if p.L == L):
            p.ranked = _ranked(cand, scores, top)


def _score_spectral(
    graph: TemporalGraph,
    split: TrainProbeSplit,
    cand: np.ndarray,
    hit: np.ndarray,
    points: Sequence[_Point],
    keep_top: bool,
) -> tuple[list[float], list[str]]:
    """Score every point from each realization's one corrected spectrum.

    Each realization's retained adjacency is built from its kept edge rows,
    so no dense training matrix is held here. Points of one truncation
    whose boost is the same, or absent (SPM, and alpha = 0 where ``f = 1``),
    share a score vector: its reconstruction and boost, cut in every
    realization for the points that average precision and once, on the mean
    scores, for those that average scores or keep their ranking. Points of
    one boost, whatever their truncation, share each realization's
    ``delta_cc``, which is 0.0 unboosted and None when undefined. The
    boost ``f_i * f_j`` is the same in every realization, so the mean of
    boosted scores is the boost of the mean SPM scores: ``sums`` maps the
    full spectrum to one unboosted candidate-length sum, and a truncation m
    to the same sum or, while n·R·m is below the candidate count, to its
    realizations' m leading eigenpairs, stacked, whose one product after the
    loop is the sum. Each retained matrix is eigendecomposed in place.
    Returns the realizations' leading-eigenvalue shifts and failures.
    """
    # (m, (alpha, p_fresher)), or (m, None) when unboosted -> the vector's points.
    vectors: dict[tuple, list[_Point]] = {}
    for p in points:
        unboosted = p.cfg.method == "SPM" or p.cfg.alpha == 0
        key = (p.m, None if unboosted else (p.cfg.alpha, p.cfg.p_fresher))
        vectors.setdefault(key, []).append(p)
    # (alpha, p_fresher) -> the boost f, and None -> None when unboosted.
    boosts = dict.fromkeys(boost for _, boost in vectors)
    pops = {pf: popularity(split.train, graph.n, pf) for pf in {b[1] for b in boosts if b}}
    boosts.update({b: 1.0 + b[0] * pops[b[1]] for b in boosts if b})

    per_row = np.count_nonzero(cand, axis=1)  # candidates (i, j) of each row i

    def cut(key: tuple, spm: np.ndarray, averaging: str, rank: Sequence[_Point] = ()) -> None:
        count = [p for p in vectors[key] if p.cfg.score_averaging == averaging]
        if count or rank:
            f = boosts[key[1]]
            scores = spm
            if f is not None:  # (f_i * f_j) * S_ij, the product pbspm_scores takes
                scores = np.repeat(f, per_row)  # f_i of each candidate (i, j)
                scores *= np.broadcast_to(f, cand.shape)[cand]
                scores *= spm
            _cut(scores, cand, hit, count, rank)

    ms = dict.fromkeys(m for m, _ in vectors)
    shared = points[0].cfg
    averaged = (p.m for p in points if keep_top or p.cfg.score_averaging == "matrix")
    # A sum, or a truncation's pairs in columns of one block of m per
    # realization, is allocated here: a copy made in the loop may land high in
    # the heap and keep the memory freed below it resident.
    reps = shared.realizations
    sums = {m: (np.empty((graph.n, reps * m)), np.empty(reps * m))
            if m is not None and graph.n * reps * m < hit.size else np.zeros(hit.size)
            for m in dict.fromkeys(averaged)}
    probe_inc = _endpoint_counts(graph.edges[len(split.train) :], graph.n)

    shifts: list[float] = []
    failures: list[str] = []
    for r in range(shared.realizations):
        try:
            sample = sample_perturbation(split.train, shared.p_h, shared.seed + r)
            retained = adjacency(sample.retained, graph.n)
            removed, sample = sample.removed, None  # the kept rows go before the eigensolve
            retained.setflags(write=True)  # solved in place, so no n x n output is made
            model = eigendecompose(retained, overwrite=True)
            retained = None  # and the matrix goes before the correction
            model = eigenvalue_correction(model, removed)
        except NumericalError as err:
            failures.append(f"realization {r}: {err}")
            continue
        finally:
            sample = retained = None
        shifts.append(float(model.corrections[0]))
        x1 = model.eigenvectors[:, 0]
        dccs = {}  # boost -> this realization's delta_cc
        for boost, f in boosts.items():
            try:  # unboosted, x1 against itself: exactly 0.0
                dccs[boost] = delta_cc(model, x1 if f is None else x1 * f, probe_inc)
            except ZeroVarianceError:
                dccs[boost] = None
        for m in ms:
            leading, weights = _leading_pairs(model, m)
            stacked = isinstance(sums.get(m), tuple)
            if stacked:
                at = (len(shifts) - 1) * m  # this realization's block
                sums[m][0][:, at : at + m] = leading
                sums[m][1][at : at + m] = weights
            spm = _pair_sum(leading, weights, cand)
            if m in sums and not stacked:
                sums[m] += spm
            for key in (key for key in vectors if key[0] == m):
                for p in vectors[key]:
                    p.delta_ccs.append(dccs[key[1]])
                cut(key, spm, "precision")
        # Free the eigenvectors (x1 and leading are views of them) before the next eigh,
        # and the corrected eigenvalues: a small array left high in the heap keeps
        # the memory freed below it resident.
        model = leading = weights = spm = x1 = None
    if not shifts:
        raise NumericalError(f"all {shared.realizations} realizations failed: {failures}")

    for m in list(sums):
        mean = sums.pop(m)
        if isinstance(mean, tuple):
            leading, weights = mean
            used = len(shifts) * m  # the blocks of the realizations that did not fail
            mean = _pair_sum(leading[:, :used], weights[:used], cand)
        mean /= len(shifts)
        for key in (key for key in vectors if key[0] == m):
            cut(key, mean, "matrix", vectors[key] if keep_top else ())
        mean = None  # freed before the next truncation's mean
    return shifts, failures


def _run_points(
    graph: TemporalGraph, cfgs: Sequence[ExperimentConfig], keep_top: bool = False
) -> list[tuple[PrecisionReport, Optional[RankedCandidates]]]:
    """Evaluate every config from one split and one spectrum per realization.

    The configs must agree on ``realizations``, ``seed``, ``p_h`` and
    ``probe_fraction``, which fix the split and the perturbations; that is
    not checked, and the first config's values are used. They may differ in
    everything else. Every ``m`` and ``L`` is range-checked before anything
    is scored. The training eigenvalues are computed at most once, for
    Katz's bound and FastPBSPM's auto-m, which is resolved right after them,
    so each FastPBSPM point enters ``_score_spectral`` with its truncation.
    Baselines are scored once, and then the dense training adjacency is
    dropped; ``_score_spectral`` scores the spectral configs. Every score
    vector, a baseline's or a boosted spectral truncation's, goes through
    ``_cut``: one ``_top`` per distinct L over one candidate mask, counted
    with one probe-hit mask. ``keep_top`` pairs each report with its top-L
    ranking (of the scores averaged over the realizations, for spectral
    methods).
    """
    for cfg in cfgs:
        if cfg.method == "FastPBSPM" and cfg.m is not None and cfg.m > graph.n:
            raise ValueError(f"m must be in [1, {graph.n}], got {cfg.m}")
    split = split_train_probe(graph, cfgs[0].probe_fraction)
    train_adj = adjacency(split.train, graph.n)
    cand = _candidates(train_adj)
    hit = _hits(cand, split.probe)
    points = []
    for cfg in cfgs:
        L = cfg.L
        if L is None:
            L = split.probe_total if cfg.count_dropped_in_L else len(split.probe)
        if L > hit.size:
            raise ValueError(f"L={L} exceeds candidate count {hit.size}")
        points.append(_Point(cfg, L))
    train_lam = lam_max = None
    if any(p.cfg.method == "Katz" or (p.cfg.method == "FastPBSPM" and p.cfg.m is None)
           for p in points):
        train_lam = eigenvalues(train_adj)
        lam_max = float(train_lam.max())
    for p in (p for p in points if p.cfg.method == "FastPBSPM"):
        p.m = p.cfg.m if p.cfg.m is not None else select_m(train_lam, p.cfg.m_threshold)
    for p in (p for p in points if p.cfg.method not in SPECTRAL_METHODS):
        scores = _baseline_scores(p.cfg.method, train_adj, p.cfg, lam_max)[cand]
        _cut(scores, cand, hit, [p], [p] if keep_top else ())
        scores = None  # freed before the next baseline runs
    # Each realization builds its retained adjacency from its kept edge rows,
    # so the training matrix goes before the first eigensolve.
    train_adj = None
    spectral = [p for p in points if p.cfg.method in SPECTRAL_METHODS]
    if spectral:
        shifts, failures = _score_spectral(graph, split, cand, hit, spectral, keep_top)
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
) -> list[PrecisionReport]:
    """Precision over the (alpha, p_fresher) grid with one shared split.

    One report per grid point, p_fresher outermost, then alpha; a point's
    coordinates are ``report.config.alpha`` and ``.p_fresher``. Each
    realization is perturbed and decomposed once and scored at every grid
    point, so all points share the same perturbations; results are identical
    to running each point through ``run_experiment`` with precision averaging.
    """
    if len(alphas) == 0 or len(p_freshers) == 0:
        raise ValueError("alpha and p_fresher grids must be non-empty")
    return [r for r, _ in _run_points(graph, _sweep_configs(base_cfg, alphas, p_freshers, ()))]


def sweep_m(
    graph: TemporalGraph, base_cfg: ExperimentConfig, ms: Sequence[int]
) -> list[PrecisionReport]:
    """Precision of the truncated reconstruction for each requested m, in
    ``ms`` order; a report's m is ``report.config.m``."""
    if len(ms) == 0:
        raise ValueError("m grid must be non-empty")
    return [r for r, _ in _run_points(graph, _sweep_configs(base_cfg, (), (), ms))]
