"""Classical similarity indices used as comparison predictors.

Common Neighbors, Adamic-Adar, and Resource Allocation score a pair through
its shared neighbors; Katz accumulates damped walk counts of every length;
the superposed random walk sums degree-weighted transfer probabilities over
a short horizon. All five operate on a plain adjacency view and return the
same symmetric score-matrix type as the spectral methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError
from .graph import AdjacencyView, degrees
from .spectral import ScoreMatrix, _score_matrix

__all__ = [
    "KatzConfig",
    "WalkConfig",
    "cn_scores",
    "aa_scores",
    "ra_scores",
    "katz_scores",
    "srw_scores",
    "max_eigenvalue",
]


@dataclass(frozen=True)
class KatzConfig:
    """Damping factor and optional series truncation for the Katz index.

    ``damping`` must stay below the reciprocal of the largest adjacency
    eigenvalue for the walk series to converge; None means half that bound
    (0.1 when the largest eigenvalue is not positive). ``max_path_length``
    switches from the closed form to an explicit truncated series.
    """

    damping: Optional[float] = None
    max_path_length: Optional[int] = None

    def __post_init__(self):
        if self.damping is not None and self.damping <= 0:
            raise ValueError(f"damping must be positive, got {self.damping}")
        if self.max_path_length is not None and self.max_path_length < 1:
            raise ValueError(f"max_path_length must be >= 1, got {self.max_path_length}")


@dataclass(frozen=True)
class WalkConfig:
    """Horizon of the superposed random walk."""

    steps: int = 3

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def cn_scores(view: AdjacencyView) -> ScoreMatrix:
    """Number of common neighbors; equals the squared adjacency."""
    a = view.matrix
    return _score_matrix(a @ a)


def _weighted_common_neighbors(view: AdjacencyView, weights: np.ndarray) -> ScoreMatrix:
    a = view.matrix
    return _score_matrix((a * weights) @ a)


def aa_scores(view: AdjacencyView) -> ScoreMatrix:
    """Common neighbors weighted by the reciprocal log of their degree.

    Natural log. Degree-0/1 nodes get weight 0; they can never be a common
    neighbor of a distinct pair, and zeroing keeps the matrix finite.
    """
    k = degrees(view).astype(np.float64)
    weights = np.zeros(view.n)
    safe = k >= 2
    weights[safe] = 1.0 / np.log(k[safe])
    return _weighted_common_neighbors(view, weights)


def ra_scores(view: AdjacencyView) -> ScoreMatrix:
    """Common neighbors weighted by the reciprocal of their degree."""
    k = degrees(view).astype(np.float64)
    weights = np.zeros(view.n)
    safe = k >= 1
    weights[safe] = 1.0 / k[safe]
    return _weighted_common_neighbors(view, weights)


def max_eigenvalue(view: AdjacencyView) -> float:
    """Largest adjacency eigenvalue, the Katz convergence bound."""
    return float(np.linalg.eigvalsh(view.matrix)[-1])


def katz_scores(view: AdjacencyView, cfg: KatzConfig) -> ScoreMatrix:
    """Damped count of walks of every length between each pair.

    Closed form ``(I - damping * A)^-1 - I`` by default; with
    ``max_path_length`` set, the explicit series over walk lengths
    ``1..max_path_length`` instead.

    Raises:
        NumericalError: damping at or beyond the convergence bound, or a
            singular linear system.
    """
    a = view.matrix
    lam_max = max_eigenvalue(view)
    damping = cfg.damping
    if damping is None:
        damping = 0.5 / lam_max if lam_max > 0 else 0.1
    if lam_max > 0 and damping >= 1.0 / lam_max:
        raise NumericalError(
            f"damping {damping} >= 1/lambda_max = {1.0 / lam_max:.6g}, series diverges"
        )
    if cfg.max_path_length is not None:
        damped = damping * a
        total = np.zeros_like(a)
        power = np.eye(view.n)
        for _ in range(cfg.max_path_length):
            power = power @ damped
            total += power
        return _score_matrix(total)
    try:
        inv = np.linalg.inv(np.eye(view.n) - damping * a)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"Katz linear system is singular: {err}") from err
    return _score_matrix(inv - np.eye(view.n))


def srw_scores(view: AdjacencyView, cfg: WalkConfig) -> ScoreMatrix:
    """Superposed random walk over a fixed number of steps.

    With row-stochastic transition matrix P and stationary weights
    ``q_x = k_x / 2|E|``, accumulates ``q_x P^tau[x, y] + q_y P^tau[y, x]``
    for tau = 1..steps. Zero-degree nodes contribute zero rows: no walk
    leaves an isolated node.
    """
    k = degrees(view).astype(np.float64)
    two_e = k.sum()
    if two_e == 0:
        return _score_matrix(np.zeros_like(view.matrix))
    q = k / two_e
    transition = np.divide(
        view.matrix, k[:, None], out=np.zeros_like(view.matrix), where=k[:, None] > 0
    )
    walk = transition
    total = np.zeros_like(view.matrix)
    for _ in range(cfg.steps):
        weighted = q[:, None] * walk
        total += weighted + weighted.T
        walk = walk @ transition
    return _score_matrix(total)
