"""Structural perturbation scoring and its popularity-boosted variants.

A random slice of the training edges is removed, the remaining adjacency is
eigendecomposed, and each eigenvalue receives the first-order shift induced
by the removed slice. Summing the shifted eigenpairs back up yields a score
matrix S whose large entries mark likely missing edges. The popularity-boosted
variant scales row i of the eigenvectors by ``f_i = 1 + alpha * popularity_i``,
which makes its score exactly ``f_i * f_j * S_ij``: it is computed as that
rescale of S. The fast variant rescales the sum of only the ``m`` leading
eigenpairs, with ``m`` read off the last large eigenvalue gap. Adjacencies,
popularity vectors and score matrices are plain read-only ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegeneratePerturbationError, NumericalError

__all__ = [
    "PerturbationSample",
    "SpectralModel",
    "sample_perturbation",
    "eigendecompose",
    "eigenvalues",
    "eigenvalue_correction",
    "spm_scores",
    "pbspm_scores",
    "truncated_scores",
    "select_m",
]


@dataclass(frozen=True)
class PerturbationSample:
    """A training adjacency split into a retained adjacency and the removed edges.

    ``retained`` is a read-only n x n float64 array. ``removed`` is a
    read-only ``(k, 2)`` int array, one ``(min, max)`` row per removed edge,
    sorted by ``(u, v)``. Setting both orientations of each row to 1 in
    ``retained`` gives back the training adjacency.
    """

    retained: np.ndarray
    removed: np.ndarray


@dataclass(frozen=True)
class SpectralModel:
    """Eigenpairs of a symmetric matrix, ordered by |eigenvalue| descending.

    ``eigenvectors[:, k]`` is the unit eigenvector paired with
    ``eigenvalues[k]``; ``corrections[k]`` is the first-order eigenvalue
    shift attributed to a removed edge set (zero until populated).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    corrections: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _score_matrix(values: np.ndarray) -> np.ndarray:
    # (M + M.T) / 2 makes BLAS round-off exactly symmetric.
    return _frozen((values + values.T) / 2.0)


def sample_perturbation(
    train_adj: np.ndarray, train_edges: np.ndarray, p_h: float, seed: int
) -> PerturbationSample:
    """Remove a uniform random fraction ``p_h`` of the training edges.

    ``train_edges`` is an ``(m, >=2)`` array whose first two columns are the
    edge endpoints backing ``train_adj``. The draw is without replacement
    from a generator seeded with ``seed``, so it is reproducible. The drawn
    edges come back as ``PerturbationSample.removed``, an edge list.

    Raises:
        DegeneratePerturbationError: ``round(p_h * m)`` is zero.
    """
    if not 0.0 < p_h < 1.0:
        raise ValueError(f"p_h must be in (0,1), got {p_h}")
    train_edges = np.asarray(train_edges)
    m = train_edges.shape[0]
    k = round(p_h * m)
    if k < 1:
        raise DegeneratePerturbationError(
            f"p_h={p_h} removes zero of {m} training edges"
        )
    rng = np.random.default_rng(seed)
    chosen = train_edges[rng.choice(m, size=k, replace=False), :2]
    removed = np.sort(chosen, axis=1)
    removed = removed[np.lexsort((removed[:, 1], removed[:, 0]))]
    retained = train_adj.copy()
    retained[removed[:, 0], removed[:, 1]] = 0.0
    retained[removed[:, 1], removed[:, 0]] = 0.0
    return PerturbationSample(retained=_frozen(retained), removed=_frozen(removed))


def _magnitude_order(lam: np.ndarray) -> np.ndarray:
    # |eigenvalue| descending, then signed eigenvalue descending, then solver order.
    return np.lexsort((np.arange(lam.size), -lam, -np.abs(lam)))


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues alone, in the order ``eigendecompose`` gives them.

    Cheaper than the full decomposition when no eigenvectors are needed; the
    values agree with ``eigendecompose``'s to round-off, which may swap the
    members of a +x/-x pair.
    """
    try:
        lam = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigendecomposition failed: {err}") from err
    return _frozen(lam[_magnitude_order(lam)])


def eigendecompose(matrix: np.ndarray) -> SpectralModel:
    """Full symmetric eigendecomposition, ordered by |eigenvalue| descending.

    Ties break by signed eigenvalue descending, then solver order. Each
    eigenvector is sign-fixed so its largest-magnitude component is positive,
    making downstream results independent of solver sign choices.
    """
    try:
        lam, vec = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigendecomposition failed: {err}") from err
    order = _magnitude_order(lam)
    lam = lam[order]
    vec = vec[:, order]
    peak = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[peak, np.arange(vec.shape[1])])
    signs[signs == 0] = 1.0
    vec = vec * signs
    return SpectralModel(
        eigenvalues=_frozen(lam),
        eigenvectors=_frozen(vec),
        corrections=_frozen(np.zeros_like(lam)),
    )


def eigenvalue_correction(model: SpectralModel, removed: np.ndarray) -> SpectralModel:
    """First-order eigenvalue shifts from putting the removed edges back.

    ``removed`` holds one ``(u, v)`` row per edge, as in
    ``PerturbationSample.removed``. For unit eigenvectors the shift of pair
    ``k`` is ``x_k^T dA x_k = 2 * sum of x_k[u] * x_k[v]`` over the rows, so
    the cost scales with the removed edge count, not with n^2.
    """
    removed = np.asarray(removed)
    if removed.size and (removed.min() < 0 or removed.max() >= model.n):
        raise ValueError(f"removed edge endpoint outside [0, {model.n})")
    uu, vv = removed[:, 0], removed[:, 1]
    X = model.eigenvectors
    corrections = np.einsum("e,ek,ek->k", np.full(uu.size, 2.0), X[uu, :], X[vv, :])
    return SpectralModel(
        eigenvalues=model.eigenvalues,
        eigenvectors=model.eigenvectors,
        corrections=_frozen(corrections),
    )


def spm_scores(model: SpectralModel, m: Optional[int] = None) -> np.ndarray:
    """The SPM score matrix S: corrected sum of the leading m eigenpairs, or of all."""
    if m is not None and not 1 <= m <= model.n:
        raise ValueError(f"m must be in [1, {model.n}], got {m}")
    vectors = model.eigenvectors[:, :m]
    weights = (model.eigenvalues + model.corrections)[:m]
    return _score_matrix((vectors * weights) @ vectors.T)


def pbspm_scores(
    model: SpectralModel, s: np.ndarray, alpha: float, m: Optional[int] = None
) -> np.ndarray:
    """Popularity-boosted scores: ``f_i * f_j * S_ij`` with ``f = 1 + alpha * s``.

    Boosting row i of the eigenvectors by ``f_i`` before the reconstruction
    is exactly this rescale of ``spm_scores(model, m)``. The boosted
    vectors are never renormalized: the rescale is the popularity signal.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if len(s) != model.n:
        raise ValueError(f"popularity covers {len(s)} nodes, model has {model.n}")
    f = 1.0 + alpha * s
    return _frozen(np.multiply.outer(f, f) * spm_scores(model, m))


def truncated_scores(model: SpectralModel, s: np.ndarray, alpha: float, m: int) -> np.ndarray:
    """``pbspm_scores(model, s, alpha, m)``; kept while the benchmark tracer names it."""
    return pbspm_scores(model, s, alpha, m)


def select_m(eigenvalues: Sequence[float], threshold: float = 0.05) -> int:
    """Truncation size from the last large eigenvalue gap.

    With the spectrum sorted by absolute value descending, returns the largest
    ``i`` such that ``|lam_i| - |lam_{i+1}|`` exceeds ``threshold * |lam_1|``.
    When no gap qualifies (flat or tiny spectra) the rank-1 fallback ``m=1``
    is returned.
    """
    lam = np.abs(np.asarray(eigenvalues, dtype=np.float64))
    if lam.size == 0:
        raise ValueError("eigenvalue list is empty")
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    if lam.size == 1:
        return 1
    gaps = lam[:-1] - lam[1:]
    qualifying = np.nonzero(gaps > threshold * lam[0])[0]
    if qualifying.size == 0:
        return 1
    return int(qualifying[-1]) + 1
