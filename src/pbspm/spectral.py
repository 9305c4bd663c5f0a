"""Structural perturbation scoring and its popularity-boosted variants.

A random slice of the training edges is removed, the remaining adjacency is
eigendecomposed, and each eigenvalue receives the first-order shift induced
by the removed slice. Summing the shifted eigenpairs back up yields a score
matrix S whose large entries mark likely missing edges. The popularity-boosted
variant scales row i of the eigenvectors by ``f_i = 1 + alpha * popularity_i``,
which makes its score exactly ``f_i * f_j * S_ij``: it is computed as that
rescale of S. The fast variant rescales the sum of only the ``m`` leading
eigenpairs, with ``m`` read off the last large eigenvalue gap. Edge lists,
adjacencies, popularity vectors and score matrices are read-only ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegeneratePerturbationError, NumericalError

__all__ = [
    "PerturbationSample",
    "SpectralModel",
    "sample_perturbation",
    "eigendecompose",
    "eigenvalue_correction",
    "spm_scores",
    "pbspm_scores",
    "truncated_scores",
    "select_m",
]


@dataclass(frozen=True, eq=False)
class PerturbationSample:
    """Training edges split into the retained edges and the removed edges.

    ``retained`` is a read-only ``(m - k, 2)`` int array, the endpoints of
    the kept training edges in the order given. ``removed`` is a read-only
    ``(k, 2)`` int array, one ``(min, max)`` row per removed edge, sorted by
    ``(u, v)``. Together they hold each training edge once.
    """

    retained: np.ndarray
    removed: np.ndarray


@dataclass(frozen=True, eq=False)
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


# Rows of the pair sum one product fills, and removed edges whose eigenvector rows
# eigenvalue_correction gathers at once; 256 pair-sum rows raised the engine's peak.
_PAIR_ROWS = 128


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def sample_perturbation(train_edges: np.ndarray, p_h: float, seed: int) -> PerturbationSample:
    """Remove a uniform random fraction ``p_h`` of the training edges.

    ``train_edges`` is an ``(m, >=2)`` array whose first two columns are the
    endpoints of m distinct edges. The draw is without replacement from a
    generator seeded with ``seed``, so it is reproducible. Both sides come
    back as edge lists: ``graph.adjacency(sample.retained, n)`` is the
    retained matrix, built only when a caller needs it.

    Raises:
        ValueError: ``p_h`` outside (0, 1).
        DegeneratePerturbationError: ``round(p_h * m)`` is zero.
    """
    if not 0.0 < p_h < 1.0:
        raise ValueError(f"p_h must be in (0,1), got {p_h}")
    ends = np.asarray(train_edges)[:, :2]
    m = ends.shape[0]
    k = round(p_h * m)
    if k < 1:
        raise DegeneratePerturbationError(
            f"p_h={p_h} removes zero of {m} training edges"
        )
    rng = np.random.default_rng(seed)
    drawn = rng.choice(m, size=k, replace=False)
    removed = np.sort(ends[drawn], axis=1)
    removed = removed[np.lexsort((removed[:, 1], removed[:, 0]))]
    kept = np.ones(m, dtype=bool)
    kept[drawn] = False
    return PerturbationSample(retained=_frozen(ends[kept]), removed=_frozen(removed))


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


def _solve_in_place(gufunc, work: np.ndarray, failure: str) -> tuple:
    """Run a LAPACK gufunc on ``work`` and write its matrix result over ``work``.

    ``gufunc`` is ``_umath_linalg.eigh_lo`` or ``.inv``, from numpy's private
    module ``numpy.linalg._umath_linalg``: the gufuncs ``np.linalg.eigh`` and
    ``np.linalg.inv`` call. Unlike those two they take ``out=``, so no n x n
    output is allocated beside the input. The error state is theirs, and a
    failed solve raises ``NumericalError(failure)``. Returns the outputs, the
    last of which is ``work``.
    """
    def fail(err, flag):
        raise NumericalError(failure)

    out = (None,) * (gufunc.nout - 1) + (work,)
    with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return gufunc(work, out=out, signature="d->" + "d" * gufunc.nout)


def eigendecompose(matrix: np.ndarray, overwrite: bool = False) -> SpectralModel:
    """Full symmetric eigendecomposition, ordered by |eigenvalue| descending.

    Ties break by signed eigenvalue descending, then solver order. Each
    eigenvector is sign-fixed so its largest-magnitude component is positive,
    making downstream results independent of solver sign choices. Only the
    diagonal and the lower triangle are read, so entries above the diagonal
    may hold anything. With ``overwrite`` the solve writes over ``matrix``,
    which must be a writable float64 array and holds no useful values after;
    otherwise a float64 copy of it is solved.
    """
    work = matrix if overwrite else np.array(matrix, dtype=np.float64, order="K")
    lam, _ = _solve_in_place(_umath_linalg.eigh_lo, work,
                             "eigendecomposition failed: Eigenvalues did not converge")
    order = _magnitude_order(lam)
    lam = lam[order]
    # A new array in work's memory order: _pair_sum's bits depend on that order,
    # and a reorder in place (C order) moves averaged scores in the last ULPs.
    vec = work[:, order]
    work = None
    n = vec.shape[1]
    peak = np.empty(n, dtype=np.intp)
    for a in range(0, n, _PAIR_ROWS):  # by column blocks: no n x n |vec| is made
        peak[a : a + _PAIR_ROWS] = np.argmax(np.abs(vec[:, a : a + _PAIR_ROWS]), axis=0)
    signs = np.sign(vec[peak, np.arange(n)])
    signs[signs == 0] = 1.0
    vec *= signs
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
    the cost scales with the removed edge count, not with n^2. The rows are
    gathered ``_PAIR_ROWS`` at a time, so memory stays at that many rows of
    n, whatever the removed edge count.
    """
    removed = np.asarray(removed)
    if removed.size and (removed.min() < 0 or removed.max() >= model.n):
        raise ValueError(f"removed edge endpoint outside [0, {model.n})")
    X = model.eigenvectors
    corrections = np.zeros(X.shape[1])
    for start in range(0, removed.shape[0], _PAIR_ROWS):
        rows = removed[start : start + _PAIR_ROWS]
        # The running total goes into the first row, and one sum down axis 0
        # then adds the terms sequentially in edge order, as one einsum over
        # all rows would.
        terms = 2.0 * X[rows[:, 0]] * X[rows[:, 1]]
        terms[0] += corrections
        corrections = np.add.reduce(terms, axis=0)
    return SpectralModel(
        eigenvalues=model.eigenvalues,
        eigenvectors=model.eigenvectors,
        corrections=_frozen(corrections),
    )


def _pair_sum(vectors: np.ndarray, weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``sum_k weights[k] * vectors[i, k] * vectors[j, k]`` at each pair ``(i, j)`` of ``mask``.

    ``mask`` is an n x n boolean array, false below the diagonal. The pairs
    come back as one vector in row-major order, the order ``S[mask]`` reads.
    Row block ``a:b`` forms ``(X[a:b] * w) @ X[a:].T`` and hands over its own
    pairs, so no product below the diagonal and no n x n float array is made.
    """
    n = vectors.shape[0]
    start = np.r_[0, np.cumsum(np.count_nonzero(mask, axis=1))]
    out = np.empty(start[-1])
    for a in range(0, n, _PAIR_ROWS):
        b = min(a + _PAIR_ROWS, n)
        out[start[a] : start[b]] = ((vectors[a:b] * weights) @ vectors[a:].T)[mask[a:b, a:]]
    return out


def _leading_pairs(model: SpectralModel, m: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    # The leading m (or all) eigenvectors, a view, and their corrected eigenvalues.
    return model.eigenvectors[:, :m], (model.eigenvalues + model.corrections)[:m]


def spm_scores(model: SpectralModel, m: Optional[int] = None) -> np.ndarray:
    """The SPM score matrix S: corrected sum of the leading m eigenpairs, or of all.

    S is ``_pair_sum``'s upper triangle mirrored below the diagonal, so it is
    exactly symmetric, and its entries above the diagonal are bit for bit the
    candidate scores the experiment engine ranks.
    """
    if m is not None and not 1 <= m <= model.n:
        raise ValueError(f"m must be in [1, {model.n}], got {m}")
    upper = ~np.tri(model.n, k=-1, dtype=bool)  # on and above the diagonal
    pairs = _pair_sum(*_leading_pairs(model, m), upper)
    scores = np.empty((model.n, model.n))
    scores[upper] = pairs
    scores.T[upper] = pairs  # the mirror image, with no copy of S
    return _frozen(scores)


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
