"""Classical similarity indices used as comparison predictors.

Common Neighbors, Adamic-Adar, and Resource Allocation score a pair through
its shared neighbors; Katz accumulates damped walk counts of every length;
the superposed random walk sums degree-weighted transfer probabilities over
a short horizon. All five take the dense adjacency matrix and return a
read-only symmetric n x n score matrix, as the spectral methods do. Katz's
damping and path length and SRW's step count are plain arguments, each
range-checked here; an experiment takes them from ``ExperimentConfig``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericalError
from .graph import degrees
from .spectral import _PAIR_ROWS, _frozen, _solve_in_place

__all__ = [
    "cn_scores",
    "aa_scores",
    "ra_scores",
    "katz_scores",
    "srw_scores",
]


def _score_matrix(values: np.ndarray) -> np.ndarray:
    # (M + M.T) / 2 makes BLAS round-off exactly symmetric.
    return _frozen((values + values.T) / 2.0)


def cn_scores(a: np.ndarray) -> np.ndarray:
    """Number of common neighbors; equals the squared adjacency.

    For a 0/1 adjacency the counts are integers of at most n, which float32
    holds exactly, so the product is taken in float32 and is exactly
    symmetric. The adjacency is symmetric, so it is taken as ``A @ A.T``,
    which numpy hands to the symmetric rank-k update (SYRK) of one buffer.
    """
    a32 = a.astype(np.float32)
    return _frozen((a32 @ a32.T).astype(np.float64))


def _weighted_common_neighbors(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return _score_matrix((a * weights) @ a)


def aa_scores(a: np.ndarray) -> np.ndarray:
    """Common neighbors weighted by the reciprocal log of their degree.

    Natural log. Degree-0/1 nodes get weight 0; they can never be a common
    neighbor of a distinct pair, and zeroing keeps the matrix finite.
    """
    k = degrees(a).astype(np.float64)
    weights = np.zeros(len(a))
    safe = k >= 2
    weights[safe] = 1.0 / np.log(k[safe])
    return _weighted_common_neighbors(a, weights)


def ra_scores(a: np.ndarray) -> np.ndarray:
    """Common neighbors weighted by the reciprocal of their degree."""
    k = degrees(a).astype(np.float64)
    weights = np.zeros(len(a))
    safe = k >= 1
    weights[safe] = 1.0 / k[safe]
    return _weighted_common_neighbors(a, weights)


def max_eigenvalue(a: np.ndarray) -> float:
    """Largest adjacency eigenvalue, the Katz convergence bound."""
    return float(np.linalg.eigvalsh(a)[-1])


def katz_scores(
    a: np.ndarray,
    damping: Optional[float] = None,
    max_path_length: Optional[int] = None,
    lam_max: Optional[float] = None,
) -> np.ndarray:
    """Damped count of walks of every length between each pair.

    ``damping`` must stay below the reciprocal of the largest adjacency
    eigenvalue for the walk series to converge; None means half that bound
    (0.1 when the largest eigenvalue is not positive). ``lam_max`` is that
    eigenvalue when the caller already has it; None computes it with
    :func:`max_eigenvalue`. Closed form
    ``(I - damping * A)^-1 - I`` by default; with ``max_path_length`` set,
    the explicit series over walk lengths ``1..max_path_length`` instead.

    Raises:
        ValueError: ``damping`` not positive or ``max_path_length`` below 1.
        NumericalError: damping at or beyond the convergence bound, or a
            singular linear system.
    """
    if damping is not None and damping <= 0:
        raise ValueError(f"damping must be positive, got {damping}")
    if max_path_length is not None and max_path_length < 1:
        raise ValueError(f"max_path_length must be >= 1, got {max_path_length}")
    if lam_max is None:
        lam_max = max_eigenvalue(a)
    if damping is None:
        damping = 0.5 / lam_max if lam_max > 0 else 0.1
    if lam_max > 0 and damping >= 1.0 / lam_max:
        raise NumericalError(
            f"damping {damping} >= 1/lambda_max = {1.0 / lam_max:.6g}, series diverges"
        )
    if max_path_length is not None:
        damped = damping * a
        total = np.zeros_like(a)
        power = np.eye(len(a))
        for _ in range(max_path_length):
            power = power @ damped
            total += power
        return _score_matrix(total)
    # I - damping * A, built as 0 - damping * A plus 1 on the diagonal so that
    # every zero stays +0, as in the subtraction from the identity.
    system = damping * a
    np.subtract(0.0, system, out=system)
    system.flat[:: len(a) + 1] += 1.0
    # Inverted in place: system becomes its inverse.
    _solve_in_place(_umath_linalg.inv, system, "Katz linear system is singular: Singular matrix")
    system.flat[:: len(a) + 1] -= 1.0
    return _score_matrix(system)


def srw_scores(a: np.ndarray, steps: int) -> np.ndarray:
    """Superposed random walk over ``steps`` >= 1 steps.

    With row-stochastic transition matrix P and stationary weights
    ``q_x = k_x / 2|E|``, accumulates ``q_x P^tau[x, y] + q_y P^tau[y, x]``
    for tau = 1..steps. Zero-degree nodes contribute zero rows: no walk
    leaves an isolated node.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    k = degrees(a).astype(np.float64)
    two_e = k.sum()
    if two_e == 0:
        return _frozen(np.zeros_like(a))
    q = k / two_e
    transition = np.divide(
        a, k[:, None], out=np.zeros_like(a), where=k[:, None] > 0
    )
    # Two walk buffers: ``free`` takes each step's weighted walk, then the next
    # walk, while ``walk`` still holds the last one.
    walk, free = transition, np.empty_like(a)
    total = np.zeros_like(a)
    for step in range(steps):
        if step == 1:  # the first product may not overwrite ``transition``
            walk = walk @ transition
        elif step:
            np.matmul(walk, transition, out=free)
            walk, free = free, walk
        np.multiply(q[:, None], walk, out=free)
        # W + W.T in place, by row blocks: each entry is one sum W[i, j] + W[j, i],
        # so the result is symmetric entry by entry, as a full W + W.T is.
        for lo in range(0, len(a), _PAIR_ROWS):
            hi = lo + _PAIR_ROWS
            pair = free[lo:hi, lo:] + free[lo:, lo:hi].T
            free[lo:hi, lo:] = pair
            free[lo:, lo:hi] = pair.T
            del pair  # before the next block's is allocated
        total += free
    return _frozen(total)
