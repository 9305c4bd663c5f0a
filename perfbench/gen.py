"""Seeded synthetic contact streams for the benchmark workloads.

Node activity is Pareto(1.5) distributed, nodes sit in communities that most
contacts stay inside (so common-neighbour and spectral structure exists), and
a block of nodes joins only late in the window. The late block makes the
newest edges concentrate on recently active nodes, so popularity carries
real signal. Contact times are uniform over the window and rounded down to
the workload's timestamp resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class StreamSpec:
    """Shape of one generated contact stream."""

    n: int
    contacts: int
    span_s: int
    resolution_s: int
    communities: int
    p_in: float = 0.9
    late_fraction: float = 0.15
    late_start: float = 0.75


SPECS = {
    # UC-Irvine scale, 1-second stamps.
    "predict-large": StreamSpec(
        n=1900, contacts=60_000, span_s=60 * 86_400, resolution_s=1, communities=70
    ),
    # Infectious scale, 20-second stamps.
    "sweep-grid": StreamSpec(
        n=410, contacts=17_000, span_s=3 * 86_400, resolution_s=20, communities=24
    ),
    # One week of contacts among 274 nodes, bucketed to 4 hours. Contacts stay
    # in few communities so that about 8.7k of the 37k pairs become edges and
    # the baselines clearly beat chance.
    "ingest-coarse": StreamSpec(
        n=274, contacts=390_000, span_s=7 * 86_400, resolution_s=4 * 3_600, communities=6,
        p_in=0.99,
    ),
}


def _pick(rng: np.random.Generator, weights: np.ndarray, size: int) -> np.ndarray:
    cum = np.cumsum(weights)
    return np.searchsorted(cum, rng.random(size) * cum[-1], side="right")


def contacts(spec: StreamSpec, seed: int) -> np.ndarray:
    """``(contacts, 3)`` int64 rows ``(u, v, t)`` sorted by time; no self-loops."""
    rng = np.random.default_rng(seed)
    # Pareto(1.5) quantiles dealt out at random: the seed moves who is active,
    # not how heavy the tail is, so every seed costs about the same to run.
    activity = rng.permutation((1.0 - (np.arange(spec.n) + 0.5) / spec.n) ** (-1.0 / 1.5))
    community = rng.permutation(np.arange(spec.n) % spec.communities)
    # The late block takes evenly spaced activity ranks, for the same reason.
    late = np.zeros(spec.n, dtype=bool)
    late[np.argsort(activity)[:: round(1 / spec.late_fraction)]] = True

    times = np.sort(rng.integers(0, spec.span_s, spec.contacts))
    is_late_phase = times >= spec.late_start * spec.span_s
    u = np.empty(spec.contacts, dtype=np.int64)
    v = np.empty(spec.contacts, dtype=np.int64)
    for phase in (False, True):
        rows = np.nonzero(is_late_phase == phase)[0]
        # Late nodes are silent before they join and busy afterwards.
        weights = np.where(late, 3.0 * activity, activity) if phase else np.where(late, 0.0, activity)
        u[rows] = _pick(rng, weights, rows.size)
        v[rows] = _pick(rng, weights, rows.size)
        inside = rows[rng.random(rows.size) < spec.p_in]
        for c in range(spec.communities):
            members = np.nonzero(community == c)[0]
            sel = inside[community[u[inside]] == c]
            local = weights[members]
            if sel.size and local.sum() > 0:
                v[sel] = members[_pick(rng, local, sel.size)]
    keep = u != v
    t = times - times % spec.resolution_s
    return np.column_stack((u[keep], v[keep], t[keep]))


def write_stream(path: Path, rows: np.ndarray) -> None:
    """Write ``contacts`` rows as a ``source target timestamp`` TSV edge list."""
    text = "".join(f"{u}\t{v}\t{t}\n" for u, v, t in rows.tolist())
    path.write_text(text)


def stream_shape(rows: np.ndarray) -> dict:
    """n, distinct edges and the largest group of first contacts sharing a stamp."""
    lo = np.minimum(rows[:, 0], rows[:, 1])
    hi = np.maximum(rows[:, 0], rows[:, 1])
    keys = lo * (int(rows[:, :2].max()) + 1) + hi
    # Rows are time sorted, so the first occurrence of a key is its first contact.
    _, first = np.unique(keys, return_index=True)
    _, group_sizes = np.unique(rows[first, 2], return_counts=True)
    return {
        "n": int(np.unique(rows[:, :2]).size),
        "edges": int(first.size),
        "stamps": int(group_sizes.size),
        "largest_group": int(group_sizes.max()),
    }
