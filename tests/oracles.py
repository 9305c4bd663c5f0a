"""Brute-force reference implementations, kept independent of the library's
linear-algebra code paths on purpose."""

from collections import defaultdict

import numpy as np

from pbspm.errors import EmptyGraphError
from pbspm.graph import RawEvent, TemporalEventStream, TemporalGraph


def neighbor_sets(view):
    return [set(np.nonzero(view.matrix[i])[0]) for i in range(view.n)]


def katz_walk_oracle(view, x, y, damping, max_len=30):
    """Damped walk counts via adjacency-list dynamic programming (exact ints)."""
    nbrs = neighbor_sets(view)
    counts = {x: 1}
    total = 0.0
    for length in range(1, max_len + 1):
        nxt = defaultdict(int)
        for node, c in counts.items():
            for nb in nbrs[node]:
                nxt[nb] += c
        counts = nxt
        total += damping**length * counts.get(y, 0)
    return total


def srw_walk_oracle(view, t):
    """Step-by-step walk probabilities in pure Python lists."""
    n = view.n
    a = view.matrix.tolist()
    k = [sum(row) for row in a]
    two_e = sum(k)
    q = [kx / two_e for kx in k]
    p = [[(a[x][y] / k[x] if k[x] else 0.0) for y in range(n)] for x in range(n)]
    pi = [row[:] for row in p]
    s = [[0.0] * n for _ in range(n)]
    for _ in range(t):
        for x in range(n):
            for y in range(n):
                s[x][y] += q[x] * pi[x][y] + q[y] * pi[y][x]
        pi = [
            [sum(pi[x][z] * p[z][y] for z in range(n)) for y in range(n)]
            for x in range(n)
        ]
    return np.array(s)


def greedy_simplify_oracle(stream: TemporalEventStream) -> TemporalGraph:
    """The original quadratic ``simplify``: before every emit it rescans the
    whole equal-timestamp group for the smallest prospective key.

    Reduce an event stream to a simple graph with per-edge timestamps.

    Self-loops are dropped. For every unordered pair only the first contact
    survives (smallest timestamp, file order breaking ties) and the edge
    carries that timestamp. Node ids are dense, assigned by first appearance
    along the final (t, u, v) edge order; anchoring the assignment to that
    order (rather than raw file order) makes simplify a one-step fixed point
    under re-serialization.

    Raises:
        EmptyGraphError: every event was a self-loop.
    """
    best: dict[tuple[str, str], tuple[int, int]] = {}
    for idx, ev in enumerate(stream.events):
        if ev.source == ev.target:
            continue
        key = (ev.source, ev.target) if ev.source < ev.target else (ev.target, ev.source)
        candidate = (ev.timestamp, idx)
        if key not in best or candidate < best[key]:
            best[key] = candidate
    if not best:
        raise EmptyGraphError("no edges remain after dropping self-loops")

    by_time: dict[int, list[int]] = {}
    for ts, idx in best.values():
        by_time.setdefault(ts, []).append(idx)

    node_id: dict[str, int] = {}
    labels: list[str] = []

    def assign(label: str) -> int:
        if label not in node_id:
            node_id[label] = len(labels)
            labels.append(label)
        return node_id[label]

    def prospective_key(ev: RawEvent) -> tuple[int, int]:
        # Unassigned endpoints would take the next free ids, source first.
        next_free = len(labels)
        u = node_id.get(ev.source)
        v = node_id.get(ev.target)
        if u is None:
            u = next_free
            next_free += 1
        if v is None:
            v = next_free
        return (u, v) if u < v else (v, u)

    rows = np.empty((len(best), 3), dtype=np.int64)
    row = 0
    for ts in sorted(by_time):
        # Greedily emit the edge that sorts first under the ids it would
        # receive; ties (e.g. several all-new edges) fall back to file order.
        group = sorted(by_time[ts])
        while group:
            pick = min(range(len(group)), key=lambda g: (prospective_key(stream.events[group[g]]), g))
            ev = stream.events[group.pop(pick)]
            u, v = assign(ev.source), assign(ev.target)
            if u > v:
                u, v = v, u
            rows[row] = (u, v, ts)
            row += 1

    rows.setflags(write=False)
    return TemporalGraph(labels=tuple(labels), edges=rows, node_id=node_id)
