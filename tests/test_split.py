"""Temporal splitting and popularity vs. brute force."""

import numpy as np
import pytest

from pbspm.errors import DegenerateSplitError
from pbspm.graph import simplify
from pbspm.split import popularity, split_train_probe

from conftest import random_event_stream, tsv_stream


def graph_from_pairs(pairs):
    return simplify(tsv_stream(pairs))


@pytest.fixture()
def ten_edge_graph():
    # Probe edge (d, x) reuses endpoints already seen in training.
    pairs = [
        ("c", "a", 1), ("c", "b", 2), ("c", "d", 3), ("x", "y", 4),
        ("x", "z", 5), ("y", "z", 6), ("a", "b", 7), ("a", "d", 8),
        ("b", "d", 9), ("d", "x", 10),
    ]
    return graph_from_pairs(pairs)


@pytest.fixture()
def hub_graph():
    # Node c holds 4 of the 10 edges; node e only the final one.
    pairs = [
        ("c", "a", 1), ("c", "b", 2), ("c", "d", 3), ("x", "y", 4),
        ("x", "z", 5), ("y", "z", 6), ("a", "b", 7), ("a", "d", 8),
        ("b", "d", 9), ("c", "e", 10),
    ]
    return graph_from_pairs(pairs)


def random_temporal_graph(rng, min_edges=10):
    while True:
        stream = random_event_stream(rng, n_labels=12, n_events=60, loop_rate=0.05)
        graph = simplify(stream)
        if graph.m_edges >= min_edges:
            return graph


class TestSplitConfig:
    def test_bounds_enforced(self, ten_edge_graph):
        with pytest.raises(ValueError):
            split_train_probe(ten_edge_graph, 1.0)


class TestSplitTrainProbe:
    def test_ten_edges_split_nine_one(self, ten_edge_graph):
        split = split_train_probe(ten_edge_graph, 0.10)
        assert len(split.train) == 9
        assert len(split.probe) + split.probe_dropped == 1

    def test_empty_side_is_degenerate(self, ten_edge_graph):
        with pytest.raises(DegenerateSplitError, match="leaves an empty side"):
            split_train_probe(ten_edge_graph, 0.99)

    def test_too_few_edges(self):
        graph = graph_from_pairs([("a", "b", 1), ("b", "c", 2), ("c", "d", 3),
                                  ("d", "e", 4), ("e", "f", 5), ("f", "a", 6),
                                  ("a", "c", 7), ("b", "d", 8), ("c", "e", 9)])
        with pytest.raises(DegenerateSplitError):
            split_train_probe(graph, 0.10)

    def test_probe_with_unseen_endpoints_is_degenerate(self):
        pairs = [("a", "b", 1), ("a", "c", 2), ("b", "c", 3), ("a", "d", 4),
                 ("b", "d", 5), ("c", "d", 6), ("a", "e", 7), ("b", "e", 8),
                 ("c", "e", 9), ("ghost1", "ghost2", 10)]
        graph = graph_from_pairs(pairs)
        with pytest.raises(DegenerateSplitError) as exc:
            split_train_probe(graph, 0.10)
        assert "1 dropped" in str(exc.value)

    def test_partially_unseen_probe_pairs_are_counted(self):
        nodes = "abcdef"
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
        pairs += [("a", "g"), ("b", "g"), ("c", "g")]
        timed = [(a, b, t) for t, (a, b) in enumerate(pairs, start=1)]
        timed += [("d", "g", 19), ("a", "ghost", 20)]
        graph = graph_from_pairs(timed)
        split = split_train_probe(graph, 0.10)
        assert len(split.train) == 18
        d, g = graph.labels.index("d"), graph.labels.index("g")
        assert split.probe.tolist() == [sorted((d, g))]
        assert split.probe_dropped == 1
        assert split.probe_total == 2

    def test_train_before_probe_in_time(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            graph = random_temporal_graph(rng)
            split = split_train_probe(graph, 0.10)
            train_max = split.train[:, 2].max()
            probe_ts = graph.edges[len(split.train) :, 2]
            assert train_max <= probe_ts.min()

    def test_train_and_probe_are_pair_disjoint(self):
        rng = np.random.default_rng(37)
        graph = random_temporal_graph(rng)
        split = split_train_probe(graph, 0.10)
        train_pairs = {(int(u), int(v)) for u, v, _ in split.train}
        assert not train_pairs & {(int(u), int(v)) for u, v in split.probe}

    def test_deterministic(self, ten_edge_graph):
        a = split_train_probe(ten_edge_graph, 0.10)
        b = split_train_probe(ten_edge_graph, 0.10)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.probe, b.probe)
        assert a.probe_dropped == b.probe_dropped

    def test_rows_are_graph_rows(self):
        rng = np.random.default_rng(41)
        for pf in (0.1, 0.3):
            graph = random_temporal_graph(rng)
            m = graph.m_edges
            split = split_train_probe(graph, pf)
            n_train = round((1 - pf) * m)
            assert np.shares_memory(split.train, graph.edges)
            assert np.array_equal(split.train, graph.edges[:n_train])
            assert not split.train.flags.writeable and not split.probe.flags.writeable
            seen = set(graph.edges[:n_train, :2].ravel().tolist())
            later = [[u, v] for u, v, _ in graph.edges[n_train:].tolist()]
            assert split.probe.tolist() == [[u, v] for u, v in later if {u, v} <= seen]


class TestPopularity:
    def test_quarter_fresh(self, hub_graph):
        # Node c holds 4 of the 10 training edges; only the last is fresh.
        pop = popularity(hub_graph.edges, hub_graph.n, p_fresher=0.1)
        assert pop[hub_graph.labels.index("c")] == pytest.approx(0.25)

    def test_fully_fresh_node_scores_one(self, hub_graph):
        # Node e only ever appears in the single fresh-segment edge.
        pop = popularity(hub_graph.edges, hub_graph.n, p_fresher=0.1)
        assert pop[hub_graph.labels.index("e")] == 1.0

    def test_zero_degree_node_scores_zero(self, hub_graph):
        pop = popularity(hub_graph.edges[:9], hub_graph.n, p_fresher=0.2)
        assert pop[hub_graph.labels.index("e")] == 0.0

    def test_bounds_and_fresh_degree_sum(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            graph = random_temporal_graph(rng)
            split = split_train_probe(graph, 0.10)
            pop = popularity(split.train, graph.n, 0.25)
            assert np.all(pop >= 0.0)
            assert np.all(pop <= 1.0)
            n_fresh = round(0.25 * len(split.train))
            fresh = split.train[len(split.train) - n_fresh :]
            k_fresh = np.bincount(
                np.concatenate([fresh[:, 0], fresh[:, 1]]), minlength=graph.n
            )
            assert k_fresh.sum() == 2 * n_fresh

    def test_matches_brute_force_ratio(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            graph = random_temporal_graph(rng)
            split = split_train_probe(graph, 0.10)
            pop = popularity(split.train, graph.n, 0.3)
            idx = list(range(len(split.train)))
            n_fresh = round(0.3 * len(idx))
            fresh_set = set(idx[len(idx) - n_fresh :])
            for node in range(graph.n):
                k_all = sum(1 for i in idx if node in graph.edges[i, :2])
                k_fresh = sum(1 for i in fresh_set if node in graph.edges[i, :2])
                expected = k_fresh / k_all if k_all else 0.0
                assert pop[node] == pytest.approx(expected, abs=1e-12)

    def test_p_fresher_bounds(self, hub_graph):
        with pytest.raises(ValueError):
            popularity(hub_graph.edges, hub_graph.n, p_fresher=1.0)

    def test_out_of_range_rows_rejected(self):
        # numpy would wrap an endpoint of -1 round to the last node.
        path = graph_from_pairs([("0", "1", 1), ("1", "2", 2), ("2", "3", 3), ("3", "4", 4)])
        for bad in (5, -1):
            rows = path.edges.copy()
            rows[1, 1] = bad
            with pytest.raises(ValueError, match=r"\[0, 5\)"):
                popularity(rows, path.n, 0.5)
        assert popularity(path.edges[:0], path.n, 0.5).tolist() == [0.0] * 5
        assert popularity(path.edges[2:], path.n, 0.5).tolist() == [0.0, 0.0, 0.0, 0.5, 1.0]
