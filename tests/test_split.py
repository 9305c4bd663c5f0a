"""Temporal splitting and popularity vs. brute force."""

import numpy as np
import pytest

from pbspm.errors import DegenerateSplitError
from pbspm.graph import RawEvent, TemporalEventStream, simplify
from pbspm.split import popularity, split_train_probe

from conftest import random_event_stream


def graph_from_pairs(pairs):
    events = tuple(RawEvent(a, b, t) for a, b, t in pairs)
    return simplify(TemporalEventStream.from_events(events))


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
        assert split.train.size == 9
        assert len(split.probe) + split.probe_dropped == 1

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
        assert split.train.size == 18
        assert split.probe == frozenset(
            {(graph.node_id["d"], graph.node_id["g"])}
        ) or split.probe == frozenset({(graph.node_id["g"], graph.node_id["d"])})
        assert split.probe_dropped == 1
        assert split.probe_total == 2

    def test_train_before_probe_in_time(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            graph = random_temporal_graph(rng)
            split = split_train_probe(graph, 0.10)
            train_max = graph.edges[split.train, 2].max()
            probe_ts = graph.edges[split.train.size :, 2]
            assert train_max <= probe_ts.min()

    def test_train_and_probe_are_pair_disjoint(self):
        rng = np.random.default_rng(37)
        graph = random_temporal_graph(rng)
        split = split_train_probe(graph, 0.10)
        train_pairs = {(int(u), int(v)) for u, v, _ in graph.edges[split.train]}
        assert not train_pairs & split.probe

    def test_deterministic(self, ten_edge_graph):
        a = split_train_probe(ten_edge_graph, 0.10)
        b = split_train_probe(ten_edge_graph, 0.10)
        assert np.array_equal(a.train, b.train)
        assert a.probe == b.probe
        assert a.probe_dropped == b.probe_dropped


class TestPopularity:
    def test_quarter_fresh(self, hub_graph):
        # Node c holds 4 of the 10 training edges; only the last is fresh.
        pop = popularity(hub_graph, range(10), p_fresher=0.1)
        assert pop[hub_graph.node_id["c"]] == pytest.approx(0.25)

    def test_fully_fresh_node_scores_one(self, hub_graph):
        # Node e only ever appears in the single fresh-segment edge.
        pop = popularity(hub_graph, range(10), p_fresher=0.1)
        assert pop[hub_graph.node_id["e"]] == 1.0

    def test_zero_degree_node_scores_zero(self, hub_graph):
        pop = popularity(hub_graph, range(9), p_fresher=0.2)
        assert pop[hub_graph.node_id["e"]] == 0.0

    def test_bounds_and_fresh_degree_sum(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            graph = random_temporal_graph(rng)
            split = split_train_probe(graph, 0.10)
            pop = popularity(graph, split.train, 0.25)
            assert np.all(pop >= 0.0)
            assert np.all(pop <= 1.0)
            n_fresh = round(0.25 * split.train.size)
            fresh = graph.edges[split.train[split.train.size - n_fresh :]]
            k_fresh = np.bincount(
                np.concatenate([fresh[:, 0], fresh[:, 1]]), minlength=graph.n
            )
            assert k_fresh.sum() == 2 * n_fresh

    def test_matches_brute_force_ratio(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            graph = random_temporal_graph(rng)
            split = split_train_probe(graph, 0.10)
            pop = popularity(graph, split.train, 0.3)
            idx = list(split.train)
            n_fresh = round(0.3 * len(idx))
            fresh_set = set(idx[len(idx) - n_fresh :])
            for node in range(graph.n):
                k_all = sum(1 for i in idx if node in graph.edges[i, :2])
                k_fresh = sum(1 for i in fresh_set if node in graph.edges[i, :2])
                expected = k_fresh / k_all if k_all else 0.0
                assert pop[node] == pytest.approx(expected, abs=1e-12)

    def test_p_fresher_bounds(self, hub_graph):
        with pytest.raises(ValueError):
            popularity(hub_graph, range(10), p_fresher=1.0)

    def test_mask_or_out_of_range_train_rejected(self):
        # A bool mask reads as the indices 0 and 1, and -1 wraps round to the
        # newest edge, which sorts first: [-1, 0] used to give [1, 1, 0, 0, 0].
        path = graph_from_pairs([("0", "1", 1), ("1", "2", 2), ("2", "3", 3), ("3", "4", 4)])
        for train in ([False, False, True, True], [-1, 0], [0, 4], [0.0, 1.0]):
            with pytest.raises(ValueError, match="train"):
                popularity(path, train, 0.5)
        assert popularity(path, [], 0.5).tolist() == [0.0] * 5
        assert popularity(path, [2, 3], 0.5).tolist() == [0.0, 0.0, 0.0, 0.5, 1.0]
