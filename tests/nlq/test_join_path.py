"""Tests for join-path discovery."""

import random

import networkx as nx
import pytest

from repro.errors import JoinPathError
from repro.nlq.join_path import (
    _shortest_node_path,
    find_join_path,
    table_join_graph,
)
from repro.ontology import OntologyBuilder
from repro.ontology.model import JoinStep


def _edge_count(graph) -> int:
    return len({frozenset((a, b)) for a in graph for b in graph[a]})


class TestTableJoinGraph:
    def test_tables_are_nodes(self, toy_ontology, toy_db):
        graph = table_join_graph(toy_ontology, toy_db)
        assert "drug" in graph
        assert "treats" in graph  # junctions appear as nodes on paths

    def test_edges_carry_steps(self, toy_ontology, toy_db):
        graph = table_join_graph(toy_ontology, toy_db)
        step = graph["precaution"]["drug"]
        assert {step.left_table, step.right_table} == {"precaution", "drug"}

    def test_isa_edges_need_database(self, toy_ontology):
        without_db = table_join_graph(toy_ontology)
        with_db = table_join_graph(toy_ontology, None)
        assert _edge_count(without_db) == _edge_count(with_db)


class TestFindJoinPath:
    def test_direct_fk_path(self, toy_ontology, toy_db):
        path = find_join_path(toy_ontology, "precaution", "drug", toy_db)
        assert len(path) == 1
        assert path[0].left_table == "precaution"
        assert path[0].right_table == "drug"

    def test_path_orientation_follows_walk(self, toy_ontology, toy_db):
        path = find_join_path(toy_ontology, "drug", "precaution", toy_db)
        assert path[0].left_table == "drug"

    def test_junction_path(self, toy_ontology, toy_db):
        path = find_join_path(toy_ontology, "drug", "indication", toy_db)
        assert len(path) == 2
        assert path[0].left_table == "drug"
        assert path[-1].right_table == "indication"
        # consecutive steps chain
        assert path[0].right_table == path[1].left_table

    def test_isa_path(self, toy_ontology, toy_db):
        path = find_join_path(toy_ontology, "contra_indication", "drug", toy_db)
        tables = [path[0].left_table] + [s.right_table for s in path]
        assert tables == ["contra_indication", "risk", "drug"]

    def test_same_table_is_empty_path(self, toy_ontology, toy_db):
        assert find_join_path(toy_ontology, "drug", "DRUG", toy_db) == []

    def test_unknown_table_rejected(self, toy_ontology, toy_db):
        with pytest.raises(JoinPathError):
            find_join_path(toy_ontology, "drug", "ghost", toy_db)

    def test_disconnected_tables_rejected(self, toy_db):
        onto = (
            OntologyBuilder()
            .concept("A", table="drug")
            .concept("B", table="indication")
            .build()
        )
        # No object properties: the tables are disconnected.
        with pytest.raises(JoinPathError):
            find_join_path(onto, "drug", "indication", toy_db)

    def test_precomputed_graph_reused(self, toy_ontology, toy_db):
        graph = table_join_graph(toy_ontology, toy_db)
        path = find_join_path(
            toy_ontology, "drug", "indication", toy_db, graph=graph
        )
        assert len(path) == 2


def _networkx_join_graph(ontology, database=None) -> nx.Graph:
    """The table graph as an ``nx.Graph``, under the same rules as
    ``table_join_graph``: the reference the BFS is compared with."""
    graph = nx.Graph()
    for concept in ontology.concepts():
        if concept.table:
            graph.add_node(concept.table.lower())
    for prop in ontology.object_properties():
        for step in prop.join_path:
            graph.add_edge(
                step.left_table.lower(), step.right_table.lower(), step=step
            )
    if database is not None:
        for child_name, parent_name in ontology.isa_edges():
            child = ontology.concept(child_name)
            parent = ontology.concept(parent_name)
            if not (child.table and parent.table):
                continue
            if not (database.has_table(child.table)
                    and database.has_table(parent.table)):
                continue
            child_pk = database.table(child.table).schema.primary_key
            parent_pk = database.table(parent.table).schema.primary_key
            if child_pk is None or parent_pk is None:
                continue
            graph.add_edge(
                child.table.lower(), parent.table.lower(),
                step=JoinStep(child.table, child_pk, parent.table, parent_pk),
            )
    return graph


class TestMatchesNetworkx:
    """Among several shortest walks, the BFS picks networkx's."""

    @pytest.fixture(params=["toy", "mdx"])
    def ontology_and_db(self, request):
        if request.param == "toy":
            return (request.getfixturevalue("toy_ontology"),
                    request.getfixturevalue("toy_db"))
        agent = request.getfixturevalue("mdx_agent")
        return agent.space.ontology, agent.database

    @pytest.mark.parametrize("with_db", [True, False], ids=["db", "no_db"])
    def test_every_pair_takes_the_networkx_path(self, ontology_and_db, with_db):
        ontology, database = ontology_and_db
        database = database if with_db else None
        reference = _networkx_join_graph(ontology, database)
        graph = table_join_graph(ontology, database)
        assert list(graph) == list(reference)
        assert all(list(graph[n]) == list(reference[n]) for n in graph)
        multi_hop = 0
        for src in graph:
            for dst in graph:
                if src == dst:
                    continue
                try:
                    expected = nx.shortest_path(reference, src, dst)
                except nx.NetworkXNoPath:
                    with pytest.raises(JoinPathError):
                        find_join_path(ontology, src, dst, graph=graph)
                    continue
                steps = find_join_path(ontology, src, dst, graph=graph)
                tables = [steps[0].left_table.lower()] + [
                    step.right_table.lower() for step in steps
                ]
                assert tables == expected, (src, dst)
                for step, (left, right) in zip(steps, zip(expected, expected[1:])):
                    stored = reference.edges[left, right]["step"]
                    assert step in (stored, stored.reversed())
                multi_hop += len(steps) > 2
        assert multi_hop > 0

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs_break_ties_like_networkx(self, seed):
        # Dense small graphs have many equal-length walks, including the
        # ones where expanding the reverse frontier first on a tie, or
        # neighbours in another order, would meet at another table.
        rng = random.Random(seed)
        nodes = [f"t{i}" for i in range(rng.randint(4, 12))]
        reference = nx.Graph()
        reference.add_nodes_from(nodes)
        graph = {node: {} for node in nodes}
        for _ in range(rng.randint(len(nodes), 3 * len(nodes))):
            a, b = rng.choice(nodes), rng.choice(nodes)
            reference.add_edge(a, b)
            graph[a][b] = graph[b][a] = JoinStep(a, "id", b, "id")
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                try:
                    expected = nx.shortest_path(reference, src, dst)
                except nx.NetworkXNoPath:
                    expected = None
                assert _shortest_node_path(graph, src, dst) == expected
