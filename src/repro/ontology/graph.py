"""Graph views of an ontology and centrality analysis.

§4.2.1: "To determine these key concepts, we run a centrality analysis of
the ontology graph, and rank the concepts according to a centrality
score."  The graph here treats every concept as a node and every
object-property / isA / unionOf edge as an (undirected, for centrality
purposes) connection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.ontology.model import Ontology

if TYPE_CHECKING:
    import networkx as nx


def _relationships(ontology: Ontology) -> Iterator[tuple[str, str, dict[str, str]]]:
    """Every relationship as ``(source, target, attributes)`` concept
    names: object properties, then isA (child, parent), then unionOf
    (member, parent)."""
    for prop in ontology.object_properties():
        yield (
            ontology.concept(prop.source).name,
            ontology.concept(prop.target).name,
            {"kind": "object_property", "name": prop.name},
        )
    for child, parent in ontology.isa_edges():
        yield child, parent, {"kind": "isa"}
    for member, parent in ontology.union_edges():
        yield member, parent, {"kind": "union"}


def ontology_graph(ontology: Ontology) -> nx.MultiDiGraph:
    """Build a directed multigraph: nodes = concepts, edges = relationships.

    Edge attribute ``kind`` is one of ``"object_property"``, ``"isa"`` or
    ``"union"``; object-property edges also carry ``name``.  networkx is
    imported here, not at module level: serving processes only need the
    degree scores and neighbourhoods, which read the edge lists.
    """
    import networkx as nx

    graph = nx.MultiDiGraph(name=ontology.name)
    for concept in ontology.concepts():
        graph.add_node(
            concept.name,
            n_properties=len(concept.data_properties),
            table=concept.table,
        )
    for source, target, attributes in _relationships(ontology):
        graph.add_edge(source, target, **attributes)
    return graph


def centrality_scores(
    ontology: Ontology, method: str = "degree"
) -> dict[str, float]:
    """Centrality score per concept name.

    ``method`` selects the measure:

    * ``"degree"`` — degree centrality over the undirected view (default;
      key concepts are the hubs with many attached relationships),
    * ``"pagerank"`` — PageRank over the undirected view,
    * ``"betweenness"`` — betweenness centrality.
    """
    if method == "degree":
        # Count parallel relationships: the multigraph degree, normalized.
        totals = {concept.name: 0.0 for concept in ontology.concepts()}
        for source, target, _ in _relationships(ontology):
            totals[source] += 1.0
            totals[target] += 1.0
        n = max(len(totals) - 1, 1)
        return {name: total / n for name, total in totals.items()}
    if method not in ("pagerank", "betweenness"):
        raise ValueError(f"unknown centrality method: {method!r}")
    import networkx as nx

    graph = ontology_graph(ontology)
    undirected = nx.Graph()
    undirected.add_nodes_from(graph.nodes)
    undirected.add_edges_from((u, v) for u, v, _ in graph.edges(keys=True))
    if method == "pagerank":
        if undirected.number_of_edges() == 0:
            return {node: 1.0 / max(len(undirected), 1) for node in undirected}
        return dict(nx.pagerank(undirected))
    return dict(nx.betweenness_centrality(undirected))


def neighbors(ontology: Ontology, concept: str) -> list[str]:
    """Concept names in the immediate (undirected) neighborhood of ``concept``:
    targets of its outgoing relationships, then sources of its incoming
    ones, each once, in edge order."""
    name = ontology.concept(concept).name
    edges = [(source, target) for source, target, _ in _relationships(ontology)]
    out = dict.fromkeys(
        [target for source, target in edges if source == name]
        + [source for source, target in edges if target == name]
    )
    out.pop(name, None)
    return list(out)
