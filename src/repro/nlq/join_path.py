"""Join-path discovery over the ontology's relational bindings.

The NLQ service must connect the tables of the concepts mentioned in a
query.  Every object property contributes its bound equi-join steps, and
every isA edge contributes a primary-key-to-primary-key step (a child
concept's rows are identified by parent keys).  A shortest path over the
resulting table graph yields the JOIN chain.
"""

from __future__ import annotations

from repro.errors import JoinPathError
from repro.kb.database import Database
from repro.ontology.model import JoinStep, Ontology

#: Undirected table graph: ``graph[a][b] is graph[b][a]`` is the join
#: step between tables ``a`` and ``b`` (lower-cased names), oriented
#: left→right as stored.  Both levels keep insertion order.
TableGraph = dict[str, dict[str, JoinStep]]


def table_join_graph(
    ontology: Ontology, database: Database | None = None
) -> TableGraph:
    """Build the undirected table graph of the ontology's join steps.

    Concept tables come first, then the tables each edge adds, in edge
    order; an edge seen again replaces its step but keeps its place.
    """
    graph: TableGraph = {}

    def add_edge(step: JoinStep) -> None:
        left, right = step.left_table.lower(), step.right_table.lower()
        graph.setdefault(left, {})
        graph.setdefault(right, {})
        graph[left][right] = graph[right][left] = step

    for concept in ontology.concepts():
        if concept.table:
            graph.setdefault(concept.table.lower(), {})
    for prop in ontology.object_properties():
        for step in prop.join_path:
            add_edge(step)
    # isA edges: child PK == parent PK (requires schema access for PK names).
    if database is not None:
        for child_name, parent_name in ontology.isa_edges():
            child = ontology.concept(child_name)
            parent = ontology.concept(parent_name)
            if not child.table or not parent.table:
                continue
            if not database.has_table(child.table) or not database.has_table(
                parent.table
            ):
                continue
            child_pk = database.table(child.table).schema.primary_key
            parent_pk = database.table(parent.table).schema.primary_key
            if child_pk is None or parent_pk is None:
                continue
            add_edge(JoinStep(child.table, child_pk, parent.table, parent_pk))
    return graph


def _shortest_node_path(
    graph: TableGraph, source: str, target: str
) -> list[str] | None:
    """Tables on a shortest walk from ``source`` to ``target``, or None.

    A bidirectional BFS: each round expands the smaller frontier (the
    forward one on ties), each table's neighbours in adjacency order,
    and stops at the first table both searches have reached.  These are
    the rules of networkx's ``bidirectional_shortest_path``, so among
    several shortest walks it picks the one ``nx.shortest_path`` does.
    """
    fringes = [[source], [target]]
    # reached[0]: table -> its predecessor towards source;
    # reached[1]: table -> its successor towards target.
    reached: list[dict[str, str | None]] = [{source: None}, {target: None}]
    while fringes[0] and fringes[1]:
        side = 0 if len(fringes[0]) <= len(fringes[1]) else 1
        level, fringes[side] = fringes[side], []
        mine, other = reached[side], reached[1 - side]
        for table in level:
            for neighbour in graph[table]:
                if neighbour not in mine:
                    mine[neighbour] = table
                    fringes[side].append(neighbour)
                if neighbour in other:
                    return _walk(reached, neighbour)
    return None


def _walk(reached: list[dict[str, str | None]], meet: str) -> list[str]:
    """The source→target walk through ``meet`` that the searches recorded."""
    path: list[str] = []
    node: str | None = meet
    while node is not None:
        path.append(node)
        node = reached[0][node]
    path.reverse()
    node = reached[1][meet]
    while node is not None:
        path.append(node)
        node = reached[1][node]
    return path


def find_join_path(
    ontology: Ontology,
    from_table: str,
    to_table: str,
    database: Database | None = None,
    graph: TableGraph | None = None,
) -> list[JoinStep]:
    """Shortest chain of join steps from ``from_table`` to ``to_table``.

    Steps are oriented along the walk (each step's ``left_table`` is the
    table already reached).  Returns an empty list when source and target
    are the same table.  Raises :class:`JoinPathError` when no path exists.
    """
    graph = graph if graph is not None else table_join_graph(ontology, database)
    src = from_table.lower()
    dst = to_table.lower()
    if src == dst:
        return []
    if src not in graph or dst not in graph:
        raise JoinPathError(
            f"no join path: table {from_table!r} or {to_table!r} is not bound "
            "in the ontology"
        )
    node_path = _shortest_node_path(graph, src, dst)
    if node_path is None:
        raise JoinPathError(
            f"no join path between {from_table!r} and {to_table!r}"
        )
    steps: list[JoinStep] = []
    for left, right in zip(node_path, node_path[1:]):
        step = graph[left][right]
        if step.left_table.lower() != left:
            step = step.reversed()
        steps.append(step)
    return steps
