"""In-splitting and sink deletion, with the induced maps on dimension groups.

In-splitting at v partitions the edges with range v into two sides; the
split graph doubles v and every edge with source v, and each other edge
with range v is redirected to the copy named by its side. The partition
must not separate edges admitting a common extension, so sides are unions
of pairing classes.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    CLIUsage,
    Edge,
    KGraph,
    KGraphError,
    Skeleton,
    _check_color,
    _check_vertex,
    unit_degree,
    validate_kgraph,
    vertex_matrix,
)
from .dimension import (
    DimElement,
    GeneratorMap,
    element_str,
    generator_map,
    generator_map_from_matrix,
    map_doc,
    unit_element,
)

if TYPE_CHECKING:
    from .intmat import Matrix


class IndivisibleVertex(KGraphError):
    pass


class InvalidPartition(KGraphError):
    pass


class NotASink(KGraphError):
    pass


class Partition(NamedTuple):
    vertex: str
    side1: tuple[str, ...]
    side2: tuple[str, ...]


class ParentMap(NamedTuple):
    """Projection of the split graph onto the original."""

    vertices: dict[str, str]
    edges: dict[str, str]


def _range_edges(g: KGraph, v: str) -> list[Edge]:
    # all edges with range v, in skeleton order
    return [e for e in g.edges if e.rng == v]


def pairing_closure(g: KGraph, v: str) -> list[tuple[str, ...]]:
    """Classes of the transitive closure of: e ~ f iff the one-edge paths
    at v admit a common extension. Class order and member order follow
    the skeleton.

    For color(e) < color(f) a common extension is a path e.h = f.g2, so
    e ~ f iff some square (e, h) -> (f, g2) is in the table."""
    _check_vertex(g, v)
    edges = _range_edges(g, v)
    parent = {e.id: e.id for e in edges}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        for j in range(e.color + 1, g.rank + 1):
            for h in g.in_edges[e.src][j]:
                f = g.squares[(e.id, h.id)][0]
                parent[find(f)] = find(e.id)

    classes: dict[str, list[str]] = {}
    order: list[str] = []
    for e in edges:
        root = find(e.id)
        if root not in classes:
            classes[root] = []
            order.append(root)
        classes[root].append(e.id)
    return [tuple(classes[root]) for root in order]


def _split_classes(g: KGraph, v: str) -> list[tuple[str, ...]]:
    # the pairing classes at v, at least two of them
    classes = pairing_closure(g, v)
    if len(classes) < 2:
        raise IndivisibleVertex(f"{v} has {len(classes)} pairing class(es); need at least 2")
    return classes


def _partition(v: str, classes: list[tuple[str, ...]], mask: int) -> Partition:
    # entry `mask` of enumerate_valid_partitions: class i + 1 goes to side 1
    # when bit i of mask is set; the first class is always on side 1
    side1, side2 = list(classes[0]), []
    for i, cls in enumerate(classes[1:]):
        (side1 if mask >> i & 1 else side2).extend(cls)
    return Partition(v, tuple(sorted(side1)), tuple(sorted(side2)))


def enumerate_valid_partitions(g: KGraph, v: str) -> list[Partition]:
    """All 2^(c-1) - 1 two-sided splits of the c pairing classes at v,
    with the first class pinned to side 1. Raises IndivisibleVertex when
    c < 2."""
    classes = _split_classes(g, v)
    return [_partition(v, classes, mask) for mask in range(2 ** (len(classes) - 1) - 1)]


def check_partition(g: KGraph, p: Partition) -> None:
    """Raise InvalidPartition unless p is a two-sided split of the edges
    with range p.vertex that keeps every pairing class on one side."""
    if not isinstance(p.vertex, str) or p.vertex not in g.vertex_index:
        raise InvalidPartition(f"unknown vertex {p.vertex!r}")
    s1, s2 = set(p.side1), set(p.side2)
    if not s1 or not s2:
        raise InvalidPartition("both sides must be nonempty")
    if len(s1) < len(p.side1) or len(s2) < len(p.side2):
        repeated = sorted({e for side in (p.side1, p.side2) for e, n in Counter(side).items() if n > 1})
        raise InvalidPartition(f"sides repeat edge ids: {repeated}")
    if s1 & s2:
        raise InvalidPartition(f"sides overlap: {sorted(s1 & s2)}")
    full = {e.id for e in _range_edges(g, p.vertex)}
    if s1 | s2 != full:
        off = (s1 | s2) ^ full
        raise InvalidPartition(f"sides must cover exactly the edges with range {p.vertex}: {sorted(off)}")
    for cls in pairing_closure(g, p.vertex):
        members = set(cls)
        if members & s1 and members & s2:
            raise InvalidPartition(f"pairing class {cls} is split across sides")


def insplit(g: KGraph, p: Partition) -> tuple[KGraph, ParentMap]:
    """The in-split graph and its projection back onto g.

    Offspring ids are '<v>^1', '<v>^2' for the vertex and '<e>^1', '<e>^2'
    for each edge with source v; squares lift uniquely, pinned by sources.
    """
    check_partition(g, p)
    v = p.vertex
    side = {eid: 1 for eid in p.side1} | {eid: 2 for eid in p.side2}
    v1, v2 = f"{v}^1", f"{v}^2"
    taken = set(g.vertices) | {e.id for e in g.edges}
    for fresh in (v1, v2):
        if fresh in taken:
            raise KGraphError(f"offspring id {fresh!r} collides with an existing id")

    vertices: list[str] = []
    vertex_parent: dict[str, str] = {}
    for w in g.vertices:
        if w == v:
            vertices.extend([v1, v2])
            vertex_parent[v1] = v
            vertex_parent[v2] = v
        else:
            vertices.append(w)
            vertex_parent[w] = w

    def new_range(e: Edge) -> str:
        # an edge with range v lands on the copy named by its side
        return f"{v}^{side[e.id]}" if e.rng == v else e.rng

    edges: list[Edge] = []
    edge_parent: dict[str, str] = {}
    offspring: dict[str, list[Edge]] = {}
    for e in g.edges:
        if e.src == v:
            for t in (1, 2):
                fresh = f"{e.id}^{t}"
                if fresh in taken:
                    raise KGraphError(f"offspring id {fresh!r} collides with an existing id")
                child = Edge(fresh, e.color, f"{v}^{t}", new_range(e))
                edges.append(child)
                edge_parent[fresh] = e.id
                offspring.setdefault(e.id, []).append(child)
        else:
            child = Edge(e.id, e.color, e.src, new_range(e))
            edges.append(child)
            edge_parent[e.id] = e.id
            offspring.setdefault(e.id, []).append(child)

    # lift each square: the new inner edge is the offspring whose source
    # matches, first g2 pinned by s(g2) = s(h), then h2 by s(h2) = r(g2)
    in_new: dict[tuple[str, int], list[Edge]] = {}
    for e in edges:
        in_new.setdefault((e.rng, e.color), []).append(e)
    squares: dict[tuple[str, str], tuple[str, str]] = {}
    for a in edges:
        for jc in range(a.color + 1, g.rank + 1):
            for b in in_new.get((a.src, jc), []):
                h2p, g2p = g.squares[(edge_parent[a.id], edge_parent[b.id])]
                (g2n,) = [e for e in offspring[g2p] if e.src == b.src]
                (h2n,) = [e for e in offspring[h2p] if e.src == g2n.rng]
                squares[(a.id, b.id)] = (h2n.id, g2n.id)

    split = validate_kgraph(
        Skeleton(g.rank, tuple(vertices), tuple(edges)), squares, strict=g.strict
    )
    return split, ParentMap(vertex_parent, edge_parent)


def _copy_rows(g: KGraph, p: Partition, j: int) -> dict[str, list[int]]:
    # row of each copy v^t over g's vertices: the color-j edges on side t,
    # counted by source; these are S's copy rows and psi's images
    _check_color(g.rank, j)
    rows = {}
    for t, side in ((1, p.side1), (2, p.side2)):
        row = [0] * len(g.vertices)
        for e in (g.by_id[eid] for eid in side):
            if e.color == j:
                row[g.vertex_index[e.src]] += 1
        rows[f"{p.vertex}^{t}"] = row
    return rows


def _projection(g: KGraph, split: KGraph, parents: ParentMap) -> Matrix:
    # R(u, w') = 1 iff w' projects to u
    r = [[0] * len(split.vertices) for _ in g.vertices]
    for jj, w in enumerate(split.vertices):
        r[g.vertex_index[parents.vertices[w]]][jj] = 1
    return r


def insplit_matrices(g: KGraph, p: Partition, j: int) -> tuple[Matrix, Matrix]:
    """(R, S) with R*S = A_{e_j}, S*R = B_{e_j}, A_{e_i}R = R B_{e_i} and
    B_{e_i}S = S A_{e_i} for every color i; A over g, B over the split graph.

    R(u, w') = 1 iff w' projects to u. S(v^i, w) counts the color-j edges
    on side i with source w; other rows of S copy A_{e_j}.
    """
    rows = _copy_rows(g, p, j)
    split, parents = insplit(g, p)
    a_j = vertex_matrix(g, unit_degree(g.rank, j))
    s = [rows[w] if w in rows else list(a_j[g.vertex_index[w]]) for w in split.vertices]
    return _projection(g, split, parents), s


# --------------------------------------------------------------- sink moves

def ei_sinks(g: KGraph, i: int) -> list[str]:
    """Vertices emitting no color-i edge."""
    _check_color(g.rank, i)
    return [v for v, ranges in zip(g.vertices, g.out_sources[i - 1]) if not ranges]


def sink_colors(g: KGraph, v: str) -> list[int]:
    _check_vertex(g, v)
    u = g.vertex_index[v]
    return [i for i, by_source in enumerate(g.out_sources, 1) if not by_source[u]]


def _reachable_from(g: KGraph, v: str) -> set[str]:
    # follow edges source -> range, by vertex index
    seen = {g.vertex_index[v]}
    frontier = list(seen)
    while frontier:
        u = frontier.pop()
        for by_source in g.out_sources:
            for w in by_source[u]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return {g.vertices[u] for u in seen}


def sink_delete(g: KGraph, v: str) -> KGraph:
    """Remove v, everything reachable from it, and all incident edges.
    v must emit no edge of some color; the result keeps every in-edge of
    each surviving vertex, so strictness is preserved."""
    if not sink_colors(g, v):
        raise NotASink(f"{v} emits edges of every color")
    dead = _reachable_from(g, v)
    vertices = tuple(w for w in g.vertices if w not in dead)
    if not vertices:
        raise KGraphError("sink deletion removes every vertex")
    edges = tuple(e for e in g.edges if e.src not in dead and e.rng not in dead)
    kept = {e.id for e in edges}
    squares = {
        key: val
        for key, val in g.squares.items()
        if key[0] in kept and key[1] in kept
    }
    return validate_kgraph(Skeleton(g.rank, vertices, edges), squares, strict=g.strict)


# ----------------------------------------------------------- generator maps

def insplit_maps(
    g: KGraph, p: Partition, j: int
) -> tuple[KGraph, ParentMap, GeneratorMap, GeneratorMap]:
    """The in-split graph, its parent map, phi and psi at color j, from
    one in-split.

    phi: g -> split graph is the map of R, v(0) -> v^1(0) + v^2(0), fixing
    other vertices. psi: split graph -> g is the inverse up to shift: each
    copy v^i(0) maps to the sum of s(f)(e_j) over the color-j edges f on
    side i, and every other vertex to itself.
    """
    rows = _copy_rows(g, p, j)
    split, parents = insplit(g, p)
    phi = generator_map_from_matrix(g, split, _projection(g, split, parents))
    e_j = unit_degree(g.rank, j)
    images = {w: DimElement(tuple(rows[w]), e_j) if w in rows else unit_element(g, w) for w in split.vertices}
    return split, parents, phi, generator_map(split, g, images)


def phi_insplit(g: KGraph, p: Partition) -> GeneratorMap:
    """g -> split graph: v(0) -> v^1(0) + v^2(0), fixing other vertices."""
    return insplit_maps(g, p, 1)[2]


def psi_insplit(g: KGraph, p: Partition, j: int) -> GeneratorMap:
    """split graph -> g, the inverse of phi_insplit up to shift by e_j."""
    return insplit_maps(g, p, j)[3]


def sink_delete_maps(g: KGraph, v: str) -> tuple[KGraph, GeneratorMap, dict[str, DimElement]]:
    """The graph left by deleting the sink v, its map phi into g on
    generators, w(0) -> w(0), and for each deleted vertex u an element of
    the cut graph's dimension group mapping to u(0): the relation at the
    sink color i rewrites u(0) as the sum of s(alpha)(e_i) over color-i
    edges into u, and every such source survives."""
    cut = sink_delete(g, v)
    phi = generator_map(cut, g, {w: unit_element(g, w) for w in cut.vertices})
    i = sink_colors(g, v)[0]
    witnesses: dict[str, DimElement] = {}
    for u in g.vertices:
        if u in cut.vertex_index:
            continue
        x = [0] * len(cut.vertices)
        for e in g.in_edges[u][i]:
            if e.src not in cut.vertex_index:
                raise KGraphError(f"source {e.src} of {e.id} was deleted; {v} is not an e_{i}-sink")
            x[cut.vertex_index[e.src]] += 1
        witnesses[u] = DimElement(tuple(x), unit_degree(g.rank, i))
    return cut, phi, witnesses


def phi_sink_delete(g: KGraph, v: str) -> GeneratorMap:
    """deleted graph -> g on generators, w(0) -> w(0)."""
    return sink_delete_maps(g, v)[1]


def sink_delete_witnesses(g: KGraph, v: str) -> dict[str, DimElement]:
    """For each deleted vertex u, an element of the cut graph's dimension
    group mapping to u(0); see sink_delete_maps."""
    return sink_delete_maps(g, v)[2]


# ------------------------------------------------------- command-line text

def choose_partition(g: KGraph, v: str, side1: str | None, index: int) -> Partition:
    """The partition at v that `kgraph insplit` names: side 1 as
    comma-separated edge ids (side 2 is the rest of v's in-edges), or else
    entry `index` of enumerate_valid_partitions, built on its own."""
    _check_vertex(g, v)
    if side1 is not None:
        ones = tuple(sorted(side1.split(",")))
        all_in = [e.id for i in range(1, g.rank + 1) for e in g.in_edges[v][i]]
        p = Partition(v, ones, tuple(sorted(set(all_in) - set(ones))))
        check_partition(g, p)
        return p
    classes = _split_classes(g, v)
    count = 2 ** (len(classes) - 1) - 1
    if not 0 <= index < count:
        raise CLIUsage(f"--partition {index} out of range: vertex has {count} valid partition(s)")
    return _partition(v, classes, index)


def insplit_sidecar(g: KGraph, p: Partition, j: int) -> tuple[KGraph, dict]:
    """The in-split graph and the sidecar document `kgraph insplit
    --sidecar` writes: the partition, the parent maps, and phi and psi at
    color j in element syntax."""
    split, parents, phi, psi = insplit_maps(g, p, j)
    return split, {
        "move": "insplit",
        "vertex": p.vertex,
        "side1": list(p.side1),
        "side2": list(p.side2),
        "parent_vertices": dict(sorted(parents.vertices.items())),
        "parent_edges": dict(sorted(parents.edges.items())),
        "phi": map_doc(phi),
        "psi": map_doc(psi),
    }


def sink_delete_sidecar(g: KGraph, v: str) -> tuple[KGraph, dict]:
    """The graph left by deleting the sink v and the sidecar document
    `kgraph sinkdelete --sidecar` writes: the deleted vertices, phi, and
    the witnesses in the cut graph, in element syntax."""
    cut, phi, witnesses = sink_delete_maps(g, v)
    return cut, {
        "move": "sinkdelete",
        "vertex": v,
        "deleted": sorted(set(g.vertices) - set(cut.vertices)),
        "phi": map_doc(phi),
        "witnesses": {u: element_str(cut, a) for u, a in sorted(witnesses.items())},
    }
