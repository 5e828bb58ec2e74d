"""Zeroth homology of the path groupoid of a k-graph.

The ungraded group is a finitely generated abelian group read off a sparse
elimination of its relations; the graded group has no finite canonical form
in general, so its surface is the presentation data and the rank invariant
here, plus the decision procedures of the dimension module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .core import KGraph, KGraphError, unit_degree, vertex_matrix
from .intmat import Matrix, cokernel_invariants, rank

if TYPE_CHECKING:
    from .constructions import MonoidHom

class NotStrict(KGraphError):
    pass


class NotSurjective(KGraphError):
    pass


class AbelianInvariants(NamedTuple):
    """A finitely generated abelian group Z^rank + Z/t1 + ... in canonical
    form: every torsion coefficient is > 1 and divides the next."""

    rank: int
    torsion: tuple[int, ...]


def _check_no_sources(g: KGraph) -> None:
    # The collapse relations v = sum of sources of v's color-i edges only
    # rewrite v when that edge set is nonempty, so every vertex must
    # receive every color: its row of in_sources is nonempty in each.
    for v, *by_color in zip(g.vertices, *g.in_sources):
        for i, srcs in enumerate(by_color, 1):
            if not srcs:
                raise NotStrict(f"vertex {v!r} receives no color-{i} edge")


def h0(g: KGraph) -> AbelianInvariants:
    """The abelian group Z.Lambda^0 modulo the subgroup generated by
    eps_v - sum_w A_{e_i}(v, w) eps_w over all vertices v and colors i.

    This is H0(G_Lambda) = coker(1 - A_1^t, ..., 1 - A_k^t) for row-finite
    k-graphs without sources (Farsi, Kumjian, Pask and Sims 2019, "Ample
    groupoids: equivalence, homology, and Matui's HK conjecture"). The k.d
    relations are built as sparse rows straight from KGraph.in_sources, and
    intmat.cokernel_invariants eliminates their +-1 pivots, least fill
    first, before a Smith normal form of what is left (Havas, Holt and
    Rees 1993, "Recognizing badly presented Z-modules").
    """
    _check_no_sources(g)
    d = len(g.vertices)
    rows: list[dict[int, int]] = []
    for by_range in g.in_sources:
        for v, srcs in enumerate(by_range):
            # row (i, v): eps_v minus the sources of v's color-i edges
            row = {v: 1}
            for s in srcs:
                row[s] = row.get(s, 0) - 1
            rows.append(row)
    return AbelianInvariants(*cokernel_invariants(rows, d))


def h0_pullback_compare(g: KGraph, f: MonoidHom) -> bool:
    """Whether the ungraded zeroth homology of the pullback along a
    surjective hom f matches that of g. Expected true always; the check
    recomputes both sides independently."""
    from .constructions import hom_surjective, pullback

    if not hom_surjective(f):
        raise NotSurjective("pullback comparison needs a surjective hom")
    return h0(pullback(g, f)) == h0(g)


def rho_pullback_check(g: KGraph, f: MonoidHom) -> bool:
    """Verify the degree-collapsing map v(n) -> v(f(n)) from the graded
    group of pullback(g, f) to that of g: every defining relation of the
    pullback must land as a true identity in g's graded group.
    Surjectivity of f puts every target generator in the image, so a True
    return certifies a surjective group homomorphism."""
    from .constructions import hom_surjective, pullback
    from .dimension import _relations_hold, unit_element

    if not hom_surjective(f):
        raise NotSurjective("the collapsing map needs a surjective hom")
    pb = pullback(g, f)
    # v(0) = sum over alpha in v.pb^{e_a} of s(alpha)(e_a), e_a sent to f.images[a-1]
    return _relations_hold(pb, g, {v: unit_element(g, v) for v in pb.vertices}, f.images)


def h0gr_presentation(g: KGraph) -> tuple[tuple[Matrix, ...], int]:
    """Presentation data for the graded zeroth homology group: the k
    one-step vertex matrices (generators v(n), relations v(n) = sum of
    A_{e_i}-successors at n + e_i) together with the rank invariant.
    Element equality is dge_eq; no finite canonical form is returned
    because none exists in general."""
    mats = tuple(
        vertex_matrix(g, unit_degree(g.rank, i)) for i in range(1, g.rank + 1)
    )
    return mats, rank_invariant(g)


def rank_invariant(g: KGraph) -> int:
    """Rank over Q of P^d, P the product of the one-step matrices; P^d is
    built by pushing the identity rows (vertex_matrix), with no product."""
    d = len(g.vertices)
    return rank(vertex_matrix(g, (d,) * g.rank))
