"""Link validation, chain/cycle templates, and counting identities."""

import itertools

import pytest

from transversals.errors import DivisibilityError, InvalidInput, StartEndMismatch, TooShort
from transversals.hypergraph import Hypergraph, complete_graph, induced
from transversals.links import (
    Link,
    build_chain_template,
    builtin_link,
    chain_windows,
    clique_link,
    close_cycle,
    cycle_counts,
    cycle_on,
    make_link,
    pillar_link,
    single_edge_link,
    triangle_link,
)

from testlib import chain_counts, is_chain


def test_single_edge_link_basics():
    link = single_edge_link(3, 2)
    assert (link.m, link.k, link.ell, link.step) == (3, 3, 2, 1)
    assert link.edges_per_link == 1
    assert link.edges_in_overlap == 0


def test_triangle_link_is_clique_3():
    t = triangle_link()
    c = clique_link(3)
    assert t.body.edges == c.body.edges and t.ell == c.ell


def test_make_link_rejects_mismatched_ends():
    # start window {0,1} carries an edge, end window {1,2} does not
    body = Hypergraph.from_edges(3, 2, [(0, 1), (0, 2)])
    with pytest.raises(StartEndMismatch):
        make_link(body, 2)


def test_make_link_rejects_ell_equal_to_m():
    # step m - ell would be 0, and no chain or cycle could advance
    with pytest.raises(InvalidInput):
        make_link(complete_graph(3), 3)


def test_link_constructor_validates():
    """`Link` itself checks l and the end windows, so a link built directly
    or read from JSON is as valid as one from `make_link`."""
    with pytest.raises(InvalidInput):
        Link(complete_graph(3), 3)
    with pytest.raises(InvalidInput):
        Link(complete_graph(3), 0)
    mismatched = Hypergraph.from_edges(3, 2, [(0, 1), (0, 2)])
    with pytest.raises(StartEndMismatch):
        Link(mismatched, 2)
    with pytest.raises(StartEndMismatch):
        Link.from_json({"ell": 2, "body": mismatched.to_json()})
    assert Link(complete_graph(3), 2) == triangle_link()


def test_chain_counts_single_edge_links():
    # loose / tight 3-uniform paths
    assert chain_counts(single_edge_link(3, 1), 4) == (9, 4)
    assert chain_counts(single_edge_link(3, 2), 4) == (6, 4)
    # 2-uniform path
    assert chain_counts(single_edge_link(2, 1), 5) == (6, 5)


def test_chain_counts_pillar():
    # C_4 pillar: m=4, ell=2, 4 edges per link, 1 in the overlap
    assert chain_counts(pillar_link(), 5) == (12, 16)


def test_cycle_counts_examples():
    assert cycle_counts(single_edge_link(2, 1), 8) == 8
    assert cycle_counts(single_edge_link(3, 2), 6) == 6  # tight 3-uniform cycle
    assert cycle_counts(single_edge_link(5, 2), 15) == 5
    assert cycle_counts(triangle_link(), 12) == 24
    assert cycle_counts(triangle_link(), 6) == 12


def test_cycle_counts_divisibility_errors():
    with pytest.raises(DivisibilityError):
        cycle_counts(single_edge_link(3, 1), 7)  # step 2 does not divide 7
    with pytest.raises(DivisibilityError):
        cycle_counts(single_edge_link(4, 2), 2)  # smaller than the link


@pytest.mark.parametrize(
    "name", ["edge(2,1)", "edge(3,1)", "edge(3,2)", "edge(4,2)", "triangle", "pillar", "clique(4)", "clique(5)"]
)
def test_cycle_counts_agrees_with_cycle_on(name):
    # where the windows of a short cycle would collide, both raise TooShort
    link = builtin_link(name)
    for n in range(1, 16):
        try:
            expected = cycle_on(link, n).num_edges
        except (DivisibilityError, TooShort) as exc:
            with pytest.raises(type(exc)):
                cycle_counts(link, n)
        else:
            assert cycle_counts(link, n) == expected


def test_chain_template_matches_counts():
    for link in (single_edge_link(2, 1), single_edge_link(3, 2), triangle_link(), pillar_link()):
        for t in range(1, 6):
            tmpl = build_chain_template(link, t)
            v, e = chain_counts(link, t)
            assert (tmpl.n, tmpl.num_edges) == (v, e)


def test_triangle_chain_t2_is_square_of_p4():
    tmpl = build_chain_template(triangle_link(), 2)
    assert tmpl.n == 4 and tmpl.num_edges == 5
    assert tmpl.edges == frozenset({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)})


def test_triangle_cycle_is_square_of_cycle():
    cyc = cycle_on(triangle_link(), 6)
    expected = set()
    for i in range(6):
        expected.add(tuple(sorted((i, (i + 1) % 6))))
        expected.add(tuple(sorted((i, (i + 2) % 6))))
    assert cyc.edges == frozenset(expected)
    assert cyc.num_edges == 12


def test_tight_3_uniform_cycle_windows():
    cyc = cycle_on(single_edge_link(3, 2), 6)
    expected = {tuple(sorted((i, (i + 1) % 6, (i + 2) % 6))) for i in range(6)}
    assert cyc.edges == frozenset(expected)


def test_close_cycle_too_short():
    link = single_edge_link(4, 2)
    tmpl = build_chain_template(link, 1)
    with pytest.raises(TooShort):
        close_cycle(tmpl, link, 1)


def test_is_chain_accepts_canonical_template():
    for link in (single_edge_link(2, 1), triangle_link(), pillar_link()):
        tmpl = build_chain_template(link, 3)
        ok, layout = is_chain(tmpl, link)
        assert ok and layout.t == 3


def test_is_chain_rejects_extra_edge_in_exact_mode():
    link = single_edge_link(2, 1)
    tmpl = build_chain_template(link, 3)
    extra = Hypergraph(tmpl.n, 2, tmpl.edges | {(0, 2)})
    ok, _ = is_chain(extra, link)
    assert not ok
    ok, layout = is_chain(extra, link, mode="contain")
    assert ok and layout.t == 3


def test_chain_windows_shift_by_step():
    layout = chain_windows(single_edge_link(3, 1), 3)
    assert layout.windows == ((0, 1, 2), (2, 3, 4), (4, 5, 6))


def test_builtin_link_parser():
    assert builtin_link("edge(3,2)").ell == 2
    assert builtin_link("triangle").m == 3
    assert builtin_link("clique(4)").edges_per_link == 6
    assert builtin_link("pillar").m == 4
    with pytest.raises(Exception):
        builtin_link("nonsense")


def test_link_json_round_trip():
    link = pillar_link()
    from transversals.links import Link

    assert Link.from_json(link.to_json()).body.edges == link.body.edges
