"""JSON round trips, strict parsing and the allocation cost of serialising.

`to_json` hands out the objects' own edge tuples, which `json` writes as
arrays; `from_json` keeps one tuple per distinct edge across a collection's
members.  The messages below are those of the parsers that copied every
edge into a fresh list on the way out and kept no shared tuples on the way
in.
"""

import json
import random
import tracemalloc
from itertools import combinations

import pytest

from transversals.cli import EXIT_USAGE, main
from transversals.collection import Collection, TransversalCertificate
from transversals.errors import InvalidHypergraph, InvalidInput
from transversals.exact import find_transversal_cycle
from transversals.gen import GenSpec, dirac_extremal, generate
from transversals.hypergraph import Hypergraph, complete_graph
from transversals.links import Link, builtin_link

from testlib import complete_uniform

LINK21 = builtin_link("edge(2,1)")


def through_text(x):
    return json.loads(json.dumps(x.to_json()))


def dense_collection(n, p, seed):
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    return Collection(n, 2, tuple(
        Hypergraph(n, 2, frozenset(e for e in pairs if rng.random() < p)) for _ in range(n)
    ))


@pytest.mark.parametrize("H", [
    complete_graph(6),
    complete_uniform(6, 3),
    Hypergraph(5, 2, frozenset()),
], ids=["k=2", "k=3", "no edges"])
def test_hypergraph_round_trip(H):
    assert Hypergraph.from_json(through_text(H)) == H


@pytest.mark.parametrize("C", [
    generate(GenSpec(n=9, m=9, delta_fraction=0.6, seed=3)),
    generate(GenSpec(n=7, k=3, m=7, delta_fraction=0.5, seed=0)),
    dirac_extremal(7),
    Collection(5, 2, ()),
], ids=["gen k=2", "gen k=3", "dirac_extremal(7)", "m=0"])
def test_collection_round_trip(C):
    assert Collection.from_json(through_text(C)) == C


def test_certificate_round_trip():
    C = generate(GenSpec(n=10, m=10, delta_fraction=0.6, seed=1))
    cert = find_transversal_cycle(C, LINK21).certificate
    assert TransversalCertificate.from_json(through_text(cert), C.n, C.k) == cert


@pytest.mark.parametrize("name", ["edge(2,1)", "edge(3,2)", "triangle", "clique(4)", "pillar"])
def test_link_round_trip(name):
    link = builtin_link(name)
    assert Link.from_json(through_text(link)) == link


# (edges, exception type, message): the first bad edge in order decides
BAD_EDGES = {
    "non-increasing": ([[0, 1], [2, 1]], InvalidHypergraph, "edge (2, 1) is not strictly increasing"),
    "repeated vertex": ([[1, 1]], InvalidHypergraph, "edge (1, 1) is not strictly increasing"),
    "duplicate": ([[0, 1], [1, 2], [0, 1]], InvalidHypergraph, "duplicate edges in input"),
    "non-integer": ([[0, 1], [0, "a"]], ValueError, "invalid literal for int() with base 10: 'a'"),
    "null vertex": ([[0, None]], TypeError,
                    "int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"),
    "non-list edge": ([[0, 1], 3], TypeError, "'int' object is not iterable"),
    "non-increasing first": ([[2, 1], [0, "a"]], InvalidHypergraph, "edge (2, 1) is not strictly increasing"),
    "non-integer first": ([[0, "a"], [2, 1]], ValueError, "invalid literal for int() with base 10: 'a'"),
    "out of range": ([[0, 7]], InvalidHypergraph, "edge (0, 7) out of range [0, 4)"),
    "wrong size": ([[0, 1, 2]], InvalidHypergraph, "edge (0, 1, 2) is not 2-uniform"),
}


def assert_raises_exactly(exc_type, message, parse, *args):
    with pytest.raises(exc_type) as info:
        parse(*args)
    assert type(info.value) is exc_type and str(info.value) == message


@pytest.mark.parametrize("case", list(BAD_EDGES))
def test_hypergraph_rejects_bad_edges(case):
    edges, exc_type, message = BAD_EDGES[case]
    assert_raises_exactly(exc_type, message, Hypergraph.from_json, {"n": 4, "k": 2, "edges": edges})


@pytest.mark.parametrize("case", list(BAD_EDGES))
def test_collection_rejects_bad_edges(case):
    edges, exc_type, message = BAD_EDGES[case]
    good = {"n": 4, "k": 2, "edges": [[0, 1], [2, 3]]}
    obj = {"n": 4, "k": 2, "members": [good, {"n": 4, "k": 2, "edges": edges}]}
    assert_raises_exactly(exc_type, message, Collection.from_json, obj)


@pytest.mark.parametrize("case", list(BAD_EDGES))
def test_certificate_rejects_bad_edges(case):
    edges, exc_type, message = BAD_EDGES[case]
    if case == "non-increasing first":  # every edge is converted before any is checked
        exc_type, message = BAD_EDGES["non-integer first"][1:]
    obj = {"edges": edges, "phi": list(range(len(edges)))}
    assert_raises_exactly(exc_type, message, TransversalCertificate.from_json, obj, 4, 2)


@pytest.mark.parametrize("parse, obj, exc_type, message", [
    (Hypergraph.from_json, {"n": 4, "edges": []}, InvalidHypergraph, "malformed hypergraph object: 'k'"),
    (Hypergraph.from_json, {"n": "x", "k": 2, "edges": []}, InvalidHypergraph,
     "malformed hypergraph object: invalid literal for int() with base 10: 'x'"),
    (Collection.from_json, {"n": 4, "k": 2}, KeyError, "'members'"),
    (Collection.from_json, {"k": 2, "members": []}, KeyError, "'n'"),
    (Collection.from_json, {"n": 4, "k": 2, "members": [{"k": 2, "edges": []}]}, InvalidHypergraph,
     "malformed hypergraph object: 'n'"),
    # members are parsed before the collection's own keys are read
    (Collection.from_json, {"members": [{"n": 4, "k": 2, "edges": [[1, 0]]}]}, InvalidHypergraph,
     "edge (1, 0) is not strictly increasing"),
    (Collection.from_json, {"n": 5, "k": 2, "members": [{"n": 4, "k": 2, "edges": []}]}, InvalidInput,
     "member 0 has n=4, k=2; expected 5, 2"),
    (lambda obj: TransversalCertificate.from_json(obj, 4, 2), {"phi": [0]}, KeyError, "'edges'"),
    # the edges are converted, then phi is read and matched, then the edges are checked
    (lambda obj: TransversalCertificate.from_json(obj, 4, 2), {"edges": [[1, 0]]}, KeyError, "'phi'"),
    (lambda obj: TransversalCertificate.from_json(obj, 4, 2), {"edges": [[1, 0]], "phi": []}, InvalidInput,
     "edges and phi must be parallel arrays"),
])
def test_missing_and_malformed_keys(parse, obj, exc_type, message):
    assert_raises_exactly(exc_type, message, parse, obj)


# (collection file, certificate file) with the same fault
BAD_FILES = {
    "non-increasing": ([[2, 1]], {"edges": [[2, 1]], "phi": [0]}),
    "duplicate": ([[0, 1], [0, 1]], {"edges": [[0, 1], [0, 1]], "phi": [0, 1]}),
    "non-integer": ([[0, "a"]], {"edges": [[0, "a"]], "phi": [0]}),
    "missing key": (None, {"edges": [[0, 1]]}),
}


@pytest.mark.parametrize("case", list(BAD_FILES))
def test_solve_and_verify_reject_malformed_files_with_exit_3(case, tmp_path, capsys):
    member_edges, cert_obj = BAD_FILES[case]
    member = {"n": 4, "k": 2} if member_edges is None else {"n": 4, "k": 2, "edges": member_edges}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 4, "k": 2, "members": [member]}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(Collection(4, 2, tuple([complete_graph(4)] * 4)).to_json()))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(cert_obj))
    assert main(["solve", "--in", str(bad)]) == EXIT_USAGE
    assert main(["verify", "--in", str(bad), "--cert", str(cert)]) == EXIT_USAGE
    assert main(["verify", "--in", str(good), "--cert", str(cert)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("error: ") == 3 and "Traceback" not in err


def test_to_json_allocates_no_per_edge_objects():
    C = dense_collection(60, 0.8, 11)
    member_edges = sum(H.num_edges for H in C.members)
    tracemalloc.start()
    try:
        obj = C.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a fresh list per edge costs about 81 B; the edge tuples themselves
    # cost one pointer per edge in each member's sorted list
    assert peak / member_edges < 16
    assert len(obj["members"]) == C.m


def test_from_json_keeps_one_tuple_per_distinct_union_edge():
    C = dense_collection(60, 0.8, 11)
    back = Collection.from_json(json.loads(json.dumps(C.to_json())))
    assert back == C
    union = set().union(*(H.edges for H in back.members))
    assert len({id(e) for H in back.members for e in H.edges}) == len(union)
