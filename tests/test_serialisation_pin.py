"""Pinned JSON text of collections, certificates and links.

Each case records the SHA-256 of `json.dumps(x.to_json(), sort_keys=True,
separators=(",", ":"))`, the canonical text that instance files, the CLI's
instance digest and the benchmark's behaviour pin are made of.  A change to
how an object is serialised, or to which collection a seeded generator
builds, fails here.  The digests were recorded while `to_json` still
copied every edge into a fresh list.
"""

import hashlib
import json

import pytest

from transversals.collection import Collection
from transversals.exact import find_transversal_cycle
from transversals.gen import GenSpec, bridge_construction, dirac_extremal, generate
from transversals.links import builtin_link, cycle_counts

LINK21 = builtin_link("edge(2,1)")
TIGHT3 = builtin_link("edge(3,2)")


def gen(n, delta, seed, k=2, link=LINK21):
    return generate(GenSpec(n=n, k=k, m=cycle_counts(link, n), delta_fraction=delta, seed=seed))


def certificate(n, delta, seed):
    return find_transversal_cycle(gen(n, delta, seed), LINK21).certificate


CASES = {
    "gen(8,0.5,0)": (
        lambda: gen(8, 0.5, 0),
        "f13b1070d95d034c1557566a3eb5e577821a98c2b962c886ac41b50c67d83e4d",
    ),
    "gen(9,0.6,1)": (
        lambda: gen(9, 0.6, 1),
        "cfc8d352ccf329729634d5eecdef65407e5d028ba81f719d0b73a8e290de43fe",
    ),
    "gen(10,0.4,2)": (
        lambda: gen(10, 0.4, 2),
        "cfb305fbd4ed84de474b4f87962f53e63355af43db7e470c0a2cca4931d2f8f3",
    ),
    "gen(12,0.5,0)": (
        lambda: gen(12, 0.5, 0),
        "05dc83a2f41b0555a976b0451fa2df2779fc0bd86d9ddcef923102416c59eada",
    ),
    "gen(13,0.7,3)": (
        lambda: gen(13, 0.7, 3),
        "8e3a0a84a4c4e6a31782b4eea246016af0df7a0c3254ffd66b6dfb12f2dcd873",
    ),
    "gen(14,0.35,1)": (
        lambda: gen(14, 0.35, 1),
        "382be05eac423808ab3eca7991dcb7350bfe63566310117c58c01b9090aff197",
    ),
    "gen(16,0.5,3)": (
        lambda: gen(16, 0.5, 3),
        "27a7fe11b217efdb9b581151f4f6865319263a6727802258fb67419e1b35c877",
    ),
    "gen(16,0.8,2)": (
        lambda: gen(16, 0.8, 2),
        "36e644f588266306d4e193693a77b8ef69f3877134f914f4aedcd12db78a7d9a",
    ),
    "gen(7,0.5,0,k=3)": (
        lambda: gen(7, 0.5, 0, k=3, link=TIGHT3),
        "36883b641860cf38d2f107e787a1d1d3fdbd15b417af5765c5c8bd8e85b33d57",
    ),
    "dirac_extremal(11)": (
        lambda: dirac_extremal(11),
        "bd531e9e122de88331f37eb911231b4c33c15d36146d3eb1e39ad40156363d4d",
    ),
    "bridge_construction(9,10)": (
        lambda: bridge_construction(9, 10),
        "619591e514a709534af2db71575a1a0ce247eb3786ae5d6e90180c89cf59f2dd",
    ),
    "empty(5)": (
        lambda: Collection(5, 2, ()),
        "7bf83fad780efd4d243ace89a8d389d533b83f9630f2e63cce339fee41b13bfa",
    ),
    "certificate gen(12,0.5,0)": (
        lambda: certificate(12, 0.5, 0),
        "a1decab403e2abc70e767bab4d0e5e2e70e108fa9d526c7f150d29a73ed1e4d4",
    ),
    "certificate gen(16,0.45,1)": (
        lambda: certificate(16, 0.45, 1),
        "1e00416d08f0654fd425b7f803a04d2425232721ab6f0a91cae5cfd2d5177fec",
    ),
    "edge(2,1)": (
        lambda: builtin_link("edge(2,1)"),
        "ee2ad98da9f1ea2da15fa53c3b13086382f2d3f1c74c3e137c255d27d2b4482d",
    ),
    "edge(3,1)": (
        lambda: builtin_link("edge(3,1)"),
        "58015961ac5260d867599226b48a052daf2f5f10404ac57aae4970abec81cfe2",
    ),
    "edge(3,2)": (
        lambda: builtin_link("edge(3,2)"),
        "6c7ce6ff1d358b074a67b39997e17fe2afe89fa4f92008a050351d6c89f28719",
    ),
    "edge(4,2)": (
        lambda: builtin_link("edge(4,2)"),
        "9c8462912a5aa100e5746fc9cedc1492889d1adf35453a565eb609eb41c9e524",
    ),
    "triangle": (
        lambda: builtin_link("triangle"),
        "a8f3d17a7b0c88f6ff631ea9346c6930af275d7c917a3144c5c40ba6f9d6f876",
    ),
    "clique(4)": (
        lambda: builtin_link("clique(4)"),
        "55dcfb22974ea4ea5a5de692524de378424414b71c20ea08847bcb3d909e4f2b",
    ),
    "clique(5)": (
        lambda: builtin_link("clique(5)"),
        "50dc6605e4acd0ab8794f5cd5a3f3e830e7c8bf32fb487382e71139d5da5621d",
    ),
    "pillar": (
        lambda: builtin_link("pillar"),
        "01ebf4966b753582b4bdd9c78fa952225013c2df6e143bbaae08797eea83db0b",
    ),
}


def text_digest(x) -> str:
    text = json.dumps(x.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_serialisation_pinned(name):
    build, digest = CASES[name]
    assert text_digest(build()) == digest
