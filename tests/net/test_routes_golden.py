"""Pinned route tables of the standard fabrics.

The digests were generated at the commit where ``Network.build_routes``
still asked networkx for its shortest paths, so they pin which of
several equal-length paths the single-path mode picks and the order in
which routes are installed: each digest covers ``{switch: {dst: hops}}``
serialised *with its key order*.
"""

import hashlib
import json

import pytest

from repro.net.topology import dumbbell, fat_tree, leaf_spine

TOPOLOGIES = {
    "dumbbell-4": lambda: dumbbell(pairs=4),
    "leaf-spine": lambda: leaf_spine(),
    "fat-tree-4": lambda: fat_tree(k=4),
    "fat-tree-4-ecmp": lambda: fat_tree(k=4, ecmp=True, ecmp_seed=3),
    "fat-tree-6": lambda: fat_tree(k=6),
    "fat-tree-8-ecmp": lambda: fat_tree(k=8, ecmp=True),
}

GOLDEN = {
    "dumbbell-4": "18f8b4bbeab7ae3c9abfc7ed7b52b95d17ecf5e7f3830664441edddee2721139",
    "leaf-spine": "f678b01b47e30345c52b1ce2f13888e97e65eed4e1db164536486d6a3fda65c3",
    "fat-tree-4": "42675c09d599d286a1ea2fb5ac12aa2e3d9768c676916c206dde32eb825d5c6c",
    "fat-tree-4-ecmp": "ae541488cf8225c6266437bcea4d2890924a47bb4d9ef035470f9c90698b2262",
    "fat-tree-6": "9a9b4882760be05f01fd158ba67b91fa56b5332fd2a96d739abf1f81da94e9da",
    "fat-tree-8-ecmp": "3bf0ec11bd51ac2c1c87fc39acfe8f5b6e1277bebac714bdb9ef6a6f3609ae8b",
}


def route_tables(net) -> dict:
    """``{switch: {dst: hops}}`` in installation order."""
    return {name: dict(switch.routes) for name, switch in net.switches.items()}


def routes_digest(net) -> str:
    return hashlib.sha256(json.dumps(route_tables(net)).encode()).hexdigest()


@pytest.mark.parametrize("name", list(TOPOLOGIES))
def test_route_tables_match_the_parent(name):
    net = TOPOLOGIES[name]()
    assert routes_digest(net) == GOLDEN[name]


def test_every_switch_routes_every_host():
    # The digests would also pin an empty table; make sure they don't.
    for name, build in TOPOLOGIES.items():
        net = build()
        for switch in net.switches.values():
            assert list(switch.routes) == list(net.hosts), (name, switch.name)


def test_ecmp_salt_is_part_of_the_build():
    assert fat_tree(k=4, ecmp=True, ecmp_seed=3).switches["core0"].ecmp_salt != (
        fat_tree(k=4, ecmp=True, ecmp_seed=4).switches["core0"].ecmp_salt
    )
    assert fat_tree(k=4).switches["core0"].ecmp_salt == 0
