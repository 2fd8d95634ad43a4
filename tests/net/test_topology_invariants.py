"""Topology invariants: the builders produce the shapes the math says.

Fat-tree counts follow Al-Fares et al.: a k-ary fat-tree has k pods,
(k/2)^2 cores, k^2/2 pod switches, k^3/4 hosts and a bisection of
k^3/8 core links.  Reachability is checked with the routing actually
installed (``Network.flow_path``), not just graph connectivity — a
wired-but-unrouted fabric must fail here.

networkx is the oracle here, not a dependency of ``repro``: the graph
is rebuilt from the fabric's own cabling by :func:`oracle_graph`, and
the routes ``build_routes`` installs are compared with the ones
``nx.shortest_path`` / ``nx.shortest_path_length`` give on that graph.
"""

import itertools

import pytest

from repro.net.topology import Network, dumbbell, fat_tree, leaf_spine

from .test_routes_golden import TOPOLOGIES, route_tables

nx = pytest.importorskip("networkx")


def oracle_graph(net):
    """The fabric's cabling as an ``nx.Graph``.

    Every node's adjacency comes out in that device's port order — the
    order of the ``connect`` calls, which is what makes networkx's
    breadth-first tie-breaks comparable with the fabric's own.  The
    cables are added by merging the per-device port lists: a cable goes
    in once it heads the list at both of its ends.
    """
    pending = {
        name: [] if host.uplink is None else [host.uplink.dst.name]
        for name, host in net.hosts.items()
    }
    pending.update((name, list(switch.ports)) for name, switch in net.switches.items())
    graph = nx.Graph()
    graph.add_nodes_from(net.hosts, kind="host")
    graph.add_nodes_from(net.switches, kind="switch")
    placed = True
    while placed:
        placed = False
        for a, ports in pending.items():
            while ports and pending[ports[0]][0] == a:
                b = ports.pop(0)
                pending[b].pop(0)
                graph.add_edge(a, b)
                placed = True
    assert not any(pending.values()), "cabling is not symmetric"
    return graph


def oracle_routes(net, ecmp):
    """``{switch: {dst: hops}}`` derived from networkx as PR 17's
    ``build_routes`` derived it."""
    graph = oracle_graph(net)
    routes = {name: {} for name in net.switches}
    for dst in net.hosts:
        if ecmp:
            lengths = nx.shortest_path_length(graph, target=dst)
            for name in net.switches:
                if name not in lengths:
                    continue
                next_hops = sorted(
                    neighbor
                    for neighbor in graph.neighbors(name)
                    if lengths.get(neighbor, float("inf")) == lengths[name] - 1
                )
                if next_hops:
                    routes[name][dst] = next_hops
        else:
            paths = nx.shortest_path(graph, target=dst)
            for name in net.switches:
                path = paths.get(name)
                if path is not None and len(path) >= 2:
                    routes[name][dst] = [path[1]]
    return routes


def irregular_fabric():
    """Unequal path lengths, a three-way tie and an island.

    ``a`` reaches ``d`` over three equal two-hop paths (via ``m2``,
    ``m0``, ``m1`` — cabled in that order, so neither sorted nor reverse
    order is the answer) and over a longer one (``a-x-y-d``); ``island``
    has a host of its own but no cable to the rest.
    """
    net = Network()
    for name in ("a", "m0", "m1", "m2", "d", "x", "y", "island"):
        net.add_switch(name)
    for name, switch in (("ha", "a"), ("hd", "d"), ("hx", "x"), ("hi", "island")):
        net.add_host(name)
        net.connect(name, switch)
    net.connect("a", "x")
    for mid in ("m2", "m0", "m1"):
        net.connect(mid, "d")
        net.connect("a", mid)
    net.connect("x", "y")
    net.connect("y", "d")
    return net


class TestFatTreeCounts:
    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_switch_and_host_counts(self, k):
        net = fat_tree(k=k)
        assert len(net.switches) == 5 * k * k // 4
        assert len(net.hosts) == k**3 // 4
        cores = [s for s in net.switches if s.startswith("core")]
        aggs = [s for s in net.switches if s.startswith("agg")]
        edges = [s for s in net.switches if s.startswith("edge")]
        assert len(cores) == (k // 2) ** 2
        assert len(aggs) == len(edges) == k * k // 2

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_link_counts(self, k):
        net = fat_tree(k=k)
        graph = oracle_graph(net)
        # Host, edge-agg and agg-core tiers each contribute k^3/4 cables.
        assert graph.number_of_edges() == 3 * k**3 // 4
        for host in net.hosts:
            assert graph.degree(host) == 1
        for core in (s for s in net.switches if s.startswith("core")):
            assert graph.degree(core) == k

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_bisection_width(self, k):
        net = fat_tree(k=k)
        # Cut the fabric between the left and right half of the pods:
        # only agg<->core cables cross, (k/2 pods) * (k/2 aggs) * (k/2
        # core links each) = k^3/8 — full bisection bandwidth.
        left_aggs = {
            f"agg{pod}_{i}" for pod in range(k // 2) for i in range(k // 2)
        }
        crossing = sum(
            1
            for a, b in oracle_graph(net).edges
            if (a in left_aggs and b.startswith("core"))
            or (b in left_aggs and a.startswith("core"))
        )
        assert crossing == k**3 // 8


class TestFatTreeReachability:
    def test_all_pairs_shortest_paths_k4(self):
        net = fat_tree(k=4)
        graph = oracle_graph(net)
        for src, dst in itertools.permutations(net.hosts, 2):
            path = net.flow_path(src, dst, flow_id=1)
            assert path[0] == src and path[-1] == dst
            assert len(path) - 1 == nx.shortest_path_length(graph, src, dst)

    def test_all_pairs_shortest_paths_k4_ecmp(self):
        net = fat_tree(k=4, ecmp=True, ecmp_seed=3)
        graph = oracle_graph(net)
        for src, dst in itertools.permutations(net.hosts, 2):
            path = net.flow_path(src, dst, flow_id=9)
            assert len(path) - 1 == nx.shortest_path_length(graph, src, dst)

    def test_sampled_pairs_k6(self):
        net = fat_tree(k=6, ecmp=True, ecmp_seed=1)
        graph = oracle_graph(net)
        hosts = sorted(net.hosts)
        samples = [(hosts[i], hosts[-1 - i]) for i in range(0, len(hosts), 5)]
        for src, dst in samples:
            if src == dst:
                continue
            path = net.flow_path(src, dst, flow_id=2)
            assert len(path) - 1 == nx.shortest_path_length(graph, src, dst)

    def test_path_tiers(self):
        net = fat_tree(k=4)
        # Same edge: h -> edge -> h'.
        assert len(net.flow_path("h0_0_0", "h0_0_1", 1)) == 3
        # Same pod, different edge: via one agg.
        assert len(net.flow_path("h0_0_0", "h0_1_0", 1)) == 5
        # Cross-pod: via one core.
        path = net.flow_path("h0_0_0", "h3_1_1", 1)
        assert len(path) == 7
        assert any(node.startswith("core") for node in path)


class TestLeafSpineShape:
    @pytest.mark.parametrize("leaves,spines,per_leaf", [(2, 2, 4), (4, 3, 2)])
    def test_counts(self, leaves, spines, per_leaf):
        net = leaf_spine(leaves=leaves, spines=spines, hosts_per_leaf=per_leaf)
        assert len(net.switches) == leaves + spines
        assert len(net.hosts) == leaves * per_leaf
        graph = oracle_graph(net)
        assert graph.number_of_edges() == leaves * spines + leaves * per_leaf
        for s in range(spines):
            assert graph.degree(f"spine{s}") == leaves

    def test_cross_leaf_paths_use_a_spine(self):
        net = leaf_spine(leaves=2, spines=2, hosts_per_leaf=2, ecmp=True)
        path = net.flow_path("h0_0", "h1_1", flow_id=4)
        assert len(path) == 5
        assert path[2].startswith("spine")


class TestDumbbellShape:
    @pytest.mark.parametrize("pairs", [1, 4])
    def test_counts(self, pairs):
        net = dumbbell(pairs=pairs)
        assert len(net.switches) == 2
        assert len(net.hosts) == 2 * pairs
        assert oracle_graph(net).number_of_edges() == 2 * pairs + 1

    def test_paths_cross_the_bottleneck(self):
        net = dumbbell(pairs=2)
        assert net.flow_path("tx0", "rx1", 1) == ["tx0", "s0", "s1", "rx1"]


class TestRoutesMatchNetworkx:
    """``build_routes`` against the networkx derivation it replaced."""

    @pytest.mark.parametrize("name", list(TOPOLOGIES))
    def test_builder_fabrics(self, name):
        net = TOPOLOGIES[name]()
        assert route_tables(net) == oracle_routes(net, ecmp=name.endswith("-ecmp"))

    @pytest.mark.parametrize("ecmp", [False, True])
    def test_irregular_fabric(self, ecmp):
        net = irregular_fabric()
        net.build_routes(ecmp=ecmp)
        routes = route_tables(net)
        assert routes == oracle_routes(net, ecmp)
        # The fabric has what the docstring promises: the tie is broken
        # by cabling order (single path) or kept whole (ECMP), the long
        # way round is never taken, and the island routes only its own.
        assert routes["a"]["hd"] == (["m0", "m1", "m2"] if ecmp else ["m2"])
        assert routes["x"]["hd"] == ["y"] and routes["y"]["ha"] == ["x"]
        assert routes["island"] == {"hi": ["hi"]}
        assert all("hi" not in table for sw, table in routes.items() if sw != "island")

    def test_oracle_graph_keeps_connect_order(self):
        graph = oracle_graph(irregular_fabric())
        assert list(graph.adj["a"]) == ["ha", "x", "m2", "m0", "m1"]
        assert list(graph.adj["d"]) == ["hd", "m2", "m0", "m1", "y"]


class TestReservedDeviceNames:
    """Device names may not alias the INT hop registry's interned ids."""

    def test_hop_fallback_names_rejected(self):
        net = dumbbell(pairs=1)
        with pytest.raises(ValueError, match="INT hop registry"):
            net.add_host("hop3")
        with pytest.raises(ValueError, match="INT hop registry"):
            net.add_switch("hop12")

    def test_link_label_names_rejected(self):
        net = dumbbell(pairs=1)
        with pytest.raises(ValueError, match="INT hop registry"):
            net.add_host("a->b")
        with pytest.raises(ValueError, match="INT hop registry"):
            net.add_switch("s0->s1")

    def test_duplicates_still_rejected(self):
        net = dumbbell(pairs=1)
        with pytest.raises(ValueError, match="duplicate"):
            net.add_host("tx0")
        with pytest.raises(ValueError, match="duplicate"):
            net.add_switch("s0")
        # Across kinds too: a host may not shadow a switch.
        with pytest.raises(ValueError, match="duplicate"):
            net.add_host("s1")

    def test_ordinary_names_still_fine(self):
        net = dumbbell(pairs=1)
        net.add_host("hopper")  # contains "hop" but is not hop<N>
        net.add_switch("shop2floor")
