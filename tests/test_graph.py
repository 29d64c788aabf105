"""Topology construction and adjacency partition tests."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panograph import graph
from panograph.errors import ConfigError


def brute_force_normalize(A):
    """Independent dense D^{-1/2} A D^{-1/2} with explicit loops."""
    n = A.shape[0]
    deg = [sum(A[i]) for i in range(n)]
    out = np.zeros_like(A)
    for i in range(n):
        for j in range(n):
            if A[i, j] != 0 and deg[i] > 0 and deg[j] > 0:
                out[i, j] = A[i, j] / np.sqrt(deg[i] * deg[j])
    return out


def dense_from_edges(edges, n):
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    return A


class TestIntraTopology:
    def test_chain_single_joint_has_no_edges(self):
        assert graph.layout_unit("chain", 1) == ([], (0,), (0,))

    def test_chain_five(self):
        assert graph.layout_unit("chain", 5) == ([(0, 1), (1, 2), (2, 3), (3, 4)], (2,), (0, 4))

    def test_coco17_has_18_edges(self):
        edges, centres, holders = graph.layout_unit("coco17", 17)
        assert len(edges) == 18
        assert edges == graph.COCO17_EDGES
        assert (centres, holders) == (graph.COCO17_CENTER_JOINTS, graph.COCO17_WRISTS)

    def test_coco17_wrong_joint_count(self):
        with pytest.raises(ConfigError):
            graph.layout_unit("coco17", 16)

    def test_chain_without_joints_rejected(self):
        with pytest.raises(ConfigError, match="chain layout needs at least one joint"):
            graph.layout_unit("chain", 0)

    def test_unknown_layout(self):
        with pytest.raises(ConfigError):
            graph.layout_unit("smpl", 24)

    @pytest.mark.parametrize("layout,joints", [("chain", 1), ("chain", 5), ("chain", 17), ("coco17", 17)])
    def test_limbs_listed_outward(self, layout, joints):
        # bone_parents reads the tree in one pass: each limb starts at a reached joint
        reached = {0}
        for i, j in graph.layout_unit(layout, joints)[0]:
            assert i in reached
            reached.add(j)
        assert reached == set(range(joints))

    def test_person_0_unit_comes_first_limbs_before_holders(self):
        topo = graph.build_topology("coco17", 2, 17, num_objects=2)
        limbs = graph.COCO17_EDGES
        holders = [(17 + s, w) for s in range(2) for w in graph.COCO17_WRISTS]
        assert topo.intra_edges[: len(limbs) + len(holders)] == limbs + holders


class TestObjects:
    def test_attach_ball_to_both_wrists(self):
        topo = graph.build_topology("coco17", 2, 17, num_objects=1)
        assert topo.nodes_per_person == 18
        # two extra intra edges per person
        assert len(topo.intra_edges) == 2 * (18 + 2)
        ball = 17
        for p in range(2):
            off = p * 18
            for wrist in graph.COCO17_WRISTS:
                assert (off + ball, off + wrist) in topo.intra_edges

    def test_two_objects_coco(self):
        topo = graph.build_topology("coco17", 1, 17, num_objects=2)
        assert topo.nodes_per_person == 19
        assert len(topo.intra_edges) == 18 + 4

    def test_no_objects_is_noop(self):
        base = graph.build_topology("chain", 2, 4, num_objects=0)
        assert base.object_keypoints == 0
        assert len(base.intra_edges) == 2 * 3

    def test_negative_object_count_rejected(self):
        with pytest.raises(ConfigError):
            graph.build_topology("chain", 1, 1, num_objects=-1)


class TestInterEdges:
    def test_single_person_no_pairs(self):
        for variant in graph.INTER_VARIANTS:
            topo = graph.build_topology("chain", 1, 3, inter_variant=variant)
            assert topo.inter_edges == []

    def test_two_persons_pairwise_coco_center_pair(self):
        topo = graph.build_topology("coco17", 2, 17, inter_variant="pairwise")
        assert len(topo.inter_edges) == 2  # hip pair, no objects

    def test_linear_three_persons_one_object(self):
        # 2 consecutive pairs x (2 hip edges + 1 object edge)
        topo = graph.build_topology("coco17", 3, 17, num_objects=1, inter_variant="linear")
        assert len(topo.inter_edges) == 2 * 3

    def test_none_variant(self):
        topo = graph.build_topology("chain", 4, 5, inter_variant="none")
        assert topo.inter_edges == []

    def test_unknown_variant(self):
        for variant in ("dense", "fully-connected"):  # the second was an alias of pairwise
            with pytest.raises(ConfigError, match=f"unknown inter-body variant '{variant}'"):
                graph.build_topology("chain", 2, 3, inter_variant=variant)


class TestNormalization:
    def test_single_edge_two_nodes(self):
        A = dense_from_edges([(0, 1)], 2)
        out = graph.normalize_symmetric(A)
        assert np.count_nonzero(out) == 2
        assert out[0, 1] == out[1, 0] == 1.0

    def test_path_degree_product(self):
        A = dense_from_edges([(0, 1), (1, 2)], 3)
        out = graph.normalize_symmetric(A)
        assert out[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_isolated_node_row_is_zero(self):
        A = dense_from_edges([(0, 1)], 3)
        out = graph.normalize_symmetric(A)
        assert np.all(out[2] == 0) and np.all(out[:, 2] == 0)

    def test_partitions_shapes_and_identity(self):
        topo = graph.build_topology("chain", 2, 3, inter_variant="pairwise")
        part = graph.partition_and_normalize(topo)
        n = topo.num_nodes
        assert part.A_hat.shape == (3, n, n)
        assert np.array_equal(part.A_hat[0], np.eye(n))

    def test_no_inter_edges_zero_partition(self):
        topo = graph.build_topology("chain", 2, 3, inter_variant="none")
        part = graph.partition_and_normalize(topo)
        assert np.all(part.A_hat[2] == 0)

    def test_block_diagonal_without_inter(self):
        topo = graph.build_topology("chain", 3, 4, inter_variant="none")
        part = graph.partition_and_normalize(topo)
        npp = topo.nodes_per_person
        block = part.A_hat[1][:npp, :npp]
        for p in range(3):
            sl = slice(p * npp, (p + 1) * npp)
            assert np.array_equal(part.A_hat[1][sl, sl], block)
        off_block = part.A_hat[1].copy()
        for p in range(3):
            sl = slice(p * npp, (p + 1) * npp)
            off_block[sl, sl] = 0
        assert np.all(off_block == 0)


class TestValidation:
    def test_no_persons_rejected(self):
        with pytest.raises(ConfigError, match="need at least one person"):
            graph.build_topology("chain", 0, 3)


random_topologies = st.one_of(
    st.builds(
        graph.build_topology,
        st.just("chain"),
        st.integers(1, 4),
        st.integers(1, 8),
        st.integers(0, 3),
        st.sampled_from(graph.INTER_VARIANTS),
    ),
    st.builds(
        graph.build_topology,
        st.just("coco17"),
        st.integers(1, 4),
        st.just(17),
        st.integers(0, 3),
        st.sampled_from(graph.INTER_VARIANTS),
    ),
)


def assert_valid_topology(topo):
    """The five edge invariants that build_topology keeps by construction."""
    n, npp = topo.num_nodes, topo.nodes_per_person
    edges = topo.intra_edges + topo.inter_edges
    assert all(0 <= i < n and 0 <= j < n for i, j in edges), "edge out of range"
    assert all(i != j for i, j in edges), "self loop"
    assert len({frozenset(e) for e in edges}) == len(edges), "repeated edge"
    assert all(i // npp == j // npp for i, j in topo.intra_edges), "intra edge spans two persons"
    assert all(i // npp != j // npp for i, j in topo.inter_edges), "inter edge within one person"


def test_every_topology_the_strategy_draws_is_valid():
    """The whole space random_topologies draws from, enumerated: both layouts, every
    variant, 1-4 persons, 0-3 objects, and 1-8 chain joints."""
    shapes = [("chain", v) for v in range(1, 9)] + [("coco17", 17)]
    for (layout, V), M, n, variant in itertools.product(shapes, range(1, 5), range(4), graph.INTER_VARIANTS):
        assert_valid_topology(graph.build_topology(layout, M, V, n, variant))


@pytest.mark.parametrize(
    "topo,problem",
    [
        (graph.GraphTopology(1, 3, intra_edges=[(0, 1), (1, 0)]), "repeated edge"),
        (graph.GraphTopology(1, 3, intra_edges=[(1, 1)]), "self loop"),
        (graph.GraphTopology(2, 3, intra_edges=[(0, 4)]), "intra edge spans two persons"),
        (graph.GraphTopology(2, 3, inter_edges=[(0, 1)]), "inter edge within one person"),
        (graph.GraphTopology(2, 3, inter_edges=[(0, 6)]), "edge out of range"),
    ],
    ids=["duplicate", "self_loop", "intra_across", "inter_within", "out_of_range"],
)
def test_invalid_topology_fails_the_check(topo, problem):
    """Negative controls: each hand-built topology breaks one invariant, and the check names it."""
    with pytest.raises(AssertionError, match=problem):
        assert_valid_topology(topo)


@settings(max_examples=60, deadline=None)
@given(random_topologies)
def test_partition_invariants(topo):
    assert_valid_topology(topo)
    part = graph.partition_and_normalize(topo)
    n = topo.num_nodes
    # symmetry is exact by construction
    for k in range(3):
        assert np.array_equal(part.A_hat[k], part.A_hat[k].T)
    # self partition is the identity
    assert np.array_equal(part.A_hat[0], np.eye(n))
    # intra and inter supports never overlap
    assert np.all(part.A_hat[1] * part.A_hat[2] == 0)
    # brute-force oracle per partition
    for k, edges in ((1, topo.intra_edges), (2, topo.inter_edges)):
        expected = brute_force_normalize(dense_from_edges(edges, n))
        assert np.max(np.abs(part.A_hat[k] - expected)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(2, 8))
def test_inter_edge_counts_scale_with_pairs(M, V):
    topo = graph.build_topology("chain", M, V, 1, inter_variant="pairwise")
    pairs = M * (M - 1) // 2
    endpoints = len(topo.center_joints) + 1  # one object slot
    assert len(topo.inter_edges) == pairs * endpoints
