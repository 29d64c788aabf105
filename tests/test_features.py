"""Feature stream preprocessing tests."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panograph import features, graph
from panograph.errors import ConfigError, InputError
from panograph.nn import STREAM_ORDER


def random_skeleton(rng, T, M, Np, C=3):
    x = rng.standard_normal((T, M, Np, C)) * 50
    if C == 3:
        x[..., 2] = rng.uniform(0, 1, size=(T, M, Np))
    return x


@pytest.fixture
def topo():
    return graph.build_topology("chain", 2, 4, num_objects=1)


COCO17_PARENTS = [0, 0, 0, 1, 2, 0, 0, 5, 6, 7, 8, 5, 6, 11, 12, 13, 14]


class TestBoneParents:
    def test_chain_parents(self):
        t = graph.build_topology("chain", 1, 5)
        assert features.bone_parents(t).tolist() == [0, 0, 1, 2, 3]
        # an object hangs from joint 0 and leaves every joint on j - 1
        t = graph.build_topology("chain", 2, 5, num_objects=1)
        assert features.bone_parents(t).tolist() == [0, 0, 1, 2, 3, 0]
        t = graph.build_topology("chain", 2, 17, num_objects=1)
        assert features.bone_parents(t).tolist() == [0] + list(range(16)) + [0]

    def test_object_parent_is_first_attachment(self, topo):
        # chain objects attach to joints (0, V-1); the first listed holder wins
        assert features.bone_parents(topo).tolist() == [0, 0, 1, 2, 0]

    @pytest.mark.parametrize("objects", [0, 1])
    def test_coco17_parents(self, objects):
        t = graph.build_topology("coco17", 2, 17, num_objects=objects)
        assert features.bone_parents(t).tolist() == COCO17_PARENTS + [9] * objects

    def test_coco_root_is_nose(self):
        t = graph.build_topology("coco17", 1, 17)
        parents = features.bone_parents(t)
        assert parents[0] == 0
        assert parents[11] == 5  # l_hip hangs off l_shoulder, its first limb's near end
        # every non-root joint reaches the root by climbing parents
        for j in range(17):
            seen, cur = set(), j
            while cur != 0:
                assert cur not in seen
                seen.add(cur)
                cur = parents[cur]

    def test_limbs_listed_inward_rejected(self):
        t = graph.GraphTopology(1, 3, intra_edges=[(1, 2), (0, 1)])
        with pytest.raises(ConfigError, match="cannot orient bones"):
            features.bone_parents(t)

    def test_disconnected_topology_rejected(self):
        t = graph.GraphTopology(1, 4, intra_edges=[(0, 1)])
        with pytest.raises(ConfigError):
            features.bone_parents(t)


@pytest.mark.parametrize("layout,joints", [("chain", 5), ("coco17", 17)])
def test_person_shift_moves_every_stream_with_it(layout, joints):
    """Moving each person one slot on moves each stream's node blocks the same way."""
    M, T = 3, 6
    topo = graph.build_topology(layout, M, joints, num_objects=1)
    x = random_skeleton(np.random.default_rng(9), T, M, joints + 1)
    base = features.build_feature_bundle(x, topo).streams()
    moved = features.build_feature_bundle(np.roll(x, 1, axis=1), topo).streams()
    for key, stream in base.items():
        expected = np.roll(stream.reshape(T, M, joints + 1, -1), 1, axis=1).reshape(stream.shape)
        assert np.array_equal(moved[key], expected), key


class TestJointStream:
    def test_center_relative_zero_at_center(self):
        rng = np.random.default_rng(0)
        t = graph.build_topology("chain", 1, 5)  # center joint 2
        x = random_skeleton(rng, 3, 1, 5)
        out = features.joint_stream(x, t.center_joints)
        rel = out.reshape(3, 1, 5, 6)[..., 3:5]
        assert np.allclose(rel[:, :, 2, :], 0.0, atol=1e-12)

    def test_absolute_half_is_input(self):
        rng = np.random.default_rng(1)
        x = random_skeleton(rng, 2, 2, 3)
        out = features.joint_stream(x, (1,))
        assert np.array_equal(out[..., :3], x.reshape(2, 6, 3))

    def test_translation_invariance_of_relative_half(self):
        rng = np.random.default_rng(2)
        x = random_skeleton(rng, 4, 2, 3)
        shifted = x.copy()
        shifted[..., 0] += 10.0
        a = features.joint_stream(x, (1,))[..., 3:5]
        b = features.joint_stream(shifted, (1,))[..., 3:5]
        assert np.allclose(a, b, atol=1e-9)

    def test_visibility_copied_unshifted(self):
        rng = np.random.default_rng(3)
        x = random_skeleton(rng, 2, 1, 4)
        out = features.joint_stream(x, (0, 1))
        assert np.array_equal(out[..., 5], x.reshape(2, 4, 3)[..., 2])


class TestBoneStream:
    def angles_of(self, vec):
        """Build a 2-joint chain whose single bone equals ``vec``."""
        t = graph.build_topology("chain", 1, 2)
        x = np.zeros((1, 1, 2, 3))
        x[0, 0, 1, :2] = vec
        x[..., 2] = 1.0
        out = features.bone_stream(x, features.bone_vectors(x, t))
        return out[0, 1, 3:5]

    def test_axis_aligned_bone(self):
        assert self.angles_of((1.0, 0.0)) == pytest.approx([0.0, np.pi / 2], abs=1e-12)

    def test_zero_bone_convention(self):
        assert self.angles_of((0.0, 0.0)) == pytest.approx([np.pi / 2, np.pi / 2], abs=1e-12)

    def test_diagonal_bone(self):
        assert self.angles_of((1.0, 1.0)) == pytest.approx([np.pi / 4, np.pi / 4], abs=1e-12)

    def test_angle_range(self, topo):
        rng = np.random.default_rng(4)
        x = random_skeleton(rng, 5, 2, 5)
        out = features.bone_stream(x, features.bone_vectors(x, topo))
        angles = out[..., 3:5]
        assert np.all(angles >= 0) and np.all(angles <= np.pi)

    def test_visibility_passthrough(self, topo):
        rng = np.random.default_rng(5)
        x = random_skeleton(rng, 3, 2, 5)
        out = features.bone_stream(x, features.bone_vectors(x, topo))
        assert np.array_equal(out[..., 5], x.reshape(3, 10, 3)[..., 2])

    def test_translation_invariance(self, topo):
        rng = np.random.default_rng(6)
        x = random_skeleton(rng, 3, 2, 5)
        shifted = x.copy()
        shifted[..., :2] += (7.0, -3.0)
        assert np.allclose(
            features.bone_stream(x, features.bone_vectors(x, topo)),
            features.bone_stream(shifted, features.bone_vectors(shifted, topo)),
            atol=1e-9,
        )

    def test_recomposition_reaches_root(self, topo):
        rng = np.random.default_rng(7)
        x = random_skeleton(rng, 4, 2, 5)
        bones = features.bone_vectors(x, topo)
        parents = features.bone_parents(topo)
        npp = topo.nodes_per_person
        for node in range(npp):
            total = np.zeros((4, 2, 3))
            cur = node
            while cur != 0:
                total += bones[:, :, cur]
                cur = parents[cur]
            assert np.allclose(total, x[:, :, node] - x[:, :, 0], atol=1e-9)


class TestMotionStreams:
    def test_static_sequence_is_zero(self, topo):
        x = np.ones((6, 2, 5, 3))
        assert np.all(features.motion_stream(x) == 0)
        assert np.all(features.motion_stream(features.bone_vectors(x, topo)) == 0)

    def test_linear_motion_values(self):
        T = 5
        x = np.zeros((T, 1, 1, 2))
        x[:, 0, 0, 0] = np.arange(T, dtype=float)
        out = features.motion_stream(x)  # (T, 1, 4)
        assert np.all(out[:-1, 0, 0] == 1.0)  # one-hop
        assert np.all(out[:-2, 0, 2] == 2.0)  # two-hop
        assert np.all(out[-1, 0, :2] == 0.0)
        assert np.all(out[-2:, 0, 2:] == 0.0)

    def test_single_frame_all_padded(self):
        x = np.ones((1, 1, 2, 3))
        assert np.all(features.motion_stream(x) == 0)

    def test_rotating_bone_motion(self):
        t = graph.build_topology("chain", 1, 2)
        x = np.zeros((2, 1, 2, 2))
        x[0, 0, 1] = (1.0, 0.0)
        x[1, 0, 1] = (0.0, 1.0)
        out = features.motion_stream(features.bone_vectors(x, t))
        assert out[0, 1, :2] == pytest.approx([-1.0, 1.0])

    def test_rigid_translation_bone_motion_zero(self, topo):
        rng = np.random.default_rng(8)
        pose = random_skeleton(rng, 1, 2, 5)[0]
        x = np.stack([pose + t * np.array([3.0, 1.0, 0.0]) for t in range(4)])
        assert np.allclose(features.motion_stream(features.bone_vectors(x, topo)), 0.0, atol=1e-9)


class TestBundle:
    def test_shapes_identical(self, topo):
        rng = np.random.default_rng(9)
        x = random_skeleton(rng, 6, 2, 5)
        bundle = features.build_feature_bundle(x, topo)
        for stream in bundle.streams().values():
            assert stream.shape == (6, 10, 6)

    def test_streams_in_model_order(self, topo):
        """The bundle's fields are the streams, in the order the model takes them."""
        x = random_skeleton(np.random.default_rng(9), 3, 2, 5)
        assert tuple(features.build_feature_bundle(x, topo).streams()) == STREAM_ORDER

    def test_c2_shapes(self, topo):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 2, 5, 2))
        bundle = features.build_feature_bundle(x, topo)
        for stream in bundle.streams().values():
            assert stream.shape == (6, 10, 4)

    @pytest.mark.parametrize("shape", [(2, 5, 3), (2, 3, 5, 3), (2, 2, 4, 3)],
                             ids=["rank", "persons", "nodes"])
    def test_layout_mismatch(self, topo, shape):
        """Rank, person count and nodes per person are the topology's, or the file is refused."""
        want = f"slot tensor of shape {shape} is not (frames, 2, 5, channels)"
        with pytest.raises(InputError, match=re.escape(want)):
            features.build_feature_bundle(np.zeros(shape), topo)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(2, 6), st.integers(0, 2))
    def test_shape_contract_property(self, T, M, V, n):
        t = graph.build_topology("chain", M, V, n)
        rng = np.random.default_rng(11)
        x = random_skeleton(rng, T, M, t.nodes_per_person)
        bundle = features.build_feature_bundle(x, t)
        shapes = {s.shape for s in bundle.streams().values()}
        assert shapes == {(T, M * t.nodes_per_person, 6)}
        for s in bundle.streams().values():
            assert np.isfinite(s).all()
