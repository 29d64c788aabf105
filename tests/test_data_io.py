"""Tensor container, synthetic generator, and config parsing tests."""
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panograph import data_io, reassign
from panograph.errors import ConfigError, FormatError, InputError


class TestContainer:
    def test_empty_container_is_8_bytes(self, tmp_path):
        path = str(tmp_path / "empty.pgt")
        data_io.write_tensor_container(path, {})
        raw = open(path, "rb").read()
        assert raw == b"PGT1" + struct.pack("<I", 0)
        assert data_io.read_tensor_container(path) == {}

    def test_2x3_f64_payload_is_48_bytes(self, tmp_path):
        path = str(tmp_path / "one.pgt")
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        data_io.write_tensor_container(path, {"a": arr})
        raw = open(path, "rb").read()
        # header 8 + namelen 2 + name 1 + dtype/rank 2 + dims 8 + payload 48
        assert len(raw) == 8 + 2 + 1 + 2 + 8 + 48
        assert raw[-48:] == arr.tobytes()

    def test_float32_roundtrip_preserves_dtype(self, tmp_path):
        path = str(tmp_path / "f32.pgt")
        arr = np.linspace(0, 1, 12, dtype=np.float32).reshape(3, 4)
        data_io.write_tensor_container(path, {"x": arr})
        out = data_io.read_tensor_container(path)
        assert out["x"].dtype == np.float32
        assert np.array_equal(out["x"], arr)

    def test_uint8_roundtrip_preserves_dtype(self, tmp_path):
        """Tag 2 holds bytes, such as a checkpoint's JSON config."""
        path = str(tmp_path / "u8.pgt")
        arr = np.frombuffer(b'{"a": 1}', dtype=np.uint8)
        data_io.write_tensor_container(path, {"config": arr})
        raw = open(path, "rb").read()
        assert raw[16:18] == bytes([2, 1]) and raw[-8:] == b'{"a": 1}'
        out = data_io.read_tensor_container(path)["config"]
        assert out.dtype == np.uint8 and out.tobytes() == b'{"a": 1}'

    def test_integer_input_promoted_to_f64(self, tmp_path):
        path = str(tmp_path / "int.pgt")
        data_io.write_tensor_container(path, {"x": np.arange(4)})
        out = data_io.read_tensor_container(path)
        assert out["x"].dtype == np.float64

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgt"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(FormatError, match="magic"):
            data_io.read_tensor_container(str(path))

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "trunc.pgt")
        data_io.write_tensor_container(path, {"a": np.zeros((4, 4))})
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-10])
        with pytest.raises(FormatError, match="'a'"):
            data_io.read_tensor_container(path)

    def test_unknown_dtype_tag(self, tmp_path):
        path = tmp_path / "tag.pgt"
        body = struct.pack("<H", 1) + b"z" + struct.pack("<BB", 9, 0)
        path.write_bytes(b"PGT1" + struct.pack("<I", 1) + body)
        with pytest.raises(FormatError, match="dtype tag"):
            data_io.read_tensor_container(str(path))

    def test_non_utf8_name(self, tmp_path):
        path = str(tmp_path / "name.pgt")
        data_io.write_tensor_container(path, {"ab": np.ones(2)})
        raw = bytearray(open(path, "rb").read())
        raw[10] = 0xFF  # first name byte: after magic, entry count and name length
        open(path, "wb").write(bytes(raw))
        with pytest.raises(FormatError, match=re.escape(f"{path}: entry name at offset 10 is not UTF-8")):
            data_io.read_tensor_container(path)

    def test_duplicate_names_rejected_on_read(self, tmp_path):
        path = tmp_path / "dup.pgt"
        entry = struct.pack("<H", 1) + b"a" + struct.pack("<BB", 1, 0) + np.float64(0).tobytes()
        path.write_bytes(b"PGT1" + struct.pack("<I", 2) + entry + entry)
        with pytest.raises(FormatError, match="duplicate"):
            data_io.read_tensor_container(str(path))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_entry_rejected(self, tmp_path, dtype, value):
        """The reader owns finiteness: a float entry with NaN or inf is refused by name,
        written as it is; byte entries (a checkpoint's config) are not floats."""
        path = str(tmp_path / "nan.pgt")
        config = np.frombuffer(b"\xff\xff", dtype=np.uint8)
        data_io.write_tensor_container(path, {"config": config, "x": np.array([1.0, value], dtype)})
        with pytest.raises(FormatError, match=re.escape(f"{path}: entry 'x' is not finite")):
            data_io.read_tensor_container(path)
        data_io.write_tensor_container(path, {"config": config})
        assert data_io.read_tensor_container(path)["config"].tobytes() == b"\xff\xff"

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "junk.pgt")
        data_io.write_tensor_container(path, {"x": np.ones(3)})
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(FormatError, match="4 trailing bytes"):
            data_io.read_tensor_container(path)

    @pytest.mark.parametrize("rank, dims", [(3, (0, 2**32 - 1, 2**32 - 1)), (65, (1,) * 65)],
                             ids=["too-big", "rank-65"])
    def test_shape_numpy_cannot_hold(self, tmp_path, rank, dims):
        """An empty payload beside huge dims (32 bytes in all), or a rank over numpy's 64."""
        path = str(tmp_path / "shape.pgt")
        body = struct.pack("<H", 8) + b"skeleton" + struct.pack(f"<BB{rank}I", 1, rank, *dims)
        payload = b"" if 0 in dims else np.float64(1).tobytes()
        open(path, "wb").write(b"PGT1" + struct.pack("<I", 1) + body + payload)
        with pytest.raises(FormatError, match=re.escape(f"{path}: entry 'skeleton' has shape {dims}")):
            data_io.read_tensor_container(path)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=4),
           st.integers(0, 128))
    def test_byte_mutations_raise_only_format_error(self, edits, cut):
        """A 3-entry container (72 bytes) with bytes overwritten, then cut to ``cut``
        bytes if shorter: every read returns tensors or raises FormatError."""
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/c.pgt"
            data_io.write_tensor_container(path, {
                "a": np.arange(6, dtype=np.float32).reshape(2, 3), "bb": np.float64(2.0),
                "c": np.frombuffer(b"json", dtype=np.uint8)})
            raw = bytearray(open(path, "rb").read())
            for pos, value in edits:
                raw[pos % len(raw)] = value
            open(path, "wb").write(bytes(raw[:cut]))
            try:
                data_io.read_tensor_container(path)
            except FormatError:
                pass

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.text(st.characters(codec="utf-8", categories=("L", "N")), min_size=1, max_size=12),
            hnp.arrays(
                dtype=st.sampled_from([np.float32, np.float64]),
                shape=hnp.array_shapes(max_dims=4, max_side=5),
                elements=st.floats(-1e6, 1e6, width=32),
            ),
            max_size=5,
        )
    )
    def test_roundtrip_identity(self, tensors):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/rt.pgt"
            data_io.write_tensor_container(path, tensors)
            out = data_io.read_tensor_container(path)
        assert set(out) == set(tensors)
        for name, arr in tensors.items():
            assert out[name].dtype == arr.dtype
            assert out[name].shape == arr.shape
            assert np.array_equal(out[name], arr)


class TestSyntheticGenerator:
    def small_spec(self, **kw):
        base = dict(num_classes=4, samples_per_class=2, num_persons=3,
                    num_joints=4, num_objects=1, num_frames=8, noise_std=0.0, seed=3)
        base.update(kw)
        return data_io.SyntheticSpec(**base)

    def test_determinism(self):
        a = data_io.generate_synthetic(self.small_spec())
        b = data_io.generate_synthetic(self.small_spec())
        for sa, sb in zip(a, b):
            assert sa.label == sb.label
            assert np.array_equal(sa.skeleton, sb.skeleton)
            assert sa.jsonl == sb.jsonl

    def test_counts_and_shapes(self):
        spec = self.small_spec()
        samples = data_io.generate_synthetic(spec)
        assert len(samples) == 8
        for s in samples:
            assert s.skeleton.shape == (8, 3, 4, 3)
            assert s.objects.shape == (8, 1, 3)
            assert s.clean.shape == (8,)

    def test_same_class_same_template_modulo_phase(self):
        """Class is carried by motion, not raw coordinates."""
        spec = self.small_spec(samples_per_class=3)
        samples = data_io.generate_synthetic(spec)
        by_label = {}
        for s in samples:
            by_label.setdefault(s.label, []).append(s.skeleton)
        # random global phase: raw tensors differ within a class
        for label, tensors in by_label.items():
            assert not np.allclose(tensors[0], tensors[1])

    def test_clean_frames_roundtrip_through_reassign(self):
        """Generator ground truth is recovered by the real pipeline on
        frames without injected dropout."""
        spec = self.small_spec(dropout_prob=0.2, id_switch_prob=0.1,
                               num_distractors=2, distractor_conf=0.3)
        for sample in data_io.generate_synthetic(spec):
            frames = reassign.parse_jsonl(sample.jsonl, spec.num_joints)
            tensor, _ = reassign.assemble_sequence(
                frames, spec.num_persons, spec.num_joints
            )
            clean = sample.clean.astype(bool)
            assert clean.any()
            assert np.allclose(tensor[clean], sample.skeleton[clean], atol=1e-9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            data_io.generate_synthetic(self.small_spec(num_classes=0))
        with pytest.raises(ConfigError):
            data_io.generate_synthetic(self.small_spec(noise_std=-1.0))

    def test_jsonl_is_parseable(self):
        sample = data_io.generate_synthetic(self.small_spec())[0]
        for line in sample.jsonl:
            rec = json.loads(line)
            assert set(rec) == {"t", "id", "conf", "bbox", "kpts"}


class TestAppendObjects:
    def test_shapes_and_replication(self):
        T, M, V, n = 3, 2, 4, 2
        skeleton = np.random.default_rng(0).standard_normal((T, M, V, 3))
        objects = np.random.default_rng(1).standard_normal((T, n, 3))
        out = data_io.append_object_nodes(skeleton, objects)
        assert out.shape == (T, M, V + n, 3)
        assert np.array_equal(out[:, :, :V], skeleton)
        for p in range(M):
            assert np.array_equal(out[:, p, V:], objects)

    def test_no_objects_passthrough(self):
        skeleton = np.zeros((2, 1, 3, 3))
        out = data_io.append_object_nodes(skeleton, np.zeros((2, 0, 3)))
        assert out is skeleton

    @pytest.mark.parametrize("shape", [(3, 1, 3), (3, 0, 3), (2, 1, 2), (2, 3)])
    def test_objects_that_do_not_fit_rejected(self, shape):
        """Objects of another frame count (as when detections skip or add a frame),
        too few channels or another rank are refused."""
        with pytest.raises(InputError, match=re.escape(f"objects of shape {shape} do not fit a "
                                                       "skeleton of 2 frames and 3 channels")):
            data_io.append_object_nodes(np.zeros((2, 1, 3, 3)), np.zeros(shape))


class TestFlatConfig:
    KEYS = {"epochs": int, "base_lr": float}

    def test_parse_with_comments(self):
        text = "# schedule\nepochs = 10  # short run\n\nbase_lr = 0.05\n"
        assert data_io.parse_flat_config(text, self.KEYS) == {"epochs": 10, "base_lr": 0.05}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            data_io.parse_flat_config("optimiser = adam", self.KEYS)

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="line 1"):
            data_io.parse_flat_config("epochs = ten", self.KEYS)

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            data_io.parse_flat_config("epochs = 3\njust words", self.KEYS)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = {"layout": "chain", "samples": [{"id": "s0000", "label": 1}]}
        data_io.save_manifest(str(tmp_path), manifest)
        assert data_io.load_manifest(str(tmp_path)) == manifest

    def test_missing(self, tmp_path):
        with pytest.raises(InputError):
            data_io.load_manifest(str(tmp_path))

    @pytest.mark.parametrize("key,value,types", [
        ("num_persons", "2", "str, expected int"), ("num_frames", 4.0, "float, expected int"),
        ("num_joints", False, "bool, expected int"), ("layout", 17, "int, expected str"),
        ("num_objects", -1, "-1, expected >= 0"),
    ])
    def test_key_types(self, tmp_path, key, value, types):
        data_io.save_manifest(str(tmp_path), {"samples": [], key: value})
        with pytest.raises(FormatError, match=re.escape(f"key {key!r} is {types}")):
            data_io.load_manifest(str(tmp_path), (key,))
        data_io.load_manifest(str(tmp_path))  # only the keys asked for are checked
