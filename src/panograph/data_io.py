"""File formats and synthetic data generation.

Binary tensor container ("PGT1"): little-endian, magic + entry count, then
per entry a length-prefixed UTF-8 name, dtype tag (f32/f64/u8), rank, dims
and raw payload. Used for skeleton tensors, feature caches and checkpoints
(whose config is a u8 entry of JSON text).
"""
from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, InputError
from .reassign import Detection, PoseFrame, assemble_sequence

MAGIC = b"PGT1"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_DTYPE_TAGS = {np.dtype("float32"): 0, np.dtype("float64"): 1, np.dtype("uint8"): 2}


def write_tensor_container(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Atomically write named tensors; float32, float64 or uint8, anything else as float64."""
    chunks = [MAGIC, struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype not in _DTYPE_TAGS:
            arr = arr.astype(np.float64)
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<BB", _DTYPE_TAGS[arr.dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())
    write_atomic(path, lambda fh: fh.write(b"".join(chunks)), "wb")


def write_atomic(path: str, write, mode: str) -> None:
    """Call ``write(fh)`` on a temp file beside ``path``, then rename it over
    ``path``: a reader sees the old file or the new one, never a partial one,
    and a failed write leaves no temp file behind."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_input(path: str, text: bool = True) -> str | bytes:
    """The whole file, as UTF-8 text or (``text=False``) as bytes. InputError names
    the path if it cannot be read, FormatError if its text is not UTF-8."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror})") from exc
    if not text:
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 (byte {exc.start}: {exc.reason})") from exc


def read_tensor_container(path: str, require: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
    """Every entry by name; FormatError names the path and what is malformed (names
    repeat, a float entry holds NaN or inf), or the first name in ``require`` that has
    no entry."""
    data = read_input(path, text=False)
    if data[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 8:
        raise FormatError(f"{path}: truncated header")
    (count,) = struct.unpack_from("<I", data, 4)
    off = 8
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", data, off)
            off += 2
            name = data[off : off + name_len].decode("utf-8")
            off += name_len
            tag, rank = struct.unpack_from("<BB", data, off)
            off += 2
            dims = struct.unpack_from(f"<{rank}I", data, off)
            off += 4 * rank
        except struct.error as exc:
            raise FormatError(f"{path}: truncated entry header at offset {off}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: entry name at offset {off} is not UTF-8") from exc
        if tag not in _DTYPES:
            raise FormatError(f"{path}: entry {name!r} has unknown dtype tag {tag}")
        if name in out:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        dtype = _DTYPES[tag]
        nbytes = math.prod(dims) * dtype.itemsize  # Python ints: an int64 product can wrap
        payload = data[off : off + nbytes]
        if len(payload) != nbytes:
            raise FormatError(f"{path}: truncated payload for entry {name!r}")
        off += nbytes
        try:
            out[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
        except ValueError as exc:  # a rank over numpy's limit, or a zero dim beside huge ones
            raise FormatError(f"{path}: entry {name!r} has shape {dims}: {exc}") from exc
        if dtype.kind == "f" and not np.isfinite(out[name]).all():
            raise FormatError(f"{path}: entry {name!r} is not finite")
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes after {count} entries")
    for name in require:
        if name not in out:
            raise FormatError(f"{path}: lacks entry {name!r}")
    return out


@dataclass
class SyntheticSpec:
    """Parameters of the synthetic desk-scale activity generator."""

    num_classes: int = 8
    samples_per_class: int = 8
    num_persons: int = 3
    num_joints: int = 5
    num_objects: int = 1
    num_frames: int = 16
    noise_std: float = 0.5
    seed: int = 0
    num_distractors: int = 2
    distractor_conf: float = 0.3
    player_conf: float = 0.8
    conf_jitter: float = 0.0
    dropout_prob: float = 0.0
    id_switch_prob: float = 0.0

    def validate(self) -> None:
        for name in ("num_classes", "samples_per_class", "num_persons",
                     "num_joints", "num_frames"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("noise_std", "num_objects", "num_distractors", "conf_jitter", "seed"):
            if not 0 <= getattr(self, name):  # every comparison with nan is False
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("noise_std", "conf_jitter"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("dropout_prob", "id_switch_prob", "distractor_conf", "player_conf"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)!r}")


@dataclass
class SyntheticSample:
    label: int
    skeleton: np.ndarray  # (T, M, V, 3): ground-truth slot-assigned players
    objects: np.ndarray  # (T, n, 3)
    clean: np.ndarray  # (T,) 1.0 where no dropout corrupted the frame
    jsonl: list[str]


def _class_params(label: int, num_persons: int):
    freq = 1.0 + (label % 2)
    antiphase = (label >> 1) % 2
    vertical = (label >> 2) % 2
    ball_a = label % num_persons
    ball_b = (ball_a + 1 + label // 4) % num_persons if num_persons > 1 else 0
    return freq, antiphase, vertical, (ball_a, ball_b)


def _player_poses(M, V, T, freq, phases, vertical):
    """Chains of V joints hanging from M centers that oscillate at ``phases`` (M,), with
    limb swing, over T frames: (T, M, V, 3) keypoints and (T, M, 2) centers, before noise."""
    theta = 2 * np.pi * freq * np.arange(T)[:, None] / T + phases
    swing, still = 25.0 * np.sin(theta), np.zeros((T, M))
    dx, dy = (still, swing) if vertical else (swing, still)
    centers = np.stack([150.0 + 180.0 * np.arange(M) + dx, 300.0 + dy], axis=2)
    joints = np.ones((T, M, V, 3))
    joints[..., 0] = centers[..., :1] + 6.0 * np.sin(theta[..., None] + 0.8 * np.arange(V))
    joints[..., 1] = centers[..., 1:] + 12.0 * np.arange(V)
    return joints, centers


def generate_sample(spec: SyntheticSpec, label: int, rng: np.random.Generator) -> SyntheticSample:
    """One clip: oscillating players, a traveling ball, optional corruption.

    Each class fixes the oscillation frequency, the phase relation between
    players, the motion axis, and the ball route; a random global phase per
    sample keeps raw coordinates uninformative so motion carries the class.
    """
    M, V, T = spec.num_persons, spec.num_joints, spec.num_frames
    freq, antiphase, vertical, (ball_a, ball_b) = _class_params(label, M)
    global_phase = rng.uniform(0, 2 * np.pi)
    poses, centers = _player_poses(M, V, T, freq, global_phase + np.pi * np.arange(M) * antiphase, vertical)

    player_ids = list(range(1, M + 1))
    next_id = M + spec.num_distractors + 1
    distractors = []  # (id, keypoints shared by every frame, center)
    for d in range(spec.num_distractors):
        dx, dy = 100.0 + 37.0 * d, 80.0
        kpts = np.stack([np.full(V, dx), dy + 12.0 * np.arange(V), np.ones(V)], axis=1)
        distractors.append((M + 1 + d, kpts, (dx, dy)))

    objects = np.zeros((T, spec.num_objects, 3))
    clean = np.ones(T)
    lines: list[str] = []
    player_frames: list[PoseFrame] = []  # the ground truth is their slot tensor

    for t in range(T):
        poses[t, ..., :2] += rng.normal(0.0, spec.noise_std, size=(M, V, 2))

        # ball travels back and forth between the two designated players
        if spec.num_objects > 0:
            w = 0.5 * (1 + np.sin(2 * np.pi * t / T + global_phase))
            ca, cb = centers[t, ball_a], centers[t, ball_b]
            ball = (1 - w) * ca + w * cb + rng.normal(0.0, spec.noise_std, size=2)
            objects[t, 0, :2] = ball
            objects[t, 0, 2] = 1.0
            for s in range(1, spec.num_objects):
                objects[t, s, :2] = ball + (5.0 * s, -5.0 * s)
                objects[t, s, 2] = 1.0

        players = PoseFrame(t, [])
        for p in range(M):
            if rng.random() < spec.id_switch_prob:
                player_ids[p] = next_id
                next_id += 1
            if spec.dropout_prob > 0 and rng.random() < spec.dropout_prob:
                clean[t] = 0.0
                continue
            conf = float(np.clip(spec.player_conf + spec.conf_jitter * rng.standard_normal(), 0.05, 1.0))
            players.detections.append(Detection(player_ids[p], conf, poses[t, p], tuple(centers[t, p])))
        player_frames.append(players)
        detections = list(players.detections)
        for did, kpts, center in distractors:
            conf = float(np.clip(spec.distractor_conf + spec.conf_jitter * rng.standard_normal(), 0.05, 1.0))
            detections.append(Detection(did, conf, kpts, center))

        for d in detections:
            lines.append(
                json.dumps(
                    {
                        "t": t,
                        "id": d.track_id,
                        "conf": round(d.confidence, 6),
                        "bbox": [d.bbox_center[0], d.bbox_center[1], 40.0, 80.0],
                        "kpts": [[round(v, 6) for v in kp] for kp in d.keypoints.tolist()],
                    }
                )
            )

    skeleton, _ = assemble_sequence(player_frames, M, V)
    return SyntheticSample(label, skeleton, objects, clean, lines)


def generate_synthetic(spec: SyntheticSpec) -> list[SyntheticSample]:
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    samples = []
    for label in range(spec.num_classes):
        for _ in range(spec.samples_per_class):
            samples.append(generate_sample(spec, label, rng))
    return samples


def append_object_nodes(skeleton: np.ndarray, objects: np.ndarray) -> np.ndarray:
    """Expand (T, M, V, C) to (T, M, V+n, C): every person gets the same
    object coordinates as non-shared per-person nodes."""
    T, M, V, C = skeleton.shape
    if objects.ndim != 3 or objects.shape[0] != T or objects.shape[2] < C:
        raise InputError(f"objects of shape {objects.shape} do not fit a skeleton of {T} frames "
                         f"and {C} channels")
    out = np.zeros((T, M, V + objects.shape[1], C))
    out[:, :, :V, :] = skeleton
    out[:, :, V:, :] = objects[:, None, :, :C]
    return out


def parse_flat_config(text: str, known_keys: dict[str, type]) -> dict:
    """key = value lines; '#' comments; unknown or repeated keys are hard errors."""
    out: dict = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known_keys:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in line_of:
            raise ConfigError(f"config line {lineno}: key {key!r} already set on line {line_of[key]}")
        line_of[key] = lineno
        caster = known_keys[key]
        try:
            out[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: bad value for {key!r}: {value!r}") from exc
    return out


def load_manifest(data_dir: str, keys=(), sample_keys=()) -> dict:
    """The manifest; FormatError if it lacks 'samples', a ``keys`` key or a ``sample_keys`` key,
    or if such a key has the wrong type: ``num_*`` and ``label`` are ints >= 0, the rest strings.
    A sample ``id`` names the sample's files, so it must be a plain file name (not empty, ``.``
    or ``..``, and without ``/``, ``\\`` or NUL) that no earlier sample uses."""
    path = os.path.join(data_dir, "manifest.json")
    try:
        manifest = json.loads(read_input(path))
    except ValueError as exc:
        raise FormatError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("samples"), list):
        raise FormatError(f"{path}: expected an object with a 'samples' list")
    ids: dict[str, int] = {}  # sample id -> the first sample that uses it
    for i, entry in enumerate([manifest] + manifest["samples"]):
        where = f"{path}: sample {i - 1}" if i else f"{path}:"
        for key in sample_keys if i else keys:
            if not isinstance(entry, dict) or key not in entry:
                raise FormatError(f"{where} lacks key {key!r}")
            want = int if key.startswith("num_") or key == "label" else str
            if not isinstance(entry[key], want) or isinstance(entry[key], bool):
                raise FormatError(f"{where} key {key!r} is {type(entry[key]).__name__}, "
                                  f"expected {want.__name__}")
            if want is int and entry[key] < 0:
                raise FormatError(f"{where} key {key!r} is {entry[key]}, expected >= 0")
            if key == "id" and (entry[key] in ("", ".", "..") or any(c in entry[key] for c in "/\\\0")):
                raise FormatError(f"{where} key 'id' is {entry[key]!r}, expected a plain file name")
            if key == "id" and ids.setdefault(entry[key], i - 1) != i - 1:
                raise FormatError(f"{where} key 'id' is {entry[key]!r}, already sample {ids[entry[key]]}'s")
    return manifest


def save_manifest(data_dir: str, manifest: dict) -> None:
    write_atomic(os.path.join(data_dir, "manifest.json"),
                 lambda fh: json.dump(manifest, fh, indent=1), "w")
