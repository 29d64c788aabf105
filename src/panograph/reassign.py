"""Track-to-slot reassignment.

Maps a variable number of tracked pose detections per frame onto a fixed
roster of M person slots. Each detection is scored by detection confidence
plus "activeness" (softmax-normalized trajectory spread); the top-M tracks
claim slots via id mod M with smaller-id conflict resolution, and leftovers
fill free slots in order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError


@dataclass
class Detection:
    track_id: int
    confidence: float
    keypoints: np.ndarray  # (V, 3): x, y, visibility
    bbox_center: tuple[float, float]


@dataclass
class PoseFrame:
    frame_index: int
    detections: list[Detection]


class TrackState:
    """Running center-trajectory statistics per track id.

    Keeps only length and first/second moments so the spread of Eq-style
    population std can be computed in O(1) per query. The moments are of
    each center minus the track's first center: the spread does not change
    under a shift, and small offsets keep E[x^2] - mean^2 from cancelling
    when a track sits far from the origin.
    """

    def __init__(self):
        self._stats: dict[int, list[float]] = {}  # id -> [t, sx, sy, sxx, syy]
        self._origin: dict[int, tuple[float, float]] = {}  # id -> first center

    def update(self, frame: PoseFrame) -> None:
        for d in frame.detections:
            x0, y0 = self._origin.setdefault(d.track_id, d.bbox_center)
            x, y = d.bbox_center[0] - x0, d.bbox_center[1] - y0
            s = self._stats.setdefault(d.track_id, [0, 0.0, 0.0, 0.0, 0.0])
            s[0] += 1
            s[1] += x
            s[2] += y
            s[3] += x * x
            s[4] += y * y

    def spread(self, track_id: int) -> float:
        spread = trajectory_spread(self._stats[track_id])
        if not math.isfinite(spread):  # centres too far apart for float64 moments
            raise InputError(f"track {track_id}: trajectory spread is not finite")
        return spread


def trajectory_spread(stats: list[float]) -> float:
    """Population std of x plus population std of y from running sums.

    Squares are products: float ``**`` raises OverflowError where ``*`` gives inf.
    """
    t, sx, sy, sxx, syy = stats
    if t < 1:
        raise InputError("trajectory spread of an unobserved track")
    mx, my = sx / t, sy / t
    vx = max(sxx / t - mx * mx, 0.0)
    vy = max(syy / t - my * my, 0.0)
    return math.sqrt(vx) + math.sqrt(vy)


def activeness(spreads: list[float]) -> list[float]:
    """Softmax over the spreads of currently detected tracks."""
    if not spreads:
        raise InputError("activeness of an empty detection set")
    m = max(spreads)
    exps = [math.exp(s - m) for s in spreads]
    z = sum(exps)
    return [e / z for e in exps]


def reassign_frame(
    frame: PoseFrame,
    state: TrackState,
    num_slots: int,
    score_mode: str = "conf+activeness",
) -> dict[int, int]:
    """Two-stage assignment of this frame's tracks to roster slots.

    Returns {track_id: slot}. ``state`` must already include this frame's
    detections. ``score_mode`` selects the full score (confidence plus
    activeness) or the confidence-only baseline.
    """
    if num_slots <= 0:
        raise ConfigError("roster size must be positive")
    if score_mode not in ("conf+activeness", "conf_only"):
        raise ConfigError(f"unknown score mode {score_mode!r}")
    if not frame.detections:
        return {}

    ids = [d.track_id for d in frame.detections]
    scores = [d.confidence for d in frame.detections]
    if score_mode == "conf+activeness":
        act = activeness([state.spread(i) for i in ids])
        scores = [c + a for c, a in zip(scores, act)]

    # top-M by score, ties broken toward the smaller track id
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    kept = sorted(ids[i] for i in order[:num_slots])

    assignment: dict[int, int] = {}
    taken: set[int] = set()
    leftover = []
    for tid in kept:  # ascending id: smaller id wins its mod slot
        slot = tid % num_slots
        if slot in taken:
            leftover.append(tid)
        else:
            assignment[tid] = slot
            taken.add(slot)
    free = [s for s in range(num_slots) if s not in taken]
    for tid, slot in zip(leftover, free):
        assignment[tid] = slot
    return assignment


@dataclass
class AssignmentReport:
    slot_mean_track_len: list[float]
    dropped_per_frame: list[int]


def mean_contiguous_run_length(track_seq: list[int | None]) -> float:
    """Average length of maximal same-id runs; absences break runs.

    A run starts at each entry that is not None and differs from the one before it.
    """
    starts = sum(tid is not None and tid != prev for prev, tid in zip([None] + track_seq, track_seq))
    return sum(tid is not None for tid in track_seq) / starts if starts else 0.0


def assemble_sequence(
    frames: list[PoseFrame],
    num_slots: int,
    num_joints: int,
    score_mode: str = "conf+activeness",
    *,
    num_frames: int | None = None,
) -> tuple[np.ndarray, AssignmentReport]:
    """Run reassignment over a clip and densify to a T x M x V x 3 tensor.

    T is ``num_frames`` (default: one frame per given frame, and at least
    one), and each frame fills row ``frame_index``; an index outside [0, T)
    raises InputError. Absent slots and rows without a frame are zero-filled.
    The report carries the per-slot mean contiguous track length and the
    per-frame count of dropped detections.
    """
    if not frames and num_frames is None:
        raise InputError("empty frame list")
    frames = sorted(frames, key=lambda f: f.frame_index)
    T = len(frames) if num_frames is None else num_frames
    for f in frames[:1] + frames[-1:]:
        if not 0 <= f.frame_index < T:
            raise InputError(f"frame {f.frame_index} outside a clip of {T} frames")
    data = np.zeros((T, num_slots, num_joints, 3))
    state = TrackState()
    slot_tracks: list[list[int | None]] = [[None] * T for _ in range(num_slots)]
    dropped = [0] * T
    for frame in frames:
        t = frame.frame_index
        state.update(frame)
        assignment = reassign_frame(frame, state, num_slots, score_mode)
        dropped[t] = len(frame.detections) - len(assignment)
        by_id = {d.track_id: d for d in frame.detections}
        for tid, slot in assignment.items():
            data[t, slot] = by_id[tid].keypoints
            slot_tracks[slot][t] = tid
    means = [mean_contiguous_run_length(seq) for seq in slot_tracks]
    return data, AssignmentReport(means, dropped)


# The types json.loads gives a JSON number; a bool (JSON true/false) is neither.
JSON_NUMBER = frozenset((int, float))


def parse_jsonl(lines, num_joints: int) -> list[PoseFrame]:
    """Parse the detection stream: one JSON object per line.

    Each record is {"t", "id", "conf", "bbox": [cx, cy, w, h],
    "kpts": [[x, y, v] x V]}: ``t`` and ``id`` are JSON integers (not
    booleans), ``conf`` a number in [0, 1] and ``bbox`` a list of 4
    numbers. Raises InputError with the 1-based line number on malformed
    records, on NaN or infinite conf, bbox or kpts, and on a track id that
    repeats within a frame.
    """
    frames: dict[int, PoseFrame] = {}
    parsed: list[tuple[int, np.ndarray]] = []  # (line, kpts) for one finiteness check
    first_line: dict[tuple[int, int], int] = {}  # (t, id) -> line
    repeat = None  # the first repeated (t, id), raised after every per-field check
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            t, conf, bbox = rec["t"], rec["conf"], rec["bbox"]
            for key in ("t", "id"):
                if type(rec[key]) is not int:  # not isinstance: a bool is an int subclass
                    raise ValueError(f"{key!r} must be an integer, got {rec[key]!r}")
            kpts = np.asarray(rec["kpts"], dtype=float)
            if kpts.shape != (num_joints, 3):
                raise InputError(
                    f"line {lineno}: expected {num_joints} keypoints, got shape {kpts.shape}"
                )
            if type(conf) not in JSON_NUMBER or not 0 <= conf <= 1:  # NaN and inf fail the range too
                if type(conf) is float and not math.isfinite(conf):
                    raise InputError(f"line {lineno}: non-finite value in 'conf'")
                raise ValueError(f"'conf' must be a number in [0, 1], got {conf!r}")
            if type(bbox) is not list or len(bbox) != 4 or not JSON_NUMBER.issuperset(map(type, bbox)):
                raise ValueError("'bbox' must be a list of 4 numbers")
            if not all(map(math.isfinite, bbox)):
                raise InputError(f"line {lineno}: non-finite value in 'bbox'")
            det = Detection(
                track_id=rec["id"],
                confidence=float(conf),
                keypoints=kpts,
                bbox_center=(float(bbox[0]), float(bbox[1])),
            )
        except InputError:
            raise
        except (KeyError, ValueError, TypeError, OverflowError) as exc:  # a huge int overflows a float
            raise InputError(f"line {lineno}: malformed record ({exc})") from exc
        frames.setdefault(t, PoseFrame(t, [])).detections.append(det)
        parsed.append((lineno, kpts))
        first = first_line.setdefault((t, det.track_id), lineno)
        if first != lineno and repeat is None:
            repeat = f"line {lineno}: track {det.track_id} repeats in frame {t} (line {first})"
    # One vectorised check per stream: an np.isfinite call per record would add
    # about a sixth to the parse time of a crowded clip.
    if parsed:
        finite = np.isfinite(np.stack([k for _, k in parsed])).all(axis=(1, 2))
        if not finite.all():
            raise InputError(f"line {parsed[finite.argmin()][0]}: non-finite value in 'kpts'")
    if repeat is not None:
        raise InputError(repeat)
    return [frames[t] for t in sorted(frames)]
