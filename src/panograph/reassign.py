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
from dataclasses import dataclass, field

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

    def validate(self, num_joints: int) -> None:
        ids = [d.track_id for d in self.detections]
        if len(ids) != len(set(ids)):
            raise InputError(f"frame {self.frame_index}: duplicate track ids")
        for d in self.detections:
            if d.keypoints.shape != (num_joints, 3):
                raise InputError(
                    f"frame {self.frame_index}: track {d.track_id} has "
                    f"{d.keypoints.shape[0]} keypoints, expected {num_joints}"
                )


class TrackState:
    """Running center-trajectory statistics per track id.

    Keeps only length and first/second moments so the spread of Eq-style
    population std can be computed in O(1) per query.
    """

    def __init__(self):
        self._stats: dict[int, list[float]] = {}  # id -> [t, sx, sy, sxx, syy]

    def update(self, frame: PoseFrame) -> None:
        for d in frame.detections:
            x, y = d.bbox_center
            s = self._stats.setdefault(d.track_id, [0, 0.0, 0.0, 0.0, 0.0])
            s[0] += 1
            s[1] += x
            s[2] += y
            s[3] += x * x
            s[4] += y * y

    def length(self, track_id: int) -> int:
        return self._stats[track_id][0] if track_id in self._stats else 0

    def spread(self, track_id: int) -> float:
        return trajectory_spread(self._stats[track_id])


def trajectory_spread(stats: list[float]) -> float:
    """Population std of x plus population std of y from running sums."""
    t, sx, sy, sxx, syy = stats
    if t < 1:
        raise InputError("trajectory spread of an unobserved track")
    vx = max(sxx / t - (sx / t) ** 2, 0.0)
    vy = max(syy / t - (sy / t) ** 2, 0.0)
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
    slot_tracks: list[list[int | None]] = field(repr=False, default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "slot_mean_track_len": self.slot_mean_track_len,
                "dropped_per_frame": self.dropped_per_frame,
            }
        )


def mean_contiguous_run_length(track_seq: list[int | None]) -> float:
    """Average length of maximal same-id runs; absences break runs."""
    runs = []
    cur_id, cur_len = None, 0
    for tid in track_seq:
        if tid is not None and tid == cur_id:
            cur_len += 1
        else:
            if cur_len > 0:
                runs.append(cur_len)
            cur_id, cur_len = tid, (1 if tid is not None else 0)
    if cur_len > 0:
        runs.append(cur_len)
    return float(np.mean(runs)) if runs else 0.0


def assemble_sequence(
    frames: list[PoseFrame],
    num_slots: int,
    num_joints: int,
    score_mode: str = "conf+activeness",
) -> tuple[np.ndarray, AssignmentReport]:
    """Run reassignment over a clip and densify to a T x M x V x 3 tensor.

    Absent slots are zero-filled. The report carries the per-slot mean
    contiguous track length and the per-frame count of dropped detections.
    """
    if not frames:
        raise InputError("empty frame list")
    frames = sorted(frames, key=lambda f: f.frame_index)
    T = len(frames)
    data = np.zeros((T, num_slots, num_joints, 3))
    state = TrackState()
    slot_tracks: list[list[int | None]] = [[None] * T for _ in range(num_slots)]
    dropped = []
    for t, frame in enumerate(frames):
        frame.validate(num_joints)
        state.update(frame)
        assignment = reassign_frame(frame, state, num_slots, score_mode)
        dropped.append(len(frame.detections) - len(assignment))
        by_id = {d.track_id: d for d in frame.detections}
        for tid, slot in assignment.items():
            data[t, slot] = by_id[tid].keypoints
            slot_tracks[slot][t] = tid
    means = [mean_contiguous_run_length(seq) for seq in slot_tracks]
    return data, AssignmentReport(means, dropped, slot_tracks)


def parse_jsonl(lines, num_joints: int) -> list[PoseFrame]:
    """Parse the detection stream: one JSON object per line.

    Each record is {"t", "id", "conf", "bbox": [cx, cy, w, h],
    "kpts": [[x, y, v] x V]}. Raises InputError with the 1-based line
    number on malformed records and on NaN or infinite conf, bbox or kpts.
    """
    frames: dict[int, PoseFrame] = {}
    parsed: list[tuple[int, np.ndarray]] = []  # (line, kpts) for one finiteness check
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            t = int(rec["t"])
            kpts = np.asarray(rec["kpts"], dtype=float)
            if kpts.shape != (num_joints, 3):
                raise InputError(
                    f"line {lineno}: expected {num_joints} keypoints, got shape {kpts.shape}"
                )
            conf = float(rec["conf"])
            bbox = rec["bbox"]
            if not math.isfinite(conf):
                raise InputError(f"line {lineno}: non-finite value in 'conf'")
            if not all(map(math.isfinite, bbox)):
                raise InputError(f"line {lineno}: non-finite value in 'bbox'")
            det = Detection(
                track_id=int(rec["id"]),
                confidence=conf,
                keypoints=kpts,
                bbox_center=(float(bbox[0]), float(bbox[1])),
            )
        except InputError:
            raise
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            raise InputError(f"line {lineno}: malformed record ({exc})") from exc
        frames.setdefault(t, PoseFrame(t, [])).detections.append(det)
        parsed.append((lineno, kpts))
    # One vectorised check per stream: an np.isfinite call per record would add
    # about a sixth to the parse time of a crowded clip.
    if parsed:
        finite = np.isfinite(np.stack([k for _, k in parsed])).all(axis=(1, 2))
        if not finite.all():
            raise InputError(f"line {parsed[finite.argmin()][0]}: non-finite value in 'kpts'")
    return [frames[t] for t in sorted(frames)]
