"""Reassignment scoring and slot-mapping tests, with brute-force oracles."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panograph import reassign
from panograph.errors import ConfigError, InputError


def make_frame(t, entries, V=2):
    """entries: list of (track_id, conf, cx, cy)."""
    dets = []
    for tid, conf, cx, cy in entries:
        kpts = np.zeros((V, 3))
        kpts[:, 0] = cx
        kpts[:, 1] = cy
        kpts[:, 2] = 1.0
        dets.append(reassign.Detection(tid, conf, kpts, (cx, cy)))
    return reassign.PoseFrame(t, dets)


def brute_force_assign(scored, M):
    """Independent re-statement of the two-stage rule.

    ``scored``: list of (track_id, score). Selection keeps the M highest
    scores (ties to smaller id), then literally simulates both passes.
    """
    ranked = sorted(scored, key=lambda p: (-p[1], p[0]))
    kept = sorted(tid for tid, _ in ranked[:M])
    slots = {}
    pending = []
    for tid in kept:
        want = tid % M
        if want not in slots.values():
            slots[tid] = want
        else:
            pending.append(tid)
    free = sorted(set(range(M)) - set(slots.values()))
    for tid, slot in zip(sorted(pending), free):
        slots[tid] = slot
    return slots


def two_pass_spread(xs, ys):
    """Reference Eq.-style spread: explicit mean, then explicit variance."""
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    vx = sum((x - mx) ** 2 for x in xs) / len(xs)
    vy = sum((y - my) ** 2 for y in ys) / len(ys)
    return math.sqrt(vx) + math.sqrt(vy)


class TestSpread:
    def test_constant_trajectory(self):
        assert reassign.trajectory_spread([4, 4.0, 8.0, 4.0, 16.0]) == 0.0

    def test_two_point_example(self):
        # x=[0,2], y=[5,5] -> popstd(x)=1, popstd(y)=0
        stats = [2, 2.0, 10.0, 4.0, 50.0]
        assert reassign.trajectory_spread(stats) == pytest.approx(1.0, abs=1e-12)

    def test_three_point_example(self):
        # x=[0,1,2], y=[0,1,2] -> 2*sqrt(2/3)
        stats = [3, 3.0, 3.0, 5.0, 5.0]
        expected = 2 * math.sqrt(2 / 3)
        assert reassign.trajectory_spread(stats) == pytest.approx(expected, abs=1e-12)

    def test_unobserved_track(self):
        with pytest.raises(InputError):
            reassign.trajectory_spread([0, 0, 0, 0, 0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)), min_size=1, max_size=40))
    def test_running_sums_match_two_pass(self, points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        stats = [len(xs), sum(xs), sum(ys), sum(x * x for x in xs), sum(y * y for y in ys)]
        assert reassign.trajectory_spread(stats) == pytest.approx(
            two_pass_spread(xs, ys), abs=1e-9, rel=1e-9
        )


class TestActiveness:
    def test_uniform(self):
        assert reassign.activeness([3.0] * 4) == pytest.approx([0.25] * 4)

    def test_single(self):
        assert reassign.activeness([123.4]) == [1.0]

    def test_ratio(self):
        out = reassign.activeness([0.0, math.log(3)])
        assert out == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_empty(self):
        with pytest.raises(InputError):
            reassign.activeness([])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=8))
    def test_large_spreads_stay_finite(self, spreads):
        out = reassign.activeness(spreads)
        assert all(math.isfinite(v) for v in out)
        assert sum(out) == pytest.approx(1.0, abs=1e-9)


class TestReassignFrame:
    def run_ids(self, entries, M, mode="conf_only"):
        frame = make_frame(0, entries)
        state = reassign.TrackState()
        state.update(frame)
        return reassign.reassign_frame(frame, state, M, score_mode=mode)

    def test_no_conflict(self):
        out = self.run_ids([(4, 0.9, 0, 0), (5, 0.9, 1, 0)], 2)
        assert out == {4: 0, 5: 1}

    def test_mod_conflict_smaller_id_wins(self):
        out = self.run_ids([(4, 0.9, 0, 0), (6, 0.9, 1, 0)], 2)
        assert out == {4: 0, 6: 1}

    def test_top_m_drops_lowest_score(self):
        out = self.run_ids([(7, 1.5, 0, 0), (8, 1.2, 1, 0), (9, 0.3, 2, 0)], 2)
        assert out == {8: 0, 7: 1}

    def test_empty_frame(self):
        frame = reassign.PoseFrame(0, [])
        assert reassign.reassign_frame(frame, reassign.TrackState(), 3) == {}

    def test_zero_slots(self):
        with pytest.raises(ConfigError):
            self.run_ids([(1, 0.5, 0, 0)], 0)

    def test_unknown_score_mode(self):
        frame = make_frame(0, [(1, 0.5, 0, 0)])
        state = reassign.TrackState()
        state.update(frame)
        with pytest.raises(ConfigError):
            reassign.reassign_frame(frame, state, 2, score_mode="bbox_area")

    def test_activeness_changes_ranking(self):
        # two low-conf movers vs one high-conf statue, single slot
        frames = [
            make_frame(t, [(1, 0.5, 10.0 * t, 0.0), (2, 0.8, 5.0, 5.0)]) for t in range(4)
        ]
        state = reassign.TrackState()
        for f in frames:
            state.update(f)
        full = reassign.reassign_frame(frames[-1], state, 1, "conf+activeness")
        conf = reassign.reassign_frame(frames[-1], state, 1, "conf_only")
        assert conf == {2: 0}
        assert full == {1: 0}  # mover's activeness outweighs the 0.3 conf gap

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_oracle_equivalence(self, data):
        M = data.draw(st.integers(1, 4))
        m_t = data.draw(st.integers(1, 8))
        ids = data.draw(
            st.lists(st.integers(0, 30), min_size=m_t, max_size=m_t, unique=True)
        )
        confs = data.draw(st.lists(st.floats(0, 1), min_size=m_t, max_size=m_t))
        entries = [(tid, c, float(tid), 0.0) for tid, c in zip(ids, confs)]
        out = self.run_ids(entries, M)
        assert out == brute_force_assign(list(zip(ids, confs)), M)
        # structural invariants on the assignment
        assert len(set(out.values())) == len(out)
        assert len(out) == min(m_t, M)


class TestRunLength:
    def test_full_presence(self):
        assert reassign.mean_contiguous_run_length([7] * 10) == 10.0

    def test_absence_breaks_runs(self):
        assert reassign.mean_contiguous_run_length([3, 3, None, 3]) == pytest.approx(1.5)

    def test_id_switch_breaks_runs(self):
        assert reassign.mean_contiguous_run_length([1, 1, 2, 2, 2]) == pytest.approx(2.5)

    def test_empty(self):
        assert reassign.mean_contiguous_run_length([None, None]) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.integers(0, 3)), max_size=30))
    def test_against_recount(self, seq):
        # independent recount: split on None, then group equal neighbours
        runs = []
        cur = []
        for tid in seq + [None]:
            if cur and (tid is None or tid != cur[-1]):
                runs.append(len(cur))
                cur = []
            if tid is not None:
                cur.append(tid)
        expected = sum(runs) / len(runs) if runs else 0.0
        assert reassign.mean_contiguous_run_length(seq) == pytest.approx(expected)


class TestAssembleSequence:
    def test_single_detection_fills_one_slot(self):
        frames = [make_frame(0, [(2, 0.9, 3.0, 4.0)])]
        tensor, report = reassign.assemble_sequence(frames, 2, 2)
        assert tensor.shape == (1, 2, 2, 3)
        assert np.all(tensor[0, 0, :, 0] == 3.0)
        assert np.all(tensor[0, 1] == 0)
        assert report.dropped_per_frame == [0]

    def test_persistent_track_run_length(self):
        T = 6
        frames = [make_frame(t, [(1, 0.9, float(t), 0.0)]) for t in range(T)]
        _, report = reassign.assemble_sequence(frames, 2, 2)
        assert report.slot_mean_track_len[1] == T  # id 1 -> slot 1 mod 2
        assert report.slot_mean_track_len[0] == 0.0

    def test_mid_clip_id_switch_report(self):
        frames = [
            make_frame(t, [(1 if t < 3 else 3, 0.9, float(t), 0.0)]) for t in range(6)
        ]
        _, report = reassign.assemble_sequence(frames, 2, 2)
        # slot 1 sees id 1 for 3 frames then id 3 for 3 frames
        assert report.slot_tracks[1] == [1, 1, 1, 3, 3, 3]
        assert report.slot_mean_track_len[1] == pytest.approx(3.0)

    def test_empty_clip(self):
        with pytest.raises(InputError):
            reassign.assemble_sequence([], 2, 2)

    def test_determinism(self):
        frames = [
            make_frame(t, [(1, 0.7, float(t), 0.0), (2, 0.7, 0.0, float(t))])
            for t in range(5)
        ]
        a, _ = reassign.assemble_sequence(frames, 2, 2)
        frames2 = [
            make_frame(t, [(1, 0.7, float(t), 0.0), (2, 0.7, 0.0, float(t))])
            for t in range(5)
        ]
        b, _ = reassign.assemble_sequence(frames2, 2, 2)
        assert np.array_equal(a, b)


class TestParseJsonl:
    def record(self, t=0, tid=1, V=2, kpts=None):
        return json.dumps(
            {
                "t": t,
                "id": tid,
                "conf": 0.9,
                "bbox": [1.0, 2.0, 40.0, 80.0],
                "kpts": kpts if kpts is not None else [[0.0, 0.0, 1.0]] * V,
            }
        )

    def test_groups_by_frame(self):
        lines = [self.record(t=1, tid=2), self.record(t=0, tid=1), self.record(t=1, tid=3)]
        frames = reassign.parse_jsonl(lines, 2)
        assert [f.frame_index for f in frames] == [0, 1]
        assert [d.track_id for d in frames[1].detections] == [2, 3]

    def test_blank_lines_skipped(self):
        frames = reassign.parse_jsonl([self.record(), "", "   "], 2)
        assert len(frames) == 1

    def test_wrong_keypoint_count_line_numbered(self):
        lines = [self.record(), self.record(kpts=[[0, 0, 1]] * 3)]
        with pytest.raises(InputError, match="line 2"):
            reassign.parse_jsonl(lines, 2)

    def test_missing_key_line_numbered(self):
        with pytest.raises(InputError, match="line 1"):
            reassign.parse_jsonl(['{"t": 0, "id": 1}'], 2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("conf", float("nan")),
            ("bbox", [float("inf"), 0.0, 40.0, 80.0]),
            ("kpts", [[float("inf"), 0.0, 1.0], [0.0, 0.0, 1.0]]),
        ],
    )
    def test_non_finite_field_line_numbered(self, field, value):
        rec = json.loads(self.record())
        rec[field] = value
        with pytest.raises(InputError, match=f"line 2: non-finite value in '{field}'"):
            reassign.parse_jsonl([self.record(), json.dumps(rec)], 2)

    def test_short_bbox_line_numbered(self):
        rec = json.loads(self.record())
        rec["bbox"] = [1.0]
        with pytest.raises(InputError, match="line 1: malformed"):
            reassign.parse_jsonl([json.dumps(rec)], 2)

    def test_duplicate_ids_in_frame_rejected_on_validate(self):
        lines = [self.record(tid=5), self.record(tid=5)]
        frames = reassign.parse_jsonl(lines, 2)
        with pytest.raises(InputError):
            frames[0].validate(2)
