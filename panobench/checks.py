"""Correctness checks restated apart from the program.

Each check takes what the program produced and raises ``CheckFailed`` with a
reason when the result disagrees with a restatement written here from the
specification: the PGT1 layout, the two-stage slot rule, the four feature
streams, the Nesterov/weight-decay step and the evaluation metrics. Nothing
here calls the code it checks; the training checks drive the model only
through ``forward``/``backward`` and the branch-freezing switch of its layers.
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

SCORE_TIE_TOL = 1e-9  # scores this close are a tie up to rounding of the spread sums
FD_STEP = 1e-5
FD_ABS_FLOOR = 1e-7
GRAD_TOL = 1e-4  # the repository's gradcheck tolerance


class CheckFailed(Exception):
    """An output disagreed with its restatement."""


def require(ok, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# --- PGT1 container -------------------------------------------------------

def read_pgt1(path: str) -> dict[str, np.ndarray]:
    """Independent PGT1 reader: magic, u32 count, then per entry u16 name
    length, name, u8 dtype tag (0 f32, 1 f64), u8 rank, u32 dims, payload.
    The file must end exactly after the last payload."""
    with open(path, "rb") as fh:
        data = fh.read()
    require(data[:4] == b"PGT1" and len(data) >= 8, f"{path}: not a PGT1 file")
    (count,) = struct.unpack_from("<I", data, 4)
    off, out = 8, {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", data, off)
        name = data[off + 2 : off + 2 + nlen].decode("utf-8")
        off += 2 + nlen
        tag, rank = struct.unpack_from("<BB", data, off)
        dims = struct.unpack_from(f"<{rank}I", data, off + 2)
        off += 2 + 4 * rank
        require(tag in (0, 1), f"{path}: entry {name!r} has dtype tag {tag}")
        dtype = np.dtype("<f4") if tag == 0 else np.dtype("<f8")
        nbytes = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize
        require(off + nbytes <= len(data), f"{path}: entry {name!r} truncated")
        out[name] = np.frombuffer(data, dtype=dtype, count=nbytes // dtype.itemsize, offset=off).reshape(dims)
        off += nbytes
    require(off == len(data), f"{path}: {len(data) - off} bytes after the last entry")
    return out


# --- two-stage reassignment -----------------------------------------------

def _pstd(values: list[float]) -> float:
    """Two-pass population standard deviation."""
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def slots_for(kept_ids, num_slots: int) -> dict[int, int]:
    """Stage two: ascending ids claim ``id mod M`` (the smaller id wins a
    clash); the losers take the free slots in ascending order."""
    assignment, leftover = {}, []
    for tid in sorted(kept_ids):
        slot = tid % num_slots
        if slot in assignment.values():
            leftover.append(tid)
        else:
            assignment[tid] = slot
    free = [s for s in range(num_slots) if s not in assignment.values()]
    assignment.update(zip(leftover, free))
    return assignment


def check_slot_tensor(jsonl_lines, tensor: np.ndarray, objects: np.ndarray, num_slots: int) -> int:
    """Check a written (T, M, V+n, 3) slot tensor against the JSONL stream.

    Every track is scored as its confidence plus a softmax over the spreads
    (x std + y std, two-pass, population) of the centres seen so far. The
    slots must hold exactly the top-M tracks, ties going to the smaller id,
    placed by ``slots_for``. A dropped track may outscore a kept one by at
    most ``SCORE_TIE_TOL``: players of one clip share amplitude and period,
    so their spreads tie exactly and only rounding, which differs between
    running sums and a two-pass std, separates them. Returns the number of
    frames checked.
    """
    frames: dict[int, list[dict]] = {}
    for line in jsonl_lines:
        if line.strip():
            rec = json.loads(line)
            frames.setdefault(int(rec["t"]), []).append(rec)
    T, M = tensor.shape[:2]
    V = len(next(iter(frames.values()))[0]["kpts"])
    require(M == num_slots and T == len(frames), f"tensor shape {tensor.shape} for {len(frames)} frames")
    require(np.array_equal(tensor[:, :, V:, :], np.broadcast_to(objects[:, None], (T, M) + objects.shape[1:])),
            "object nodes differ from the generated objects")
    history: dict[int, tuple[list[float], list[float]]] = {}
    for t, key in enumerate(sorted(frames)):
        dets = frames[key]
        for d in dets:
            xs, ys = history.setdefault(int(d["id"]), ([], []))
            xs.append(float(d["bbox"][0]))
            ys.append(float(d["bbox"][1]))
        spreads = [_pstd(history[int(d["id"])][0]) + _pstd(history[int(d["id"])][1]) for d in dets]
        top = max(spreads)
        exps = [math.exp(s - top) for s in spreads]
        z = sum(exps)
        score = {int(d["id"]): float(d["conf"]) + e / z for d, e in zip(dets, exps)}
        kpts = {int(d["id"]): np.asarray(d["kpts"], dtype=float) for d in dets}

        observed: dict[int, int] = {}
        for slot in range(M):
            row = tensor[t, slot, :V, :]
            if not row.any():
                continue
            match = [tid for tid, k in kpts.items() if np.array_equal(k, row)]
            require(match, f"frame {t} slot {slot} holds keypoints of no detection")
            require(match[0] not in observed, f"frame {t}: track {match[0]} fills two slots")
            observed[match[0]] = slot
        kept = set(observed)
        require(len(kept) == min(M, len(dets)), f"frame {t}: {len(kept)} slots filled for {len(dets)} tracks")
        for k in kept:
            for d in set(score) - kept:
                require(score[d] - score[k] <= SCORE_TIE_TOL, f"frame {t}: kept track {k} "
                        f"(score {score[k]:.9f}) over dropped track {d} (score {score[d]:.9f})")
        require(observed == slots_for(kept, M), f"frame {t}: slots {observed} break the id-mod-M rule")
    return T


# --- feature streams ------------------------------------------------------

def restate_streams(x: np.ndarray, num_joints: int) -> dict[str, np.ndarray]:
    """The four streams of a chain-layout (T, M, N', C) slot tensor, by loops.

    Parents are j -> j-1 with joint 0 its own parent and every object node
    hanging from joint 0; the centre is joint V // 2. Node m*N' + j of the
    output is node j of person m. Joint: [x, x - centre] with visibility
    unshifted; bone: [b, arccos(b_c / |b_xy|)] (pi/2 for a zero bone) with
    visibility carried; motions: [one-hop, two-hop] forward differences,
    zero at the tail.
    """
    T, M, Np, C = x.shape
    parent = [max(j - 1, 0) if j < num_joints else 0 for j in range(Np)]
    centre = num_joints // 2
    joint = np.zeros((T, M * Np, 2 * C))
    bone = np.zeros((T, M * Np, 2 * C))
    vec = np.zeros((T, M * Np, C))
    for t in range(T):
        for m in range(M):
            for j in range(Np):
                n = m * Np + j
                for c in range(C):
                    joint[t, n, c] = x[t, m, j, c]
                    rel = x[t, m, j, c] - x[t, m, centre, c]
                    joint[t, n, C + c] = x[t, m, j, c] if c == 2 else rel
                    vec[t, n, c] = x[t, m, j, c] - x[t, m, parent[j], c]
                    bone[t, n, c] = vec[t, n, c]
                norm = math.sqrt(vec[t, n, 0] ** 2 + vec[t, n, 1] ** 2)
                for c in range(C):
                    if c == 2:
                        bone[t, n, C + c] = x[t, m, j, 2]
                    elif norm > 0:
                        bone[t, n, C + c] = math.acos(min(1.0, max(-1.0, vec[t, n, c] / norm)))
                    else:
                        bone[t, n, C + c] = math.pi / 2

    def motion(a):
        out = np.zeros((T,) + a.shape[1:-1] + (2 * a.shape[-1],))
        for t in range(T):
            for hop in (1, 2):
                if t + hop < T:
                    out[t, :, (hop - 1) * C : hop * C] = a[t + hop, :, :] - a[t, :, :]
        return out

    return {
        "joint": joint,
        "bone": bone,
        "joint_motion": motion(joint[:, :, :C]),
        "bone_motion": motion(vec),
    }


def check_stream(name: str, got: np.ndarray, ref: np.ndarray) -> None:
    require(got.shape == ref.shape, f"{name}: shape {got.shape}, expected {ref.shape}")
    bad = np.abs(got - ref) > 1e-9 * (1.0 + np.abs(ref))
    require(not bad.any(), f"{name}: {int(bad.sum())} entries differ from the loop restatement, "
            f"first at (t, node, channel) {tuple(int(i) for i in np.argwhere(bad)[0]) if bad.any() else ()}")


# --- training -------------------------------------------------------------

def freeze_branches(module, frozen: bool = True) -> None:
    """Pin the ReLU masks, max-pool argmaxes and attention gates of the last
    forward pass, so a finite difference probes the same smooth branch."""
    if type(module).__name__ in ("ReLU", "MaxPoolT", "STPAttention"):
        module._freeze_kinks = frozen
    for _, child in module._children:
        freeze_branches(child, frozen)


def mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def directional_fd_error(model, streams, labels, grads: dict, rng: np.random.Generator) -> float:
    """Relative error between a central difference of the training-mode loss
    along one random unit direction over all parameters and the dot product
    of that direction with ``grads``. The model's parameters are restored;
    its branch decisions must already be frozen."""
    params = dict(model.named_parameters())
    origin = {name: p.copy() for name, p in params.items()}
    d = {name: rng.standard_normal(p.shape) for name, p in params.items()}
    norm = math.sqrt(sum(float((v * v).sum()) for v in d.values()))
    losses = []
    for sign in (1.0, -1.0):
        for name, p in params.items():
            p += sign * FD_STEP / norm * d[name]
        losses.append(mean_cross_entropy(model.forward(streams, training=True), labels))
        for name, p in params.items():
            p[...] = origin[name]
    fd = (losses[0] - losses[1]) / (2 * FD_STEP)
    analytic = sum(float((grads[name] * d[name]).sum()) for name in params) / norm
    diff = abs(fd - analytic)
    return 0.0 if diff <= FD_ABS_FLOOR else diff / max(abs(fd), abs(analytic))


def check_gradient(model, streams, labels, grads: dict, rng: np.random.Generator) -> float:
    err = directional_fd_error(model, streams, labels, grads, rng)
    require(err < GRAD_TOL, f"directional gradient error {err:.3e} >= {GRAD_TOL:.0e}")
    return err


def check_nesterov_step(before: dict, velocity: dict, grads: dict, after: dict,
                        lr: float, momentum: float, weight_decay: float) -> None:
    """g' = g + wd * p (not for BatchNorm gamma/beta); v' = mu * v + g';
    p' = p - lr * (g' + mu * v')."""
    require(set(after) == set(before), "parameter names changed across the step")
    for name, p in before.items():
        g = grads[name]
        if not name.endswith((".gamma", ".beta")):
            g = g + weight_decay * p
        v = momentum * velocity[name] + g
        expect = p - lr * (g + momentum * v)
        bad = np.abs(after[name] - expect) > 1e-12 * (1.0 + np.abs(expect))
        require(not bad.any(), f"{name}: optimizer step differs from the Nesterov formula")


def check_finite(values, what: str) -> None:
    arr = np.asarray(values, dtype=float)
    require(arr.size > 0 and np.isfinite(arr).all(), f"non-finite {what}: {arr.ravel()[:8]}")


# --- evaluation -----------------------------------------------------------

def class_metrics(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """MCA (share of samples whose top score is the label, ties to the
    smaller class) and MPCA (mean over present classes of that share)."""
    pred = np.argmax(scores, axis=1)
    hits = pred == labels
    per_class = [hits[labels == c].mean() for c in sorted(set(labels.tolist()))]
    return float(hits.mean()), float(np.mean(per_class))


def check_metrics(reported: dict, scores: np.ndarray, labels: np.ndarray) -> None:
    mca, mpca = class_metrics(scores, labels)
    require(abs(reported["mca"] - mca) < 1e-12 and abs(reported["mpca"] - mpca) < 1e-12,
            f"reported mca/mpca {reported['mca']}/{reported['mpca']}, recomputed {mca}/{mpca}")


def check_softmax_rows(probs: np.ndarray) -> None:
    require(np.isfinite(probs).all() and (probs >= 0).all(), "scores are not probabilities")
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    require(worst < 1e-12, f"softmax rows sum to 1 +- {worst:.2e}")


def check_batch_independent(batch_logits: np.ndarray, single_logits: np.ndarray) -> None:
    """Logits of each sample scored alone must equal its row in the batch."""
    worst = float(np.abs(batch_logits - single_logits).max() / (1.0 + np.abs(batch_logits).max()))
    require(worst < 1e-10, f"logits depend on the rest of the batch (rel diff {worst:.2e})")


def check_loss_decreased(epoch_losses) -> None:
    check_finite(epoch_losses, "epoch losses")
    require(epoch_losses[-1] < epoch_losses[0],
            f"last epoch loss {epoch_losses[-1]:.4f} not below first {epoch_losses[0]:.4f}")
