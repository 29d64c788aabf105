"""Input feature preprocessing.

Turns a dense T x M x N' x C skeleton tensor into the four network input
streams: joint (absolute + center-relative), bone (vectors + axis angles),
and their one/two-hop temporal motions. Every stream has shape
T x (M*N') x 2C.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ContractError, InputError
from .graph import GraphTopology


@dataclass
class FeatureBundle:
    joint: np.ndarray
    bone: np.ndarray
    joint_motion: np.ndarray
    bone_motion: np.ndarray

    def streams(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def bone_parents(topology: GraphTopology) -> np.ndarray:
    """Parent index per local node, read from person 0's intra edges in listed order.

    Joint 0 is its own parent, so its bone is the zero vector. Each edge gives
    its unplaced end the placed end as parent, so every other joint hangs from
    the near end of its first limb and each object slot from its first holder.
    One pass suffices because limbs are listed outward from joint 0, and
    ``build_topology`` lists person 0's unit first, limbs before holder links.
    """
    npp = topology.nodes_per_person
    parents = np.full(npp, -1, dtype=int)
    parents[0] = 0
    for i, j in topology.intra_edges:
        if i < npp and j < npp:  # person 0's block defines the shared tree
            for near, far in ((i, j), (j, i)):
                if parents[far] < 0 <= parents[near]:
                    parents[far] = near
    if (parents == -1).any():
        raise ConfigError("intra topology is not connected; cannot orient bones")
    return parents


def _flatten(x: np.ndarray) -> np.ndarray:
    T, M, Np, C = x.shape
    return x.reshape(T, M * Np, C)


def joint_stream(x: np.ndarray, center_joints: tuple[int, ...]) -> np.ndarray:
    """Concatenate absolute coordinates with center-relative ones.

    The person center is the mean of ``center_joints`` per frame and person.
    A visibility channel (C=3) is copied unshifted in the relative half.
    """
    T, M, Np, C = x.shape
    center = x[:, :, list(center_joints), :].mean(axis=2, keepdims=True)
    rel = x - center
    if C == 3:
        rel[..., 2] = x[..., 2]
    return np.concatenate([_flatten(x), _flatten(rel)], axis=-1)


def bone_stream(x: np.ndarray, bones: np.ndarray) -> np.ndarray:
    """Concatenate the bone vectors of ``x`` (from ``bone_vectors``) with their
    angles to the coordinate axes.

    Angles are arccos(b_c / ||b||) over the x,y components; a zero-length
    bone gets pi/2. With C=3 the visibility value is carried through as the
    third angle channel. InputError if a length overflows (a coordinate near 1e154).
    """
    C = x.shape[-1]
    with np.errstate(over="ignore"):
        norm = np.sqrt((bones[..., :2] ** 2).sum(axis=-1, keepdims=True))
    if not np.isfinite(norm).all():
        raise InputError("a bone length is not finite")
    # zero-length bones leave ratio at 0, so arccos gives the pi/2 convention
    ratio = np.divide(bones[..., :2], norm, out=np.zeros_like(bones[..., :2]), where=norm > 0)
    angles = np.empty_like(bones)
    angles[..., :2] = np.arccos(np.clip(ratio, -1.0, 1.0))
    if C == 3:
        angles[..., 2] = x[..., 2]
    return np.concatenate([_flatten(bones), _flatten(angles)], axis=-1)


def bone_vectors(x: np.ndarray, topology: GraphTopology) -> np.ndarray:
    T, M, Np, C = x.shape
    if Np != topology.nodes_per_person or M != topology.num_persons:
        raise ContractError(
            f"tensor (M={M}, N'={Np}) does not match topology "
            f"(M={topology.num_persons}, N'={topology.nodes_per_person})"
        )
    parents = bone_parents(topology)
    return x - x[:, :, parents, :]


def motion_stream(x: np.ndarray) -> np.ndarray:
    """One- and two-hop forward differences of joints, or of bone vectors, zero-padded
    at the tail and flattened to (T, M*N', 2C)."""
    C = x.shape[-1]
    out = np.zeros(x.shape[:-1] + (2 * C,), dtype=x.dtype)
    out[:-1, ..., :C] = x[1:] - x[:-1]
    out[:-2, ..., C:] = x[2:] - x[:-2]
    return _flatten(out)


def build_feature_bundle(x: np.ndarray, topology: GraphTopology) -> FeatureBundle:
    """All four input streams for one sample tensor (T, M, N', C)."""
    if x.ndim != 4:
        raise ContractError(f"expected rank-4 skeleton tensor, got shape {x.shape}")
    bones = bone_vectors(x, topology)
    return FeatureBundle(
        joint=joint_stream(x, topology.center_joints),
        bone=bone_stream(x, bones),
        joint_motion=motion_stream(x),
        bone_motion=motion_stream(bones),
    )
