"""Panoramic multi-person-object graph construction.

Builds the joint topology for M person-object units and partitions the
adjacency into three symmetrically normalized matrices: self links,
intra-person connections, and inter-person connections.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

COCO17_JOINTS = [
    "nose", "l_eye", "r_eye", "l_ear", "r_ear",
    "l_shoulder", "r_shoulder", "l_elbow", "r_elbow",
    "l_wrist", "r_wrist", "l_hip", "r_hip",
    "l_knee", "r_knee", "l_ankle", "r_ankle",
]

COCO17_EDGES = [
    (0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (0, 6),
    (5, 7), (7, 9), (6, 8), (8, 10), (5, 11), (6, 12),
    (5, 6), (11, 12), (11, 13), (13, 15), (12, 14), (14, 16),
]

COCO17_CENTER_JOINTS = (11, 12)  # hip pair: closest stable proxy for the body center
COCO17_WRISTS = (9, 10)


@dataclass
class GraphTopology:
    """Edge structure of the panoramic graph.

    Node indexing is global: person p owns indices [p*Np, (p+1)*Np) where
    Np = joints_per_person + object_keypoints. Object slot s of person p
    sits at index p*Np + V + s. Make one with ``build_topology``; a
    hand-built instance is not checked.
    """

    num_persons: int
    joints_per_person: int
    object_keypoints: int = 0
    intra_edges: list[tuple[int, int]] = field(default_factory=list)
    inter_edges: list[tuple[int, int]] = field(default_factory=list)
    center_joints: tuple[int, ...] = ()

    @property
    def nodes_per_person(self) -> int:
        return self.joints_per_person + self.object_keypoints

    @property
    def num_nodes(self) -> int:
        return self.num_persons * self.nodes_per_person


def layout_unit(layout: str, num_joints: int):
    """One body of a named skeleton layout: (limbs, centre joints, object holders).

    ``coco17`` gives the fixed 18-limb COCO list, the hips and the wrists;
    ``chain`` links joint i to joint i+1, with the middle joint as centre
    and both ends as holders. Limbs are listed outward: each limb's first
    joint is joint 0, or a joint that an earlier limb reached.
    """
    if layout == "coco17":
        if num_joints != 17:
            raise ConfigError(f"coco17 layout requires 17 joints, got {num_joints}")
        return list(COCO17_EDGES), COCO17_CENTER_JOINTS, COCO17_WRISTS
    if layout == "chain":
        if num_joints < 1:
            raise ConfigError("chain layout needs at least one joint")
        ends = (0, num_joints - 1) if num_joints > 1 else (0,)
        return [(i, i + 1) for i in range(num_joints - 1)], (num_joints // 2,), ends
    raise ConfigError(f"unknown skeleton layout {layout!r}")


INTER_VARIANTS = ("none", "linear", "pairwise")


def build_topology(
    layout: str,
    num_persons: int,
    num_joints: int,
    num_objects: int = 0,
    inter_variant: str = "pairwise",
) -> GraphTopology:
    """Assemble the panoramic topology: M copies of one person-object unit.

    The unit is the layout's limbs plus one edge from every object slot to
    each object-holding joint (both wrists for coco17, both ends of a
    chain); person p's copy is offset by p * (num_joints + num_objects).
    Inter-person links join two persons' center joints and same-slot
    object nodes: ``pairwise`` links every unordered pair of persons,
    ``linear`` consecutive persons only, and ``none`` no persons.

    Once the arguments pass, the edges are valid by construction: each is in
    range, none is a self loop or repeats, intra edges stay inside one person
    and inter edges join two different persons.
    """
    if num_persons < 1:
        raise ConfigError("need at least one person")
    if num_objects < 0:
        raise ConfigError(f"object count must be >= 0, got {num_objects}")
    limbs, centers, holders = layout_unit(layout, num_joints)
    if inter_variant not in INTER_VARIANTS:
        raise ConfigError(f"unknown inter-body variant {inter_variant!r}")
    M, npp = num_persons, num_joints + num_objects
    if inter_variant == "none":
        pairs = []
    elif inter_variant == "linear":
        pairs = [(p, p + 1) for p in range(M - 1)]
    else:
        pairs = [(p, q) for p in range(M) for q in range(p + 1, M)]
    unit = limbs + [(num_joints + slot, joint) for slot in range(num_objects) for joint in holders]
    endpoints = list(centers) + [num_joints + slot for slot in range(num_objects)]
    return GraphTopology(
        num_persons=M,
        joints_per_person=num_joints,
        object_keypoints=num_objects,
        intra_edges=[(i + p * npp, j + p * npp) for p in range(M) for i, j in unit],
        inter_edges=[(p * npp + e, q * npp + e) for p, q in pairs for e in endpoints],
        center_joints=centers,
    )


@dataclass
class PartitionedAdjacency:
    """Three normalized dense adjacency partitions: self / intra / inter."""

    size: int
    A_hat: np.ndarray  # (3, size, size), float64


def normalize_symmetric(A: np.ndarray) -> np.ndarray:
    """D^{-1/2} A D^{-1/2} with zero rows for isolated nodes (no epsilon)."""
    deg = A.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = deg[nz] ** -0.5
    return inv_sqrt[:, None] * A * inv_sqrt[None, :]


def partition_and_normalize(topology: GraphTopology) -> PartitionedAdjacency:
    """Build the (3, MN', MN') normalized partitions from a topology."""
    n = topology.num_nodes
    A = np.zeros((3, n, n))
    A[0] = np.eye(n)
    for k, edges in ((1, topology.intra_edges), (2, topology.inter_edges)):
        raw = np.zeros((n, n))
        for i, j in edges:
            raw[i, j] = 1.0
            raw[j, i] = 1.0
        A[k] = normalize_symmetric(raw)
    return PartitionedAdjacency(size=n, A_hat=A)
