"""Panoramic multi-person-object graph construction.

Builds the joint topology for M person-object units and partitions the
adjacency into three symmetrically normalized matrices: self links,
intra-person connections, and inter-person connections.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    sits at index p*Np + V + s.
    """

    num_persons: int
    joints_per_person: int
    object_keypoints: int = 0
    intra_edges: list[tuple[int, int]] = field(default_factory=list)
    inter_edges: list[tuple[int, int]] = field(default_factory=list)
    object_attachments: list[tuple[int, int]] = field(default_factory=list)
    center_joints: tuple[int, ...] = ()
    layout: str = "chain"

    @property
    def nodes_per_person(self) -> int:
        return self.joints_per_person + self.object_keypoints

    @property
    def num_nodes(self) -> int:
        return self.num_persons * self.nodes_per_person

    def validate(self) -> None:
        n = self.num_nodes
        npp = self.nodes_per_person
        seen = set()
        for i, j in self.intra_edges + self.inter_edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigError(f"edge ({i},{j}) out of range for {n} nodes")
            if i == j:
                raise ConfigError(f"self loop ({i},{j}) not allowed in edge lists")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ConfigError(f"duplicate edge {key}")
            seen.add(key)
        for i, j in self.intra_edges:
            if i // npp != j // npp:
                raise ConfigError(f"intra edge ({i},{j}) spans two persons")
        for i, j in self.inter_edges:
            if i // npp == j // npp:
                raise ConfigError(f"inter edge ({i},{j}) stays within one person")


def build_intra_topology(layout: str, num_joints: int) -> list[tuple[int, int]]:
    """Single-body edge list for a named skeleton layout.

    ``coco17`` returns the fixed 18-limb COCO list; ``chain`` links joint i
    to joint i+1.
    """
    if layout == "coco17":
        if num_joints != 17:
            raise ConfigError(f"coco17 layout requires 17 joints, got {num_joints}")
        return list(COCO17_EDGES)
    if layout == "chain":
        if num_joints < 1:
            raise ConfigError("chain layout needs at least one joint")
        return [(i, i + 1) for i in range(num_joints - 1)]
    raise ConfigError(f"unknown skeleton layout {layout!r}")


def center_joints_for(layout: str, num_joints: int) -> tuple[int, ...]:
    if layout == "coco17":
        return COCO17_CENTER_JOINTS
    return (num_joints // 2,)


def default_attachments(layout: str, num_joints: int, num_objects: int) -> list[tuple[int, int]]:
    """Attach every object slot to both wrists (coco17) or the end joints (chain)."""
    if num_objects == 0:
        return []
    if layout == "coco17":
        joints = COCO17_WRISTS
    else:
        joints = (0, num_joints - 1) if num_joints > 1 else (0,)
    return [(slot, j) for slot in range(num_objects) for j in joints]


def build_topology(
    layout: str,
    num_persons: int,
    num_joints: int,
    num_objects: int = 0,
    attachments: list[tuple[int, int]] | None = None,
    inter_variant: str = "pairwise",
) -> GraphTopology:
    """Assemble the full panoramic topology in one call."""
    if num_persons < 1:
        raise ConfigError("need at least one person")
    base = build_intra_topology(layout, num_joints)
    topo = GraphTopology(
        num_persons=num_persons,
        joints_per_person=num_joints,
        intra_edges=_replicate(base, num_persons, num_joints),
        center_joints=center_joints_for(layout, num_joints),
        layout=layout,
    )
    if attachments is None:
        attachments = default_attachments(layout, num_joints, num_objects)
    topo = attach_objects(topo, num_objects, attachments)
    topo.inter_edges = build_inter_edges(topo, inter_variant)
    topo.validate()
    return topo


def _replicate(edges: list[tuple[int, int]], num_persons: int, nodes_per_person: int) -> list[tuple[int, int]]:
    out = []
    for p in range(num_persons):
        off = p * nodes_per_person
        out.extend((i + off, j + off) for i, j in edges)
    return out


def attach_objects(
    topology: GraphTopology, num_objects: int, attachments: list[tuple[int, int]]
) -> GraphTopology:
    """Extend every person block with per-person object nodes.

    Each (slot, joint) attachment adds one intra edge per person between the
    object node and that joint. Returns a new topology; the input is not
    modified.
    """
    if num_objects == 0 and not attachments:
        return replace(topology)
    old_np = topology.nodes_per_person
    V = topology.joints_per_person
    new_np = V + topology.object_keypoints + num_objects
    for slot, joint in attachments:
        if not 0 <= joint < V:
            raise ConfigError(f"attachment joint {joint} out of range for V={V}")
        if not 0 <= slot < num_objects:
            raise ConfigError(f"object slot {slot} out of range for n={num_objects}")

    def remap(idx: int) -> int:
        p, local = divmod(idx, old_np)
        return p * new_np + local

    intra = [(remap(i), remap(j)) for i, j in topology.intra_edges]
    base_obj = V + topology.object_keypoints
    for p in range(topology.num_persons):
        off = p * new_np
        for slot, joint in attachments:
            intra.append((off + base_obj + slot, off + joint))
    return replace(
        topology,
        object_keypoints=topology.object_keypoints + num_objects,
        intra_edges=intra,
        inter_edges=[(remap(i), remap(j)) for i, j in topology.inter_edges],
        object_attachments=topology.object_attachments + list(attachments),
    )


INTER_VARIANTS = ("none", "fully-connected", "linear", "pairwise")


def build_inter_edges(topology: GraphTopology, variant: str = "pairwise") -> list[tuple[int, int]]:
    """Links between person-object units.

    ``pairwise``/``fully-connected`` join every unordered pair of persons at
    their center joints and object nodes (the two variants coincide for a
    complete pair enumeration); ``linear`` joins consecutive persons only;
    ``none`` returns no links. Objects connect object-to-object per slot.
    """
    if variant not in INTER_VARIANTS:
        raise ConfigError(f"unknown inter-body variant {variant!r}")
    if variant == "none":
        return []
    M = topology.num_persons
    npp = topology.nodes_per_person
    V = topology.joints_per_person
    if variant == "linear":
        pairs = [(p, p + 1) for p in range(M - 1)]
    else:
        pairs = [(p, q) for p in range(M) for q in range(p + 1, M)]
    endpoints = list(topology.center_joints) + [V + s for s in range(topology.object_keypoints)]
    edges = []
    for p, q in pairs:
        for e in endpoints:
            edges.append((p * npp + e, q * npp + e))
    return edges


@dataclass
class PartitionedAdjacency:
    """Three normalized dense adjacency partitions: self / intra / inter."""

    size: int
    A_hat: np.ndarray  # (3, size, size), float64

    def __post_init__(self):
        if self.A_hat.shape != (3, self.size, self.size):
            raise ConfigError(f"A_hat shape {self.A_hat.shape} does not match size {self.size}")


def normalize_symmetric(A: np.ndarray) -> np.ndarray:
    """D^{-1/2} A D^{-1/2} with zero rows for isolated nodes (no epsilon)."""
    deg = A.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = deg[nz] ** -0.5
    return inv_sqrt[:, None] * A * inv_sqrt[None, :]


def partition_and_normalize(topology: GraphTopology) -> PartitionedAdjacency:
    """Build the (3, MN', MN') normalized partitions from a topology."""
    topology.validate()
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
