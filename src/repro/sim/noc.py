"""Mesh network-on-chip latency model.

Cores and L2 slices sit on a ``k x k`` mesh (``k = ceil(sqrt(N))``);
a request from core ``i`` to slice ``j`` pays router overhead plus
``hop_latency`` per Manhattan hop each way.  This is a latency-only model
(no link contention): contention effects the C2-Bound analysis cares
about are concentrated at the L2 banks and DRAM, which are modeled
explicitly.

Latencies come from one piece of arithmetic on mesh coordinates
(:func:`_mesh_latency`).  The scalar event loop and the writeback path
read it through a flat ``src * n + dst`` table that fills on first
read; the epoch kernel's demand misses call it directly, so on a
many-core chip, where most pairs are read once, the table stays small.
Nothing is precomputed: an ``n``-tile mesh has ``n**2`` pairs, and a
many-core run with a few operations per core reads almost none of them.
"""

from __future__ import annotations

import math

from repro.errors import InvalidParameterError
from repro.sim.config import NoCConfig

__all__ = ["MeshNoC"]


def _mesh_latency(src: int, dst: int, side: int, config: NoCConfig) -> int:
    """One-way latency between tiles ``src`` and ``dst``."""
    hops = abs(src % side - dst % side) + abs(src // side - dst // side)
    return config.router_latency + config.hop_latency * hops


class _LatencyTable(dict):
    """Flat ``src * n + dst`` -> latency map, filled on first read.

    A plain dict subscript for every pair already read; ``__missing__``
    runs once per new pair.
    """

    __slots__ = ("_n", "_side", "_config")

    def __init__(self, n_nodes: int, side: int, config: NoCConfig) -> None:
        super().__init__()
        self._n = n_nodes
        self._side = side
        self._config = config

    def __missing__(self, key: int) -> int:
        src, dst = divmod(key, self._n)
        latency = _mesh_latency(src, dst, self._side, self._config)
        self[key] = latency
        return latency


class MeshNoC:
    """Latency oracle for a square mesh of ``n_nodes`` tiles."""

    def __init__(self, n_nodes: int, config: NoCConfig) -> None:
        if n_nodes < 1:
            raise InvalidParameterError(f"need >= 1 node, got {n_nodes}")
        self.n_nodes = n_nodes
        self.config = config
        self.side = max(int(math.ceil(math.sqrt(n_nodes))), 1)
        self.traversals = 0
        # The event loop asks for the same few pairs millions of times,
        # so each pair's arithmetic runs once, on its first read.
        self._lat = _LatencyTable(n_nodes, self.side, config)

    def coordinates(self, node: int) -> tuple[int, int]:
        """(x, y) position of a tile."""
        if not 0 <= node < self.n_nodes:
            raise InvalidParameterError(
                f"node {node} outside [0, {self.n_nodes})")
        return node % self.side, node // self.side

    def hops(self, src: int, dst: int) -> int:
        """Manhattan hop count between two tiles."""
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        return abs(sx - dx) + abs(sy - dy)

    def latency(self, src: int, dst: int) -> int:
        """One-way latency in cycles."""
        if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
            raise InvalidParameterError(
                f"node pair ({src}, {dst}) outside [0, {self.n_nodes})")
        self.traversals += 1
        return self._lat[src * self.n_nodes + dst]

    def round_trip(self, src: int, dst: int) -> int:
        """Request + response latency."""
        return 2 * self.latency(src, dst)
