"""Simulated parallel machine: clocks, processors, network, platforms.

This package provides the "hardware" the rest of the library runs on: a
deterministic discrete-event :class:`Cluster` of :class:`Processor` objects
connected by a latency/bandwidth :class:`Network`, each processor described
by a :class:`PlatformProfile` that captures the word size, memory-system
costs, scheduler costs, OS limits, and portability quirks of one of the
paper's evaluation machines.

All time is *virtual*, in nanoseconds, and every run is exactly
reproducible.  The profiles are calibrated to the paper's reported orders of
magnitude; see DESIGN.md Section 2 for what is real versus modeled.
"""

from repro.sim.platform import PlatformProfile, PLATFORMS, get_platform
from repro.sim.network import Network, Message
from repro.sim.topology import FatTree, FullyConnected, Topology, Torus3D
from repro.sim.processor import Processor
from repro.sim.cluster import Cluster

__all__ = [
    "PlatformProfile",
    "PLATFORMS",
    "get_platform",
    "Network",
    "Message",
    "Topology",
    "FullyConnected",
    "Torus3D",
    "FatTree",
    "Processor",
    "Cluster",
]
