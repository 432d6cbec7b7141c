"""Cluster interconnect model: messages, latency, bandwidth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.topology import Topology

__all__ = ["Message", "Network"]


@dataclass(slots=True)
class Message:
    """One message in flight between simulated processors.

    ``payload`` is an arbitrary Python object (the higher layers put
    envelopes, packed thread images, or MPI data here); ``size_bytes`` is
    the simulated wire size used for bandwidth accounting — the two are
    decoupled on purpose, since e.g. a packed thread's wire size is the size
    of its simulated stack and heap, not of the Python object carrying it.

    ``msg_id`` is assigned by the sending :class:`~repro.sim.cluster.Cluster`
    from a per-cluster counter, so ids are deterministic across runs: two
    identical simulations in one host process number their messages
    identically (a module-global counter here once broke exactly that).
    """

    src: int
    dst: int
    payload: Any
    size_bytes: int
    tag: str = ""
    send_time: float = 0.0
    msg_id: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Message #{self.msg_id} {self.src}->{self.dst} "
                f"{self.size_bytes}B tag={self.tag!r}>")


@dataclass(frozen=True)
class Network:
    """Latency/bandwidth interconnect model (Myrinet-class defaults).

    The Tungsten cluster used for Figure 12 had a Myrinet network; we use
    ~6.5 µs latency and ~250 MB/s sustained bandwidth as the default, which
    is the right class of machine for every experiment in the paper.

    An optional :class:`~repro.sim.topology.Topology` adds ``per_hop_ns``
    of latency per network hop between the endpoints (zero-hop/no-topology
    messages pay only the base latency).
    """

    latency_ns: float = 6_500.0
    bytes_per_ns: float = 0.25
    per_message_cpu_ns: float = 800.0     # software send/receive overhead
    topology: Optional["Topology"] = None
    per_hop_ns: float = 120.0

    def __post_init__(self) -> None:
        if not self.bytes_per_ns > 0:
            raise ReproError(
                f"network bytes_per_ns must be > 0, got {self.bytes_per_ns}")
        for name in ("latency_ns", "per_message_cpu_ns", "per_hop_ns"):
            value = getattr(self, name)
            if not value >= 0:
                raise ReproError(f"network {name} must be >= 0, got {value}")

    def hop_ns(self, src: Optional[int], dst: Optional[int]) -> float:
        """Topology-dependent extra latency for one message."""
        if self.topology is None or src is None or dst is None:
            return 0.0
        return self.per_hop_ns * self.topology.hops(src, dst)

    def transfer_ns(self, size_bytes: int, src: Optional[int] = None,
                    dst: Optional[int] = None) -> float:
        """Pure wire time for a message of ``size_bytes``."""
        return (self.latency_ns + self.hop_ns(src, dst)
                + size_bytes / self.bytes_per_ns)

    def delivery_time(self, send_time: float, size_bytes: int,
                      src: Optional[int] = None,
                      dst: Optional[int] = None) -> float:
        """Virtual time at which a message sent at ``send_time`` arrives."""
        if self.topology is None:
            # transfer_ns() with hop_ns() == 0.0, in the same association
            # (adding 0.0 is exact), so both branches agree bit for bit.
            return (send_time + self.per_message_cpu_ns
                    + (self.latency_ns + size_bytes / self.bytes_per_ns))
        return (send_time + self.per_message_cpu_ns
                + self.transfer_ns(size_bytes, src, dst))
