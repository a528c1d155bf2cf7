"""Egress queues: drop-tail FIFO, plus the two-class priority variant.

§3.1: AliCloud's FN deliberately uses shallow-buffer switches and accepts
loss (the stacks must be loss-tolerant), so the base model is a
byte-budget drop-tail FIFO with occupancy statistics for INT.

§4.8 adds: "we use a per-packet ACK to perform a fine-grained congestion
control algorithm ... with a **dedicated queue in the switch for SOLAR**"
— modelled by :class:`PriorityQueue`: two drop-tail classes with strict
priority, SOLAR traffic in the high class.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .packet import Packet

#: Protocols served from the dedicated (high-priority) class.
PRIORITY_PROTOS = frozenset({"solar"})


class DropTailQueue:
    """FIFO of packets bounded by total byte occupancy."""

    def __init__(self, capacity_bytes: int, name: str = ""):
        if capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._items: Deque[Packet] = deque()
        self.bytes = 0
        self.enqueued = 0
        self.dropped = 0
        self.peak_bytes = 0

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, packet: Packet) -> bool:
        """Enqueue if the byte budget allows; return False (drop) otherwise."""
        if self.bytes + packet.size_bytes > self.capacity_bytes:
            self.dropped += 1
            return False
        self._items.append(packet)
        self.bytes += packet.size_bytes
        self.enqueued += 1
        if self.bytes > self.peak_bytes:
            self.peak_bytes = self.bytes
        return True

    def admit(self, packet: Packet) -> bool:
        """``offer`` then ``poll`` of one packet on an empty queue, no deque trip."""
        size = self.bytes + packet.size_bytes
        if size > self.capacity_bytes:
            self.dropped += 1
            return False
        self.enqueued += 1
        if size > self.peak_bytes:
            self.peak_bytes = size
        return True

    def poll(self) -> Optional[Packet]:
        """Dequeue the head packet, or None when empty."""
        if not self._items:
            return None
        packet = self._items.popleft()
        self.bytes -= packet.size_bytes
        return packet

    def clear(self) -> int:
        """Drop everything queued (e.g. on switch power-cycle); returns count."""
        count = len(self._items)
        self.dropped += count
        self._items.clear()
        self.bytes = 0
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DropTailQueue {self.name!r} {len(self._items)}pkts "
            f"{self.bytes}/{self.capacity_bytes}B drops={self.dropped}>"
        )


class PriorityQueue:
    """Two strict-priority drop-tail classes sharing one port (§4.8).

    SOLAR's storage datagrams ride the dedicated high class; everything
    else (including SOLAR's bulk competitors) shares the low class.  Each
    class has half the port's byte budget, so a misbehaving class cannot
    starve the other of *buffer* — only of service order.

    Drop-in compatible with :class:`DropTailQueue` (same offer/admit/poll/clear
    surface, aggregate statistics).
    """

    def __init__(self, capacity_bytes: int, name: str = "",
                 priority_protos: frozenset = PRIORITY_PROTOS):
        if capacity_bytes <= 1:
            raise ValueError(f"queue capacity too small: {capacity_bytes}")
        self.name = name
        self.priority_protos = priority_protos
        self.capacity_bytes = capacity_bytes
        self.high = DropTailQueue(capacity_bytes // 2, name=f"{name}.hi")
        self.low = DropTailQueue(capacity_bytes - capacity_bytes // 2,
                                 name=f"{name}.lo")

    def _class_of(self, packet: Packet) -> DropTailQueue:
        return self.high if packet.proto in self.priority_protos else self.low

    def offer(self, packet: Packet) -> bool:
        return self._class_of(packet).offer(packet)

    def admit(self, packet: Packet) -> bool:
        return self._class_of(packet).admit(packet)

    def poll(self) -> Optional[Packet]:
        packet = self.high.poll()
        if packet is not None:
            return packet
        return self.low.poll()

    def clear(self) -> int:
        return self.high.clear() + self.low.clear()

    def __len__(self) -> int:
        return len(self.high) + len(self.low)

    # Aggregate statistics, for INT and telemetry parity with DropTailQueue.
    @property
    def bytes(self) -> int:
        return self.high.bytes + self.low.bytes

    @property
    def dropped(self) -> int:
        return self.high.dropped + self.low.dropped

    @property
    def enqueued(self) -> int:
        return self.high.enqueued + self.low.enqueued

    @property
    def peak_bytes(self) -> int:
        return self.high.peak_bytes + self.low.peak_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PriorityQueue {self.name!r} hi={len(self.high)} "
                f"lo={len(self.low)} drops={self.dropped}>")
