"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces a fixed list of class attributes of the
``repro`` package with timing wrappers, records one span per call
(name, start, end, parent span) in compact in-memory arrays, and puts
every original attribute back on :meth:`Tracer.uninstall`.  Nothing
under ``src/`` changes: the wrappers are installed before a deployment
is built, so bound methods that components cache at construction time
(socket handlers, scheduled callbacks) resolve to the wrappers too.

A layer's self time is the time its spans cover minus the time their
child spans cover.  ``Simulator.run`` is the ``sim`` layer's span, so
``sim`` self time is the event kernel plus every callback that no
layer span covers (workload drivers, traces, metrics).

The wrappers also count the work each layer does, from public
counters of the instances they see (``Switch.forwarded``,
``CpuCore.jobs_run`` ...) or by counting calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> [(module, class, methods)].  The first group does the
#: per-I/O datapath work.  Private methods are listed where they are the
#: callbacks that a layer's work runs in (socket handlers and events
#: scheduled on the kernel); a public entry point alone would leave
#: that work in ``sim``.
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sim": [
        ("repro.sim.engine", "Simulator", ("run", "credit_events")),
    ],
    "net": [
        ("repro.net.link", "Channel", ("send", "_deliver_fast", "_finish_fast")),
        ("repro.net.switch", "Switch", ("receive", "_forward")),
        ("repro.net.endpoint", "Endpoint", ("send", "receive")),
    ],
    "core": [
        ("repro.core.solar", "SolarClient", (
            "submit_write", "submit_read", "_on_packet",
            "_on_pkt_timeout", "_on_read_timeout",
        )),
        ("repro.core.solar", "SolarServer", (
            "_on_packet", "_handle_write", "_handle_read",
        )),
        ("repro.core.congestion", "HpccCongestionControl", ("on_ack", "on_timeout")),
        ("repro.core.crc_agg", "CrcAggregator", ("check", "check_segment")),
        ("repro.core.dpu_offload", "SolarOffload", (
            "write_block_datapath", "read_block_datapath",
        )),
    ],
    "transport": [
        ("repro.transport.stream", "StreamTransport", ("call", "_on_packet")),
        ("repro.transport.stream", "StreamConnection", (
            "send_message", "on_data", "on_ack", "_chunk_ready", "_on_rto",
        )),
    ],
    "agent": [
        ("repro.agent.sa_software", "SoftwareSA", (
            "submit", "_after_nvme", "_rpc_done", "_complete",
        )),
        ("repro.agent.sa_solar", "SolarSA", (
            "submit", "_after_nvme", "_rpc_done", "_finish",
        )),
    ],
    "host": [
        ("repro.host.cpu", "CpuCore", ("submit",)),
        ("repro.host.pcie", "PcieLink", ("transfer",)),
    ],
    "storage": [
        ("repro.storage.chunk_server", "ChunkServer", ("handle",)),
        ("repro.storage.block_server", "BlockServer", ("handle_write", "handle_read")),
        ("repro.storage.ssd", "SsdDevice", ("submit_write", "submit_read")),
        ("repro.storage.bn", "BackendNetwork", ("call",)),
    ],
}

LAYERS = tuple(LAYER_ENTRY_POINTS)

#: Instance counters summed over every instance a wrapper saw.
#: (metric, class, attribute); ``Channel`` counters read its queue.
COUNTERS = (
    ("net.switch_forwards", "Switch", "forwarded"),
    ("net.switch_drops", "Switch", "dropped_no_route"),
    ("net.switch_drops", "Switch", "dropped_blackhole"),
    ("net.switch_drops", "Switch", "dropped_down"),
    ("net.switch_drops", "Switch", "dropped_ttl"),
    ("core.cc_acks", "HpccCongestionControl", "acks_seen"),
    ("core.retransmissions", "SolarClient", "retransmissions"),
    ("core.crc_checks", "CrcAggregator", "checks"),
    ("transport.rpcs", "StreamTransport", "rpcs_sent"),
    ("agent.ios_failed", "SoftwareSA", "ios_failed"),
    ("agent.ios_failed", "SolarSA", "ios_failed"),
    ("host.cpu_jobs", "CpuCore", "jobs_run"),
    ("host.cpu_busy_ns", "CpuCore", "busy_ns_total"),
    ("host.pcie_transfers", "PcieLink", "transfers"),
    ("storage.ssd_ops", "SsdDevice", "reads"),
    ("storage.ssd_ops", "SsdDevice", "writes"),
    ("storage.bn_calls", "BackendNetwork", "calls"),
)

#: Call counts that are metrics by themselves: metric -> (class, methods).
CALL_COUNTS = {
    "net.link_sends": ("Channel", ("send",)),
    "transport.segments": ("StreamConnection", ("on_data", "on_ack")),
    "storage.chunk_ops": ("ChunkServer", ("handle",)),
}


def _resolve(module: str, cls_name: str) -> Optional[type]:
    try:
        return getattr(importlib.import_module(module), cls_name)
    except (ImportError, AttributeError):
        return None


def entry_point_attributes() -> Dict[Tuple[type, str], Any]:
    """Every wrapped class attribute, as it is right now (for the
    restore check in the self-tests)."""
    out = {}
    for entries in LAYER_ENTRY_POINTS.values():
        for module, cls_name, methods in entries:
            cls = _resolve(module, cls_name)
            for name in methods:
                out[(cls, name)] = None if cls is None else cls.__dict__.get(name)
    return out


class Tracer:
    """Span recorder over :data:`LAYER_ENTRY_POINTS`.  Use as a context
    manager around building *and* running one workload."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.name_ids = array("H")
        self.self_ns = [0] * len(LAYERS)
        self.calls: Dict[str, int] = {}
        self.credited = 0
        self.busy_sends = 0
        self.instances: Dict[str, Dict[int, Any]] = {}
        #: Entry points in the table that the program no longer has.
        self.missing: List[str] = []
        self._saved: List[Tuple[type, str, Any]] = []
        # Frames of the open spans: [span index, start ns, child ns].
        self._stack: List[list] = []

    # -- install / uninstall -------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer_id, layer in enumerate(LAYERS):
            for module, cls_name, methods in LAYER_ENTRY_POINTS[layer]:
                cls = _resolve(module, cls_name)
                seen = self.instances.setdefault(cls_name, {})
                for name in methods:
                    qualified = f"{cls_name}.{name}"
                    original = None if cls is None else cls.__dict__.get(name)
                    if not inspect.isfunction(original):
                        # Renamed or removed by a refactor: its time
                        # falls to the enclosing span, and the run's
                        # context lists it so the table gets updated.
                        self.missing.append(qualified)
                        continue
                    self.names.append(qualified)
                    self.name_layer.append(layer_id)
                    self.calls[qualified] = 0
                    wrapper = self._wrap(
                        original, len(self.names) - 1, layer_id, qualified, seen
                    )
                    self._saved.append((cls, name, original))
                    setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()

    def _wrap(
        self,
        fn: Callable[..., Any],
        name_id: int,
        layer_id: int,
        qualified: str,
        seen: Dict[int, Any],
    ) -> Callable[..., Any]:
        clock = time.perf_counter_ns
        stack = self._stack
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        self_ns = self.self_ns
        calls = self.calls
        special = qualified in ("Channel.send", "Simulator.credit_events")
        tracer = self

        def traced(obj, *args, **kwargs):
            calls[qualified] += 1
            seen[id(obj)] = obj
            index = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            name_ids.append(name_id)
            ends.append(0)
            frame = [index, 0, 0]
            stack.append(frame)
            start = frame[1] = clock()
            starts.append(start)
            try:
                result = fn(obj, *args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[index] = end
                span = end - start
                self_ns[layer_id] += span - frame[2]
                if stack:
                    stack[-1][2] += span
            if special:
                tracer._note_special(qualified, obj, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _note_special(self, qualified: str, obj: Any, args: tuple, kwargs: dict) -> None:
        if qualified == "Channel.send":
            # The frame left the fast path iff it had to queue behind
            # the frame on the wire.
            if len(obj.queue):
                self.busy_sends += 1
        else:
            self.credited += args[0] if args else kwargs.get("count", 1)

    # -- results ---------------------------------------------------------
    def layer_self_ns(self) -> Dict[str, int]:
        return dict(zip(LAYERS, self.self_ns))

    def counters(self) -> Dict[str, float]:
        """Public counters summed over the instances the wrappers saw,
        plus the call counts that are metrics by themselves."""
        out: Dict[str, float] = {}
        for metric, cls_name, attr in COUNTERS:
            instances = list(self.instances.get(cls_name, {}).values())
            if instances and not hasattr(instances[0], attr):
                self.missing.append(f"{cls_name}.{attr}")
                instances = []
            out[metric] = out.get(metric, 0) + sum(getattr(o, attr) for o in instances)
        for metric, (cls_name, methods) in CALL_COUNTS.items():
            out[metric] = sum(self.calls.get(f"{cls_name}.{m}", 0) for m in methods)
        out["net.queue_drops"] = sum(
            ch.queue.dropped for ch in self.instances.get("Channel", {}).values()
        )
        out["net.busy_sends"] = self.busy_sends
        out["sim.events_credited"] = self.credited
        out["host.cpu_cores_used"] = len(self.instances.get("CpuCore", {}))
        out["sim.events_total"] = sum(
            s.events_processed for s in self.instances.get("Simulator", {}).values()
        )
        return out

    def write_spans(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the recorded spans: a JSON header line (names, layers,
        span count, ``meta``) followed by four little-endian int64/uint16
        arrays — start ns, end ns, parent index (-1 for roots), name id."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "names": self.names,
            "layers": [LAYERS[i] for i in self.name_layer],
            "spans": len(self.starts),
            "arrays": ["start_ns:int64", "end_ns:int64", "parent:int64", "name:uint16"],
            **meta,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for arr in (self.starts, self.ends, self.parents, self.name_ids):
                arr.tofile(handle)
