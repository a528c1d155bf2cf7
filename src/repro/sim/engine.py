"""The discrete-event simulation engine.

A :class:`Simulator` owns the virtual clock and the event scheduler.
Everything in the reproduction — links, switches, CPUs, SSDs, protocol
stacks — is driven by callbacks scheduled on a single simulator instance,
so a whole EBS deployment runs deterministically from one seed.

Events live in a calendar queue (:mod:`repro.sim.sched`) and fire in
``(time, seq)`` order: by time, ties in scheduling order.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .events import Event, format_ns
from .rng import RngRegistry
from .sched import CalendarScheduler


class SimulationError(RuntimeError):
    """Raised for invalid simulator usage (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator with an integer-ns clock.

    Typical usage::

        sim = Simulator(seed=42)
        sim.schedule(1000, lambda: print("one microsecond in"))
        sim.run()

    The simulator also hosts a registry of named deterministic RNG streams
    (see :class:`repro.sim.rng.RngRegistry`) so that components draw
    randomness from independent, reproducible streams.

    ``scheduler`` substitutes another object with the
    :class:`~repro.sim.sched.CalendarScheduler` interface; the tests use
    it to run the kernel on a reference binary heap.
    """

    def __init__(self, seed: int = 0, scheduler: Optional[Any] = None):
        self.now: int = 0
        self.seed = seed
        self.rng = RngRegistry(seed)
        self._sched = scheduler if scheduler is not None else CalendarScheduler()
        # Pre-bound push methods: schedule() runs a few hundred thousand
        # times per simulated second, so one attribute chain matters.
        self._push = self._sched.push
        self._push_fire = self._sched.push_fire
        self._seq = 0
        self._running = False
        self._stopped = False
        #: Events run so far.  A count of kernel work, not of simulated
        #: behaviour: artifacts do not record it.
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay_ns`` after the current time."""
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        event = Event(self.now + delay_ns, self._seq, fn, args)
        self._seq += 1
        self._push(event)
        return event

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {format_ns(time_ns)}; now is {format_ns(self.now)}"
            )
        event = Event(time_ns, self._seq, fn, args)
        self._seq += 1
        self._push(event)
        return event

    def schedule_fire(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`schedule`, but fire-and-forget: no :class:`Event`
        is allocated and nothing is returned, so the timer cannot be
        cancelled.  Use for the per-packet/per-job completions that are
        never cancelled — the Event allocation is the largest per-event
        constant on the hot path.  Ordering is identical to
        :meth:`schedule` (same ``seq`` allocation)."""
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        self._push_fire(self.now + delay_ns, self._seq, fn, args)
        self._seq += 1

    def schedule_at_fire(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`schedule_fire`."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {format_ns(time_ns)}; now is {format_ns(self.now)}"
            )
        self._push_fire(time_ns, self._seq, fn, args)
        self._seq += 1

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current instant (after pending events)."""
        event = Event(self.now, self._seq, fn, args)
        self._seq += 1
        self._push(event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next pending event.  Returns False when drained."""
        event = self._sched.pop()
        if event is None:
            return False
        if event.time < self.now:  # pragma: no cover - defensive
            raise SimulationError("scheduler yielded an event from the past")
        self.now = event.time
        self.events_processed += 1
        event.fn(*event.args)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the scheduler drains, ``until`` is reached, or
        ``max_events`` have fired.

        ``until`` is an absolute time; the clock is advanced to ``until``
        even if the last event fires earlier (matching how a wall-clock
        experiment of fixed duration behaves).  Returns the number of
        events processed by this call.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        # The loop itself lives in the scheduler (``drain``) so popping
        # needs no method dispatch per event.  Its ``until`` check reads
        # the *raw* head (ghosts included): a cancelled timer at the
        # head must not end a bounded run early, and conversely a live
        # event past ``until`` still fires when a ghost at or before
        # ``until`` heads the queue.  Both match the original
        # single-heap engine, which compared the raw heap head.
        try:
            processed = self._sched.drain(self, until, max_events)
        finally:
            self._running = False
        if until is not None and not self._stopped and self.now < until:
            self.now = until
        return processed

    def run_for(self, duration_ns: int, **kwargs: Any) -> int:
        """Run for a relative duration from the current time."""
        return self.run(until=self.now + int(duration_ns), **kwargs)

    def run_window(self, horizon_ns: int, **kwargs: Any) -> int:
        """Advance to the absolute ``horizon_ns`` — the conservative
        lookahead-window stepping API used by the shard plane
        (:mod:`repro.dist`).

        Like :meth:`run` with ``until``, but barrier-exact: the horizon
        must not lie in the past, and the clock always lands *exactly*
        on it — never past it.  Plain ``run(until=...)`` can overshoot
        when a cancelled timer heads the queue (its raw-head ``until``
        check admits the next live event even past the bound, see
        :meth:`run`); a shard that overshot its barrier would reject the
        next window's inbound messages as scheduled in the past.  The
        stop-sentinel planted at the horizon closes that hole: the
        earliest live event is then never later than the horizon, so the
        ghost fast-path cannot skip past it.

        Events stamped exactly at the horizon fire in this window when
        scheduled before the call (the coordinator's delivery rule);
        ones scheduled *during* the window at exactly the horizon fire
        at the start of the next window — same outcome for every shard
        layout, which is the property the shard plane needs.  Returns
        the number of events processed (the sentinel included).
        """
        horizon_ns = int(horizon_ns)
        if horizon_ns < self.now:
            raise SimulationError(
                f"window horizon {format_ns(horizon_ns)} is in the past; "
                f"now is {format_ns(self.now)}"
            )
        self.schedule_at_fire(horizon_ns, self.stop)
        return self.run(until=horizon_ns, **kwargs)

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still scheduled (O(1))."""
        return self._sched.live

    def peek_time(self) -> Optional[int]:
        """Absolute time of the next pending event, or None if drained."""
        return self._sched.peek_time()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={format_ns(self.now)} pending={self.pending_events} "
            f"processed={self.events_processed}>"
        )
