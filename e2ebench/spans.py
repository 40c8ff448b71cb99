"""Host-time spans around the public entry points of each ``repro`` layer.

The traced run wraps entry points on the machine it replays (and
``TraceReplayer.replay_scheduled`` on the class) with a recorder that
keeps one span per call: name, host start and end, parent span, the op
id of the record being served, and simulated start and end.  Spans stay
in memory and are written out once the run ends.  A span's self time is
its duration minus the time its child spans cover.

Layers and their spans:

=========  ==============================================================
trace      ``TraceReplayer.replay_scheduled``
sim        ``Engine.run_until`` (flush, sync and power timers run inside)
fs         ``FileSystem.apply``, ``BufferCache.read``/``write``
storage    ``StorageManager.write_block``/``read_block``/``delete_block``/
           ``sync``, ``FlashStore.write_block``/``read_block`` (cleaning
           runs inline, so GC host time stays in the flash store's span)
devices    ``flash-data`` ``program``/``erase_sector``/``read``/
           ``charge_*``, disk ``read``/``write``/``charge_*``, DRAM
           ``charge_*``
mem        ``MobileComputer.launch_program`` (the XIP ``flash-programs``
           chip is counted here, not under devices)
=========  ==============================================================
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

from repro.sim.sched import current_client
from repro.trace.replay import TraceReplayer

# Span record layout: a list, filled in place as the call returns.
NAME, START, END, PARENT, OP, SIM_START, SIM_END, KIND, SELF = range(9)
FIELDS = ("name", "start", "end", "parent", "op", "sim_start", "sim_end", "kind", "self")


class SpanRecorder:
    """Wraps entry points and records one span per call."""

    def __init__(self, clock, due) -> None:
        self.clock = clock
        self.due = due
        self.spans: List[list] = []
        # (record due time, FileSystem.apply entry sim time, request op).
        self.apply_entries: List[tuple] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs, op, kind):
        spans = self.spans
        stack = self._stack
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = spans[parent][OP]
        clock = self.clock
        # SELF accumulates the children's host time while the span is
        # open and becomes the span's self time when it closes.
        span = [name, 0.0, 0.0, parent, op, clock.now, 0.0, kind, 0.0]
        stack.append(len(spans))
        spans.append(span)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            span[START] = t0
            span[END] = t1
            span[SIM_END] = clock.now
            span[SELF] = (t1 - t0) - span[SELF]
            if parent >= 0:
                spans[parent][SELF] += t1 - t0

    def _current_op(self):
        entry = self.due.current.get(current_client())
        return None if entry is None else entry[0]

    def wrap(self, obj, attr: str, name: str) -> None:
        """Record a span around every call of ``obj.attr``."""
        inner = getattr(obj, attr)
        call = self._call

        def wrapper(*args, **kwargs):
            return call(name, inner, args, kwargs, None, None)

        self._install(obj, attr, wrapper)

    def _install(self, obj, attr: str, wrapper) -> None:
        if isinstance(obj, type):
            original = obj.__dict__[attr]
            self._undo.append(lambda: setattr(obj, attr, original))
        else:
            self._undo.append(lambda: delattr(obj, attr))
        setattr(obj, attr, wrapper)

    def attach(self, machine) -> None:
        """Wrap the layer entry points of ``machine`` and the replayer."""
        call = self._call
        due = self.due
        clock = self.clock
        entries = self.apply_entries

        replay = TraceReplayer.replay_scheduled

        def replay_wrapper(*args, **kwargs):
            return call("trace.replay.replay_scheduled", replay, args, kwargs, None, None)

        self._install(TraceReplayer, "replay_scheduled", replay_wrapper)
        self.wrap(machine.engine, "run_until", "sim.engine.run_until")

        apply = machine.fs.apply

        def apply_wrapper(request):
            entry = due.current.get(request.client)
            op = None
            if entry is not None:
                op = entry[0]
                entries.append((entry[1], clock.now, request.op))
            return call("fs.api.apply", apply, (request,), {}, op, request.op)

        self._install(machine.fs, "apply", apply_wrapper)

        if machine.cache is not None:
            for attr in ("read", "write"):
                self.wrap(machine.cache, attr, f"fs.cache.{attr}")
        if machine.manager is not None:
            for attr in ("write_block", "read_block", "delete_block", "sync"):
                self.wrap(machine.manager, attr, f"storage.manager.{attr}")
        if machine.store is not None:
            for attr in ("write_block", "read_block"):
                self.wrap(machine.store, attr, f"storage.flashstore.{attr}")
        if machine.flash is not None:
            for attr in ("program", "erase_sector", "read", "charge_read", "charge_write"):
                self.wrap(machine.flash, attr, f"devices.flash.{attr}")
        if machine.disk is not None:
            for attr in ("read", "write", "charge_read", "charge_write"):
                self.wrap(machine.disk, attr, f"devices.disk.{attr}")
        for attr in ("charge_read", "charge_write"):
            self.wrap(machine.dram, attr, f"devices.dram.{attr}")

        launch = machine.launch_program
        current_op = self._current_op

        def launch_wrapper(name):
            return call("mem.launch.launch_program", launch, (name,), {}, current_op(), None)

        self._install(machine, "launch_program", launch_wrapper)

    def detach(self) -> None:
        """Remove every wrapper this recorder installed."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Aggregation and output.
    # ------------------------------------------------------------------

    def by_component(self) -> Dict[str, Dict[str, float]]:
        """Per component (span name minus its method): calls, host self
        time and host inclusive time.

        Inclusive time counts only spans whose parent belongs to another
        component, so nested calls of one component are not counted twice.
        """
        out: Dict[str, Dict[str, float]] = {}
        spans = self.spans
        for span in spans:
            component = span[NAME].rsplit(".", 1)[0]
            row = out.get(component)
            if row is None:
                row = out[component] = {"calls": 0, "self_s": 0.0, "host_s": 0.0}
            row["calls"] += 1
            row["self_s"] += span[SELF]
            parent = span[PARENT]
            if parent < 0 or spans[parent][NAME].rsplit(".", 1)[0] != component:
                row["host_s"] += span[END] - span[START]
        return out

    def sim_durations(self, name: str, kind: Optional[str] = None) -> List[float]:
        """Simulated durations of the spans called ``name`` (and ``kind``)."""
        return [
            s[SIM_END] - s[SIM_START]
            for s in self.spans
            if s[NAME] == name and (kind is None or s[KIND] == kind)
        ]

    def write_jsonl(self, path) -> None:
        """Write every span, host times relative to the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in self.spans:
                row = list(span)
                row[START] -= origin
                row[END] -= origin
                out.write(json.dumps(row) + "\n")
