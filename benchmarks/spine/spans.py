"""Layer spans recorded from outside the program (``--trace 1`` only).

Nothing under ``src/`` knows it is being traced: :meth:`Tracer.install`
replaces each layer's public entry point with a timing wrapper, on the
class or module that owns it — and four private ones whose work would
otherwise read as the self time of the loop that calls them:
``Kernel._run`` (the kernel's run loop),
``_DeliveryBatcher._flush_deliveries`` (the batched delivery drain),
``LiveNetwork._on_datagram`` (the datagram callback) and
``LocalModule._swap`` (the stack swap ``LocalModule.apply`` defers).

A span is one call; spans aggregate in memory per name as calls, total
time, time spent in child spans (so ``self`` is ``total - child``) and the
parents they were called from, and are read when the timed window closes.
Spans *inside* ``src/`` are ROADMAP item 1(a), a later issue.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns

#: Root loops: everything else runs inside them, so their self time is
#: what tracing could not attribute.
ROOTS = ("simnet.engine.run_until", "livenet.clock.poll")


class Span:
    """Aggregate of every call of one wrapped function."""

    __slots__ = ("name", "calls", "total_ns", "child_ns", "parents")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.parents: dict[str, int] = {}


class Tracer:
    """Wraps the layers' entry points and aggregates their spans."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self._outside = Span("<outside>")
        self._stack: list[Span] = [self._outside]
        self._open_stack: list[Span] = []
        self._open_ns = 0
        self._base: dict[str, tuple[int, int, int]] = {}

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, function):
        span = self.spans.setdefault(name, Span(name))
        stack = self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = stack[-1]
            stack.append(span)
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                span.calls += 1
                span.total_ns += elapsed
                parent.child_ns += elapsed
                parents = span.parents
                parents[parent.name] = parents.get(parent.name, 0) + 1

        return traced

    def _patch(self, owner, attribute: str, name: str) -> None:
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def install(self) -> None:
        """Wrap every layer entry point (importing both backends)."""
        from repro.context.cocaditem import CocaditemSession
        from repro.core.local_module import LocalModule
        from repro.core.rules.engine import PolicyEngine
        from repro.kernel import codec
        from repro.kernel.message import Message
        from repro.kernel.registry import registered_layers
        from repro.kernel.scheduler import Kernel
        from repro.livenet import frame, network as live_network
        from repro.livenet.clock import WallClock
        from repro.simnet import network as sim_network
        from repro.simnet.engine import SimEngine

        # ``handle`` of every registered layer's session class, named after
        # the module that defines the class.  The originals are collected
        # before any is replaced, so a class that inherits ``handle`` gets
        # one wrapper, not its parent's wrapper wrapped again.
        sessions = {}
        for _, layer in registered_layers():
            session = getattr(layer, "session_class", None)
            if session is not None:
                sessions[session] = session.handle
        for session, handle in sessions.items():
            module = session.__module__.removeprefix("repro.")
            session.handle = self.wrap(f"{module}.handle", handle)

        self._patch(Message, "wire_copy", "kernel.message.wire_copy")
        # Callers reach the codec through the module, so patching the
        # module attribute covers them; ``frame`` imported the names.
        self._patch(codec, "encode_payload", "kernel.codec.encode")
        self._patch(codec, "decode_payload", "kernel.codec.decode")
        frame.encode_payload = codec.encode_payload
        frame.decode_payload = codec.decode_payload
        self._patch(Kernel, "_run", "kernel.scheduler.run")
        self._patch(PolicyEngine, "decide", "core.policy.decide")
        self._patch(LocalModule, "apply", "core.local_module.apply")
        self._patch(LocalModule, "_swap", "core.local_module.swap")
        self._patch(CocaditemSession, "publish_now",
                    "context.cocaditem.publish")
        self._patch(SimEngine, "run_until", "simnet.engine.run_until")
        self._patch(sim_network.Network, "transmit",
                    "simnet.network.transmit")
        self._patch(sim_network._DeliveryBatcher, "_flush_deliveries",
                    "simnet.network.deliver")
        self._patch(WallClock, "poll", "livenet.clock.poll")
        self._patch(live_network.LiveNetwork, "transmit",
                    "livenet.network.transmit")
        self._patch(live_network.LiveNetwork, "_on_datagram",
                    "livenet.network.receive")
        self._patch(frame, "encode_frame", "livenet.frame.encode")
        self._patch(frame, "decode_frame", "livenet.frame.decode")
        live_network.encode_frame = frame.encode_frame
        live_network.decode_frame = frame.decode_frame

    # -- the timed window -------------------------------------------------

    def open(self) -> None:
        """The window opens: spans count from here."""
        self._open_ns = perf_counter_ns()
        self._open_stack = list(self._stack)
        self._base = {name: (span.calls, span.total_ns, span.child_ns)
                      for name, span in self.spans.items()}

    def close(self) -> dict[str, dict]:
        """The window closes: ``name -> calls, total_ms, self_ms, parent``
        of the calls that ended inside it.

        A span open across the whole window — the root loop the stamps
        fire from — is credited the window's length; its children closed
        inside the window as usual.
        """
        now = perf_counter_ns()
        across = {span.name for depth, span in enumerate(self._stack)
                  if depth and depth < len(self._open_stack)
                  and self._open_stack[depth] is span}
        table = {}
        for name, span in self.spans.items():
            calls, total, child = self._base.get(name, (0, 0, 0))
            total = span.total_ns - total
            if name in across:
                total += now - self._open_ns
            parent = max(span.parents, key=span.parents.get) \
                if span.parents else ""
            table[name] = {
                "calls": span.calls - calls,
                "total_ms": total / 1e6,
                "self_ms": (total - (span.child_ns - child)) / 1e6,
                "parent": parent}
        return table
