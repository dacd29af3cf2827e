"""A hop is one append and one call: routes resolved once, same dispatch.

Contracts under test:

* **nothing observable moved** — a reference interpreter of the dispatch
  algorithm the kernel had before routes were remembered (one FIFO per
  kernel; a route is the sessions whose layer accepts the type, from the
  injector's neighbour onward; ``go`` appends the next hop; an echo
  bounces; a close finalises), written out *here*, and the real kernel
  handle the same ``(session, event, direction)`` sequence and count the
  same dispatches on hypothesis-drawn stacks of layers that pass, consume,
  hold and release from a timer, and inject from inside ``handle`` —
  across two channels of one kernel sharing a preset session;
* **the errors are kept** — double ``go``, a channel that cannot route, a
  session that is not in the channel;
* **routes are cached, ``handle`` is not** — a ``handle`` replaced on the
  class after the channel started (what the spine's tracer does) is
  called at the next dispatch, under ``Kernel._run``;
* **frames per hop** — the regression gate: Python calls inside
  ``repro/kernel/`` per ``go()`` hop and per ``send_up``.
"""

from __future__ import annotations

import itertools
import sys
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import (ChannelClose, ChannelInit, Direction, EchoEvent,
                          Event, Kernel, Layer, QoS, Session, TimerEvent)
from repro.kernel.channel import ChannelState
from repro.kernel.errors import ChannelStateError, EventRoutingError
from tests.kernel.helpers import (PingEvent, PongEvent, RecorderLayer,
                                  RecorderSession, build_channel)

CHANNELS = ("one", "two")
KINDS = ("a", "b", "echo")
HOLD_S = 1.0


# -- what both kernels are asked to run ----------------------------------------

@dataclass(frozen=True)
class Slot:
    """One stack position: who sits there, what its layer declared and what
    its session does with each kind (``pass`` when unscripted)."""

    label: str
    accepts: frozenset
    script: tuple  # of (kind, action); action: str or ("inject", kind, way)

    def action_for(self, kind: str):
        return dict(self.script).get(kind, "pass")


actions = st.sampled_from(["pass", "consume", "hold"]) | st.tuples(
    st.just("inject"), st.sampled_from(["a", "b"]),
    st.sampled_from(["up", "down"]))


@st.composite
def slots(draw, label: str) -> Slot:
    return Slot(label, draw(st.frozensets(st.sampled_from(KINDS))),
                tuple(draw(st.dictionaries(st.sampled_from(KINDS), actions,
                                           max_size=3)).items()))


@st.composite
def programs(draw):
    """``(stacks, ops)``: two stacks whose bottom session is shared, and
    what is done to them from outside, in order."""
    shared = draw(slots("shared"))
    stacks = {name: [shared] + [
        draw(slots(f"{name}:{index}"))
        for index in range(1, draw(st.integers(2, 5)))] for name in CHANNELS}
    channel = st.sampled_from(CHANNELS)
    kind = st.sampled_from(["a", "b"])
    way = st.sampled_from(["up", "down"])
    op = st.one_of(
        st.tuples(st.just("insert"), channel, kind, way),
        st.tuples(st.just("send"), channel, st.integers(0, 4), kind, way),
        st.tuples(st.just("echo"), channel, kind, way),
        st.tuples(st.just("tick")),
        st.tuples(st.just("close"), channel))
    return stacks, draw(st.lists(op, min_size=1, max_size=14))


# -- the reference: the parent's algorithm, written out ------------------------

class ReferenceKernel:
    """One FIFO; ``forward`` is the parent's ``Channel._continue`` and
    ``run`` its ``Kernel._run`` + ``Channel._dispatch``."""

    def __init__(self, stacks) -> None:
        self.stacks, self.live = stacks, set()
        self.queue, self.running = deque(), False
        self.log, self.dispatched, self.timer_dispatched = [], 0, 0
        self.now, self.timers, self.held = 0.0, [], {}
        self.ids, self.timer_seq = itertools.count(), itertools.count()

    def new(self, kind, **fields):
        return dict(kind=kind, eid=next(self.ids), spawned=False, **fields)

    def insert(self, channel, event, way, position=None):
        stack = self.stacks[channel]
        if position is None:
            start = 0 if way == "up" else len(stack) - 1
        else:
            start = position + 1 if way == "up" else position - 1
        walk = range(start, len(stack)) if way == "up" \
            else range(start, -1, -1)
        event.update(channel=channel, way=way, index=0, route=[
            index for index in walk if event["kind"] in ("init", "close")
            or event["kind"] in stack[index].accepts])
        self.forward(event)

    def forward(self, event):
        channel = event["channel"]
        if event["index"] < len(event["route"]):
            self.queue.append(event)
            if not self.running:
                self.run()
        elif event["kind"] == "echo":
            self.insert(channel, event["wrapped"],
                        "down" if event["way"] == "up" else "up")
        elif event["kind"] == "close":
            self.live.discard(channel)
            self.timers = [t for t in self.timers if t[2] != channel]

    def run(self):
        self.running = True
        while self.queue:
            event = self.queue.popleft()
            self.handle(event)
            self.dispatched += 1
            self.timer_dispatched += event["kind"] == "timer"
        self.running = False

    def go(self, event):
        event["index"] += 1
        self.forward(event)

    # What a scripted session does (the layers' half, not the kernel's).
    def handle(self, event):
        channel, kind = event["channel"], event["kind"]
        position = event["route"][event["index"]]
        slot = self.stacks[channel][position]
        if kind == "timer":
            self.log.append((slot.label, "timer", "up"))
            for held in self.held.pop((slot.label, channel), []):
                self.go(held)
            return
        self.log.append((slot.label, event["eid"], event["way"]))
        action = slot.action_for(kind)
        if action == "consume":
            return
        if action == "hold":
            key = (slot.label, channel)
            if key not in self.held:
                self.timers.append((self.now + HOLD_S, next(self.timer_seq),
                                    channel, position))
            self.held.setdefault(key, []).append(event)
            return
        if action != "pass" and not event["spawned"]:
            spawn = self.new(action[1])
            spawn["spawned"] = True
            self.insert(channel, spawn, action[2], position)
        self.go(event)

    def tick(self):
        self.now += HOLD_S
        due = sorted(t for t in self.timers if t[0] <= self.now)
        for timer in due:
            if timer not in self.timers:
                continue  # its channel closed while an earlier one ran
            self.timers.remove(timer)
            _, _, channel, position = timer
            self.queue.append(dict(kind="timer", channel=channel, index=0,
                                   route=[position], way="up"))
            self.run()


def run_reference(stacks, ops):
    model = ReferenceKernel(stacks)
    for name in CHANNELS:
        model.live.add(name)
        model.insert(name, dict(kind="init", eid=("init", name)), "up")
    for op in ops:
        if op[0] == "tick":
            model.tick()
        elif op[1] not in model.live:
            continue
        elif op[0] == "insert":
            model.insert(op[1], model.new(op[2]), op[3])
        elif op[0] == "send":
            position = op[2] % len(stacks[op[1]])
            model.insert(op[1], model.new(op[3]), op[4], position)
        elif op[0] == "echo":
            wrapped = model.new(op[2])
            model.insert(op[1], model.new("echo", wrapped=wrapped), op[3])
        elif op[0] == "close":
            model.insert(op[1], dict(kind="close", eid=("close", op[1])),
                         "down")
    return model.log, model.dispatched, model.timer_dispatched


# -- the same program on the real kernel ---------------------------------------

class A(Event):
    kind = "a"


class B(Event):
    kind = "b"


class Echo(EchoEvent):
    kind = "echo"


EVENT_TYPES = {"a": A, "b": B, "echo": Echo}
WAYS = {"up": Direction.UP, "down": Direction.DOWN}


class ScriptedSession(Session):
    """Interprets its :class:`Slot` and logs what it handled."""

    slot: Slot
    world: "World"

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.held: dict = {}

    def handle(self, event: Event) -> None:
        world, channel = self.world, event.channel
        if isinstance(event, TimerEvent):
            world.log.append((self.slot.label, "timer", "up"))
            for held in self.held.pop(channel, []):
                held.go()
            return
        if isinstance(event, (ChannelInit, ChannelClose)):
            lifecycle = "init" if isinstance(event, ChannelInit) else "close"
            world.log.append((self.slot.label, (lifecycle, channel.name),
                              event.direction.value))
            event.go()
            return
        world.log.append((self.slot.label, event.eid, event.direction.value))
        action = self.slot.action_for(event.kind)
        if action == "consume":
            return
        if action == "hold":
            if channel not in self.held:
                self.set_timer(HOLD_S, channel=channel)
            self.held.setdefault(channel, []).append(event)
            return
        if action != "pass" and not event.spawned:
            spawn = world.new(action[1])
            spawn.spawned = True
            if action[2] == "up":
                self.send_up(spawn, channel=channel)
            else:
                self.send_down(spawn, channel=channel)
        event.go()


class World:
    def __init__(self) -> None:
        self.log: list = []
        self.ids = itertools.count()

    def new(self, kind: str, **fields) -> Event:
        event = EVENT_TYPES[kind](**fields)
        event.eid, event.spawned = next(self.ids), False
        return event


def scripted_layer(slot: Slot) -> Layer:
    layer = Layer()
    layer.accepted_events = tuple(EVENT_TYPES[kind] for kind in slot.accepts)
    layer.session_class = ScriptedSession
    return layer


def run_real(stacks, ops):
    world, kernel, channels, shared = World(), Kernel(), {}, None
    for name in CHANNELS:
        qos = QoS(name, [scripted_layer(slot) for slot in stacks[name]])
        channel = channels[name] = qos.create_channel(
            name, kernel, preset_sessions={0: shared} if shared else None)
        shared = channel.sessions[0]
        for slot, session in zip(stacks[name], channel.sessions):
            session.slot, session.world = slot, world
        channel.start()
    for op in ops:
        if op[0] == "tick":
            kernel.clock.advance(HOLD_S)
            continue
        channel = channels[op[1]]
        if channel.state is not ChannelState.STARTED:
            continue
        if op[0] == "insert":
            channel.insert(world.new(op[2]), WAYS[op[3]])
        elif op[0] == "send":
            session = channel.sessions[op[2] % len(channel.sessions)]
            send = session.send_up if op[4] == "up" else session.send_down
            send(world.new(op[3]), channel=channel)
        elif op[0] == "echo":
            wrapped = world.new(op[2])
            channel.insert(world.new("echo", wrapped=wrapped), WAYS[op[3]])
        elif op[0] == "close":
            channel.close()
    return world.log, kernel.dispatched_count, kernel.timer_dispatched_count


class TestReferenceInterpreter:
    @given(program=programs())
    @settings(max_examples=300, deadline=None)
    def test_same_handling_order_and_dispatch_counts(self, program):
        stacks, ops = program
        assert run_real(stacks, ops) == run_reference(stacks, ops)

    def test_the_program_space_reaches_every_mechanism(self):
        """A hand-written program through a hold, an injection, an echo,
        the shared session and a close, so the property is not vacuous."""
        shared = Slot("shared", frozenset(KINDS), ())
        stacks = {
            "one": [shared,
                    Slot("one:1", frozenset({"a"}), (("a", "hold"),)),
                    Slot("one:2", frozenset({"a", "b"}),
                         (("b", ("inject", "a", "down")),))],
            "two": [shared, Slot("two:1", frozenset({"b"}), ()),
                    Slot("two:2", frozenset(), ())]}
        ops = [("insert", "one", "a", "up"), ("insert", "one", "b", "up"),
               ("echo", "two", "b", "up"), ("send", "two", 0, "b", "up"),
               ("tick",), ("close", "one"), ("insert", "one", "a", "up"),
               ("tick",)]
        log, dispatched, timers = run_real(stacks, ops)
        assert (log, dispatched, timers) == run_reference(stacks, ops)
        assert timers == 1 and ("one:1", "timer", "up") in log
        handled_by_shared = [entry for entry in log if entry[0] == "shared"]
        assert {way for _, _, way in handled_by_shared} == {"up", "down"}
        assert dispatched == len(log)


# -- the errors are kept -------------------------------------------------------

def recorder_channel(kernel, depth: int = 3, name: str = "test",
                     start: bool = True):
    return build_channel(kernel, [RecorderLayer() for _ in range(depth)],
                         name=name, start=start)


class TestErrorsKept:
    def test_go_twice_is_rejected(self):
        channel = recorder_channel(Kernel())
        event = PingEvent()
        channel.insert(event, Direction.UP)
        with pytest.raises(EventRoutingError, match="called twice"):
            event.go()

    def test_go_before_delivery_is_rejected(self):
        with pytest.raises(EventRoutingError, match="never inserted"):
            PingEvent().go()
        rejected = []

        class EagerSession(RecorderSession):
            def handle(self, event: Event) -> None:
                if isinstance(event, PingEvent) and not rejected:
                    queued = PingEvent()
                    self.send_up(queued)  # waits behind this dispatch
                    with pytest.raises(EventRoutingError,
                                       match="before delivery"):
                        queued.go()
                    rejected.append(queued)
                super().handle(event)

        class EagerLayer(RecorderLayer):
            session_class = EagerSession

        channel = build_channel(Kernel(), [EagerLayer(), RecorderLayer()])
        channel.insert(PingEvent(), Direction.UP)
        assert rejected and rejected[0] in channel.sessions[1].seen

    def test_a_created_channel_cannot_route(self):
        channel = recorder_channel(Kernel(), start=False)
        with pytest.raises(ChannelStateError, match="created"):
            channel.sessions[0].send_up(PingEvent(), channel=channel)

    def test_a_closed_channel_cannot_route_and_holds_no_routes(self):
        channel = recorder_channel(Kernel())
        bottom = channel.sessions[0]
        bottom.send_up(PingEvent(), channel=channel)
        channel.sessions[-1].send_down(PingEvent(), channel=channel)
        assert channel._routes_up and channel._routes_down
        channel.close()
        assert channel.state is ChannelState.CLOSED
        assert not channel._routes_up and not channel._routes_down
        with pytest.raises(ChannelStateError, match="closed"):
            bottom.send_up(PingEvent(), channel=channel)
        with pytest.raises(ChannelStateError, match="closed"):
            channel.insert(PingEvent(), Direction.DOWN)
        assert not channel._routes_up and not channel._routes_down

    def test_a_foreign_session_is_rejected_every_time(self):
        kernel = Kernel()
        channel = recorder_channel(kernel, name="mine")
        stranger = recorder_channel(kernel, name="theirs").sessions[1]
        for _ in range(2):  # the miss is not remembered as a route
            with pytest.raises(EventRoutingError, match="not part of"):
                channel.insert_from(stranger, PingEvent(), Direction.UP)

    def test_a_shared_session_gets_each_channels_own_route(self):
        kernel = Kernel()
        qos = QoS("shared", [RecorderLayer(), RecorderLayer()])
        tall = QoS("tall", [RecorderLayer() for _ in range(4)])
        first = qos.create_channel("one", kernel)
        first.start()
        transport = first.sessions[0]
        second = tall.create_channel("two", kernel,
                                     preset_sessions={0: transport})
        second.start()
        for channel in (first, second, first, second):
            event = PingEvent()
            transport.send_up(event, channel=channel)
            assert event.channel is channel
            assert [event in session.seen for session in channel.sessions] \
                == [False] + [True] * (len(channel.sessions) - 1)
            other = second if channel is first else first
            assert not any(event in session.seen
                           for session in other.sessions[1:])


# -- routes are cached, handle is not -------------------------------------------

class TestTracerContract:
    def test_a_handle_patched_on_the_class_later_is_honoured(self,
                                                             monkeypatch):
        kernel = Kernel()
        channel = recorder_channel(kernel, depth=4)
        channel.insert(PingEvent(), Direction.UP)  # routes now remembered
        channel.sessions[0].send_up(PingEvent(), channel=channel)
        traced = []
        original = RecorderSession.handle

        def wrapper(session, event):
            traced.append(session)
            original(session, event)

        monkeypatch.setattr(RecorderSession, "handle", wrapper)
        channel.insert(PingEvent(), Direction.UP)
        assert traced == channel.sessions
        del traced[:]
        channel.sessions[0].send_up(PingEvent(), channel=channel)
        assert traced == channel.sessions[1:]

    def test_every_dispatch_runs_under_kernel_run(self, monkeypatch):
        kernel = Kernel()
        channel = recorder_channel(kernel, depth=3)
        depth = [0]
        under_run = []
        original_run = Kernel._run
        original_handle = RecorderSession.handle

        def run(self):
            depth[0] += 1
            try:
                original_run(self)
            finally:
                depth[0] -= 1

        def handle(session, event):
            under_run.append(depth[0])
            original_handle(session, event)

        monkeypatch.setattr(Kernel, "_run", run)
        monkeypatch.setattr(RecorderSession, "handle", handle)
        channel.insert(PingEvent(), Direction.UP)
        channel.sessions[0].send_up(PongEvent(), channel=channel)  # no taker
        channel.sessions[-1].send_down(PingEvent(), channel=channel)
        channel.close()
        assert under_run == [1] * (3 + 2 + 3)


# -- frames per hop ---------------------------------------------------------------

class PassThroughSession(Session):
    def handle(self, event: Event) -> None:
        event.go()


class PassThroughLayer(Layer):
    accepted_events = (PingEvent,)
    session_class = PassThroughSession


def kernel_calls_between_handles(action) -> list[int]:
    """Python ``call`` events whose code lives under ``repro/kernel/``,
    split at every entry into a session's ``handle``: element 0 is what
    ran before the first ``handle``, element *k* between the *k*-th and
    the next (or the end)."""
    counts = [0]
    handle_code = PassThroughSession.handle.__code__

    def profiler(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is handle_code:
            counts.append(0)
        elif "/repro/kernel/" in frame.f_code.co_filename:
            counts[-1] += 1

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return counts


class TestFramesPerHop:
    def test_a_go_hop_is_at_most_three_kernel_calls(self):
        channel = build_channel(Kernel(),
                                [PassThroughLayer() for _ in range(4)])
        channel.insert(PingEvent(), Direction.UP)  # resolve the route
        event = PingEvent()  # built outside the measured region
        counts = kernel_calls_between_handles(
            lambda: channel.insert(event, Direction.UP))
        assert len(counts) == 5  # four sessions handled it
        # Between two handles: go -> enqueue, back in the run loop.
        assert all(hop <= 3 for hop in counts[1:]), counts

    def test_send_up_reaches_the_first_handle_in_at_most_five(self):
        channel = build_channel(Kernel(),
                                [PassThroughLayer() for _ in range(4)])
        bottom = channel.sessions[0]
        bottom.send_up(PingEvent())  # resolve the route
        event = PingEvent()  # built outside the measured region
        counts = kernel_calls_between_handles(lambda: bottom.send_up(event))
        assert len(counts) == 4  # the three sessions above handled it
        # send_up -> Session.channel -> insert_from -> enqueue -> _run.
        assert counts[0] <= 5, counts
