"""The protocol composition and execution kernel (the paper's "Appia" role).

Public surface:

* :class:`~repro.kernel.layer.Layer` / :class:`~repro.kernel.session.Session`
  — the static and stateful halves of a micro-protocol;
* :class:`~repro.kernel.qos.QoS` / :class:`~repro.kernel.channel.Channel`
  — validated compositions and their live instances;
* typed events (:mod:`repro.kernel.events`) and messages with a header stack
  (:mod:`repro.kernel.message`);
* :class:`~repro.kernel.scheduler.Kernel` — the per-node event scheduler;
* XML channel descriptions (:mod:`repro.kernel.xml_config`) used by the Core
  reconfigurator to deploy stacks at run time;
* the transport seam (:mod:`repro.kernel.packet`,
  :mod:`repro.kernel.transport`) — the packet record and the structural
  protocols every transport backend (simulated or live) satisfies.
"""

from repro.kernel.channel import Channel, ChannelState, TimerHandle
from repro.kernel.clock import Clock, ManualClock
from repro.kernel.errors import (ChannelStateError, ConfigurationError,
                                 EventRoutingError, InvalidQoSError,
                                 KernelError, UnknownLayerError)
from repro.kernel.events import (BackoffTimerEvent, ChannelClose,
                                 ChannelEvent, ChannelInit, DebugEvent,
                                 Direction, EchoEvent, Event,
                                 PeriodicTimerEvent, SendableEvent,
                                 TimerEvent)
from repro.kernel.layer import Layer
from repro.kernel.message import Message
from repro.kernel.packet import (CONTROL, DATA, PACKET_OVERHEAD_BYTES,
                                 SRC_FIELD_OVERHEAD, EachOf, Packet)
from repro.kernel.qos import QoS
from repro.kernel.registry import (is_registered, register_layer,
                                   registered_layers, resolve_layer,
                                   unregister_layer)
from repro.kernel.scheduler import Kernel
from repro.kernel.session import Session
from repro.kernel.transport import (DatagramTransportLayer,
                                    DatagramTransportSession,
                                    TransportEndpoint)
from repro.kernel.xml_config import (ChannelTemplate, LayerSpec, coerce_scalar,
                                     dump_config, parse_config)

__all__ = [
    "Channel", "ChannelState", "TimerHandle",
    "Clock", "ManualClock",
    "ChannelStateError", "ConfigurationError", "EventRoutingError",
    "InvalidQoSError", "KernelError", "UnknownLayerError",
    "BackoffTimerEvent", "ChannelClose", "ChannelEvent", "ChannelInit",
    "DebugEvent", "Direction",
    "EchoEvent", "Event", "PeriodicTimerEvent", "SendableEvent", "TimerEvent",
    "Layer", "Message", "QoS",
    "CONTROL", "DATA", "PACKET_OVERHEAD_BYTES", "SRC_FIELD_OVERHEAD",
    "EachOf", "Packet",
    "DatagramTransportLayer", "DatagramTransportSession",
    "TransportEndpoint",
    "is_registered", "register_layer", "registered_layers", "resolve_layer",
    "unregister_layer",
    "Kernel", "Session",
    "ChannelTemplate", "LayerSpec", "coerce_scalar", "dump_config",
    "parse_config",
]
