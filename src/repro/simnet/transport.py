"""The bottom-of-stack transport layer, bound to the simulated network.

The send/receive logic is backend-neutral and lives in
:mod:`repro.kernel.transport` (:class:`DatagramTransportSession`); this
module contributes only the registered layer descriptor.  Its historical
XML name ``"sim_transport"`` is kept for every checked-in template and
recorded stack history — the descriptor itself is stateless and shared by
the live backend too, because the transport *session* is preset through
the ``"transport"`` binding label and carries the actual endpoint (a
:class:`~repro.simnet.node.Node` of either backend's network).
"""

from __future__ import annotations

from repro.kernel.registry import register_layer
from repro.kernel.transport import DatagramTransportLayer


@register_layer
class SimTransportLayer(DatagramTransportLayer):
    """Registered transport descriptor (XML name ``"sim_transport"``)."""

    layer_name = "sim_transport"
