"""The per-packet delivery reference the batching parity tests compare to.

:func:`unbatched` swaps the network's delivery batcher for one that
schedules every receiver of a queued request as its own engine entry, at
the ``(when, seq)`` the network reserved for that receiver while routing
— the seq stream of one plain ``call_at`` per packet, which same-slot
batching must be indistinguishable from.  Only ``engine_events`` may
differ: batching exists to shrink it.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from unittest import mock

from repro.simnet import network as network_module


class PerPacketBatcher(network_module._DeliveryBatcher):
    """Delivers each receiver of a queued request from its own engine
    entry."""

    def enqueue(self, when, seqs, dsts, packet) -> None:
        for seq, dst in zip(seqs, dsts, strict=True):
            self.engine.schedule_at_seq(
                when, seq, partial(network_module.deliver, self.network,
                                   dst, packet))


@contextmanager
def unbatched():
    """Networks built inside the block deliver one engine entry per packet."""
    with mock.patch.object(network_module, "_DeliveryBatcher",
                           PerPacketBatcher):
        yield
