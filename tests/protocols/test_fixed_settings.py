"""Settings that were layer parameters no stack set keep their defaults.

Each case is named after the parameter it replaced and checks the value
that parameter defaulted to: the heartbeat and mecho damping rations,
the membership retry tick, the FEC give-up delay and the NACK batch
bound.
"""

from __future__ import annotations

import pytest

from repro.protocols import (FecLayer, HeartbeatLayer, MechoLayer,
                             MembershipLayer)
from repro.protocols.events import NackMessage
from tests.protocols.helpers import build_world


def heartbeat(interval=2.0):
    return HeartbeatLayer(members="a,b", interval=interval).create_session()


def mecho(relay_timeout=1.5):
    return MechoLayer(members="a,b", relay="a",
                      relay_timeout=relay_timeout).create_session()


@pytest.mark.parametrize("read, expected", [
    pytest.param(lambda: heartbeat(2.0).suspect_timeout, 12.0,
                 id="suspect_timeout"),
    pytest.param(lambda: heartbeat().path_reset_budget.limit, 3,
                 id="path_reset_limit"),
    pytest.param(lambda: heartbeat(2.0).path_reset_budget.window, 12.0,
                 id="path_reset_window"),
    pytest.param(lambda: heartbeat(2.0).path_reset_budget.cooldown, 12.0,
                 id="path_reset_cooldown"),
    pytest.param(lambda: mecho()._path_damper.limit, 4,
                 id="path_flap_limit"),
    pytest.param(lambda: mecho(1.5)._path_damper.window, 12.0,
                 id="path_flap_window"),
    pytest.param(lambda: mecho(1.5)._path_damper.cooldown, 12.0,
                 id="path_flap_cooldown"),
    pytest.param(lambda: MembershipLayer(members="a,b").create_session()
                 .retry_interval, 0.5, id="retry_interval"),
    pytest.param(lambda: FecLayer(members="a,b").create_session()
                 .giveup_timeout, 5.0, id="giveup_timeout"),
])
def test_the_setting_keeps_the_old_default(read, expected):
    assert read() == expected


def test_one_nack_asks_for_at_most_64_sequence_numbers():
    """Formerly ``max_nack_batch``: a gap of 100 is asked for in 64s."""
    engine, network, channels = build_world({"a": "fixed", "b": "fixed"})
    engine.run_until(0.5)
    reliable = channels["a"].session_named("reliable")
    reliable._advertised["b"] = 100
    sent = []
    reliable.send_down = lambda event, channel=None: sent.append(event)
    reliable._scan_for_gaps(channels["a"])
    nacks = [event for event in sent if isinstance(event, NackMessage)]
    assert len(nacks) == 1
    assert nacks[0].message.payload["seqs"] == list(range(1, 65))
