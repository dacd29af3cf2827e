"""Canned dynamic-topology scenarios.

Each builder returns a :class:`~repro.scenarios.scenario.Scenario` sized
for interactive runs; the keyword arguments let tests scale them down and
benchmarks scale them up.  The five scenarios cover the event classes that
a static topology cannot exercise:

* :func:`commuter_handoff` — a device leaves the office LAN for the
  wireless cell mid-chat and docks back later (plain ↔ Mecho);
* :func:`flash_crowd_join` — mobile devices join a running wired group in
  quick succession (control-group admission + data redeployment per wave);
* :func:`degrading_channel_fec` — interference degrades the wireless cell,
  crossing the ARQ→FEC threshold, then clears (loss-model swap);
* :func:`churn_storm` — crashes, a recovery and a graceful leave in quick
  succession (exclusion, re-admission, departure);
* :func:`partition_heal` — the cell is cut off from the LAN and later
  reconnected (split views, stranger-driven merge, redeployment);
* :func:`energy_rotation` — an all-mobile cell on battery power rotates
  the relay to the fullest device while members dock, crash and recover
  (the energy-aware adaptation of §1, under churn).
"""

from __future__ import annotations

from repro.scenarios.scenario import (ChatBurst, Crash, Handoff, Heal, Leave,
                                      NodeSpec, Partition, Recover, Scenario,
                                      SetLoss, bernoulli)


def commuter_handoff(*, messages: int = 100, out_at: float = 20.0,
                     back_at: float = 45.0,
                     duration_s: float = 65.0) -> Scenario:
    """A commuter's laptop undocks (FIXED→MOBILE) and later docks back.

    The group starts homogeneous on the plain stack; the handoff makes it
    hybrid, Core deploys Mecho, and the return handoff restores plain —
    two live reconfigurations under a continuous chat stream.
    """
    return Scenario(
        name="commuter_handoff",
        duration_s=duration_s,
        nodes=(NodeSpec("commuter", "fixed"),
               NodeSpec("fixed-0", "fixed"),
               NodeSpec("fixed-1", "fixed")),
        events=(Handoff(out_at, node="commuter", to="mobile"),
                Handoff(back_at, node="commuter", to="fixed")),
        workload=(ChatBurst(start=1.0, sender="commuter", count=messages,
                            interval=0.5),),
        wireless=bernoulli(0.03),
    )


def flash_crowd_join(*, joiners: int = 3, first_join_at: float = 15.0,
                     join_spacing: float = 4.0, messages: int = 100,
                     duration_s: float = 60.0) -> Scenario:
    """Mobile devices join a running wired group in quick succession.

    Every admission grows the control group and makes the membership
    hybrid(er); the Core coordinator folds each wave into the data channel
    by redeploying the grown configuration.
    """
    late = tuple(
        NodeSpec(f"mobile-{index}", "mobile",
                 join_at=first_join_at + index * join_spacing)
        for index in range(joiners))
    return Scenario(
        name="flash_crowd_join",
        duration_s=duration_s,
        nodes=(NodeSpec("fixed-0", "fixed"),
               NodeSpec("fixed-1", "fixed")) + late,
        workload=(ChatBurst(start=1.0, sender="fixed-0", count=messages,
                            interval=0.5),),
    )


def degrading_channel_fec(*, messages: int = 200, degrade_at: float = 25.0,
                          clear_at: float = 60.0, high_loss: float = 0.2,
                          duration_s: float = 90.0) -> Scenario:
    """Interference degrades the cell across the ARQ→FEC crossover.

    Runs the ``loss_adaptive`` policy (the rule of that name): the swapped
    loss model moves the disseminated ``link_quality`` attribute over the
    threshold, FEC deploys, and the clearing channel brings ARQ back.
    """
    return Scenario(
        name="degrading_channel_fec",
        duration_s=duration_s,
        nodes=(NodeSpec("mobile-0", "mobile"),
               NodeSpec("fixed-0", "fixed"),
               NodeSpec("fixed-1", "fixed"),
               NodeSpec("fixed-2", "fixed")),
        events=(SetLoss(degrade_at, segment="wireless",
                        link=bernoulli(high_loss)),
                SetLoss(clear_at, segment="wireless", link=bernoulli(0.01))),
        workload=(ChatBurst(start=1.0, sender="mobile-0", count=messages,
                            interval=0.25),),
        policy="loss_adaptive",
        wireless=bernoulli(0.01),
    )


def churn_storm(*, messages: int = 120, duration_s: float = 70.0,
                members: int = 5) -> Scenario:
    """Back-to-back crashes, one recovery and a graceful leave.

    Exercises exclusion flushes (including the restart when a second crash
    lands mid-flush), singleton re-admission after recovery, and the
    leave/ban path — all under a continuous chat stream from a survivor.

    ``members`` scales the group for the 10–100 node benchmark sweeps: the
    canonical five nodes (and the churn events on them) are kept verbatim,
    and the remainder is filled with bystander fixed/mobile members who
    live through every flush — so the reconfiguration work grows with the
    group while the event schedule stays identical across sizes.
    """
    if members < 5:
        raise ValueError(f"churn_storm needs >= 5 members, got {members}")
    extra = members - 5
    extra_fixed = extra // 2
    bystanders = tuple(
        NodeSpec(f"fixed-{2 + index}", "fixed")
        for index in range(extra_fixed)
    ) + tuple(
        NodeSpec(f"mobile-{3 + index}", "mobile")
        for index in range(extra - extra_fixed))
    return Scenario(
        name="churn_storm",
        duration_s=duration_s,
        nodes=(NodeSpec("fixed-0", "fixed"),
               NodeSpec("fixed-1", "fixed"),
               NodeSpec("mobile-0", "mobile"),
               NodeSpec("mobile-1", "mobile"),
               NodeSpec("mobile-2", "mobile")) + bystanders,
        events=(Crash(15.0, node="mobile-1"),
                Crash(18.0, node="mobile-2"),
                Recover(30.0, node="mobile-1"),
                Leave(45.0, node="fixed-1")),
        workload=(ChatBurst(start=1.0, sender="fixed-0", count=messages,
                            interval=0.5),),
        heartbeat_interval=1.0,
    )


def partition_heal(*, messages: int = 130, split_at: float = 20.0,
                   heal_at: float = 35.0,
                   duration_s: float = 75.0) -> Scenario:
    """The wireless cell is cut off from the LAN, then reconnected.

    Each side shrinks to its own view and keeps running; after the heal,
    stranger beacons merge the sides back into one group and the Core
    coordinator redeploys for the reunited membership.
    """
    return Scenario(
        name="partition_heal",
        duration_s=duration_s,
        nodes=(NodeSpec("fixed-0", "fixed"),
               NodeSpec("fixed-1", "fixed"),
               NodeSpec("mobile-0", "mobile"),
               NodeSpec("mobile-1", "mobile")),
        events=(Partition(split_at, groups=(("fixed-0", "fixed-1"),
                                            ("mobile-0", "mobile-1"))),
                Heal(heal_at)),
        workload=(ChatBurst(start=1.0, sender="fixed-0", count=messages,
                            interval=0.5),),
        heartbeat_interval=1.0,
    )


def energy_rotation(*, messages: int = 100, duration_s: float = 75.0,
                    batteries: tuple = (260.0, 310.0, 230.0, 350.0),
                    joiner_battery: float = 330.0) -> Scenario:
    """An all-mobile ad hoc cell on battery power, rotating the relay.

    Runs the ``rotating`` policy (the ``battery_rotation`` rule): relaying
    costs the most energy, so the current relay's disseminated ``battery``
    attribute sinks fastest; once it trails the fullest device by the
    hysteresis gap the coordinator hands the relay role over — the
    network-lifetime adaptation the paper cites from energy-aware
    multicasting.  Churn rides along: one device docks to the wire
    mid-run (and undocks later), another crashes and recovers, and a
    freshly charged device joins late — each a context change the
    rotation decision must absorb.
    """
    nodes = tuple(
        NodeSpec(f"mobile-{index}", "mobile", battery_mj=float(level))
        for index, level in enumerate(batteries))
    joiner = NodeSpec(f"mobile-{len(batteries)}", "mobile", join_at=25.0,
                      battery_mj=float(joiner_battery))
    return Scenario(
        name="energy_rotation",
        duration_s=duration_s,
        nodes=nodes + (joiner,),
        events=(Handoff(20.0, node="mobile-1", to="fixed"),
                Crash(35.0, node="mobile-2"),
                Recover(45.0, node="mobile-2"),
                Handoff(55.0, node="mobile-1", to="mobile")),
        workload=(ChatBurst(start=1.0, sender="mobile-0", count=messages,
                            interval=0.5),),
        policy="rotating",
        heartbeat_interval=1.0,
        wireless=bernoulli(0.02),
    )


#: Name → builder registry of the canned scenarios.
CANNED = {
    "commuter_handoff": commuter_handoff,
    "flash_crowd_join": flash_crowd_join,
    "degrading_channel_fec": degrading_channel_fec,
    "churn_storm": churn_storm,
    "partition_heal": partition_heal,
    "energy_rotation": energy_rotation,
}


def canned(name: str, **overrides) -> Scenario:
    """Build a canned scenario by name (``**overrides`` reach the builder)."""
    try:
        builder = CANNED[name]
    except KeyError:
        raise ValueError(f"unknown canned scenario {name!r}; "
                         f"have {sorted(CANNED)}") from None
    return builder(**overrides)
