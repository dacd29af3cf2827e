"""Packet-loss models for simulated links.

The paper's motivation (§2) hinges on loss behaviour: *"the network error
rate may influence the type of error recovery: for small error rates it is
preferable to detect and recover (using retransmissions) while for larger
error rates it is preferable to mask the errors (using forward error
recovery techniques)"*.  These models feed the ARQ-vs-FEC adaptation and the
crossover benchmark.
"""

from __future__ import annotations

import random
from typing import Protocol


class LossModel(Protocol):
    """Decides, per transmission, whether a packet is lost."""

    def is_lost(self, size_bytes: int) -> bool:  # pragma: no cover - protocol
        ...


class NoLoss:
    """A perfect link."""

    def is_lost(self, size_bytes: int) -> bool:
        return False

    def spawn(self, label: str) -> "NoLoss":
        """A perfect link is its own stream for every sender."""
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return "NoLoss()"


class BernoulliLoss:
    """Independent per-packet loss with fixed probability.

    Args:
        probability: loss probability in ``[0, 1]``.
        rng: seeded random source (determinism contract: always pass one
            derived from the experiment seed).
        seed_base: optional string base for :meth:`spawn` — when set, each
            sender gets a private stream seeded ``f"{seed_base}:{label}"``,
            making one node's draws independent of how everyone else's
            traffic interleaves.  Without it, :meth:`spawn` keeps the
            single shared stream.
    """

    def __init__(self, probability: float, rng: random.Random,
                 seed_base: str | None = None) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability out of range: {probability}")
        self.probability = probability
        self._rng = rng
        self.seed_base = seed_base

    def spawn(self, label: str) -> "BernoulliLoss":
        """Per-sender draw stream (self when no ``seed_base`` was given)."""
        if self.seed_base is None:
            return self
        return BernoulliLoss(self.probability,
                             random.Random(f"{self.seed_base}:{label}"))

    def is_lost(self, size_bytes: int) -> bool:
        if self.probability == 0.0:
            return False
        return self._rng.random() < self.probability

    def __repr__(self) -> str:  # pragma: no cover
        return f"BernoulliLoss(p={self.probability})"


class GilbertElliottLoss:
    """Two-state bursty loss (good/bad channel), the classic 802.11 model.

    In the *good* state packets are lost with ``p_good``; in the *bad* state
    with ``p_bad``.  Transitions happen per packet with the given
    probabilities, producing loss bursts whose mean length is
    ``1 / p_bad_to_good``.
    """

    def __init__(self, rng: random.Random,
                 p_good: float = 0.001, p_bad: float = 0.35,
                 p_good_to_bad: float = 0.02,
                 p_bad_to_good: float = 0.25,
                 seed_base: str | None = None) -> None:
        for name, value in (("p_good", p_good), ("p_bad", p_bad),
                            ("p_good_to_bad", p_good_to_bad),
                            ("p_bad_to_good", p_bad_to_good)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        self._rng = rng
        self.p_good = p_good
        self.p_bad = p_bad
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.in_bad_state = False
        self.seed_base = seed_base

    def spawn(self, label: str) -> "GilbertElliottLoss":
        """Per-sender channel (self when no ``seed_base`` was given).

        Each sender's spawned channel walks its own good/bad state chain:
        bursts model *that sender's* radio conditions, independent of the
        order other senders' packets hit the shared model object.
        """
        if self.seed_base is None:
            return self
        return GilbertElliottLoss(
            random.Random(f"{self.seed_base}:{label}"),
            p_good=self.p_good, p_bad=self.p_bad,
            p_good_to_bad=self.p_good_to_bad,
            p_bad_to_good=self.p_bad_to_good)

    def is_lost(self, size_bytes: int) -> bool:
        # State transition first, then loss draw in the new state.
        if self.in_bad_state:
            if self._rng.random() < self.p_bad_to_good:
                self.in_bad_state = False
        else:
            if self._rng.random() < self.p_good_to_bad:
                self.in_bad_state = True
        probability = self.p_bad if self.in_bad_state else self.p_good
        return self._rng.random() < probability

    def __repr__(self) -> str:  # pragma: no cover
        return (f"GilbertElliottLoss(pg={self.p_good}, pb={self.p_bad}, "
                f"state={'bad' if self.in_bad_state else 'good'})")
