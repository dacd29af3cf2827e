"""Topic-based publish-subscribe (the Cocaditem interface, paper §3.2).

*"The current prototype of Cocaditem implements a topic-based
publish-subscribe interface.  The components interested in this information
(namely the control component) subscribe the topics required for their
operation."*

This is the node-local half: a synchronous topic bus.  Distribution happens
in :mod:`repro.context.cocaditem`, which republishes remote snapshots into
the local bus.  Topics are dot-separated names; a subscription may end in
``.*`` to match a whole subtree (``context.*`` receives every attribute).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable

Subscriber = Callable[[str, Any], None]


class Subscription:
    """Handle returned by :meth:`TopicBus.subscribe`; detachable."""

    def __init__(self, bus: "TopicBus", pattern: str,
                 callback: Subscriber) -> None:
        self.bus = bus
        self.pattern = pattern
        self.callback = callback
        self.active = True

    def unsubscribe(self) -> None:
        self.bus._remove(self)


class TopicBus:
    """Synchronous topic-based publish-subscribe bus."""

    def __init__(self) -> None:
        self._exact: dict[str, list[Subscription]] = defaultdict(list)
        self._prefixes: dict[str, list[Subscription]] = defaultdict(list)
        #: ``topic -> `` its subscriptions in delivery order, resolved on
        #: the topic's first publication and dropped whenever the set of
        #: subscriptions changes — the few topics of a run are published
        #: thousands of times between changes.
        self._resolved: dict[str, tuple[Subscription, ...]] = {}
        #: Total publications, for diagnostics.
        self.published_count = 0

    def subscribe(self, pattern: str, callback: Subscriber) -> Subscription:
        """Register ``callback`` for ``pattern``.

        ``pattern`` is an exact topic name, or a prefix wildcard such as
        ``"context.*"`` matching every topic under ``context.``.
        """
        subscription = Subscription(self, pattern, callback)
        if pattern.endswith(".*"):
            self._prefixes[pattern[:-2]].append(subscription)
        else:
            self._exact[pattern].append(subscription)
        self._resolved.clear()
        return subscription

    def _remove(self, subscription: Subscription) -> None:
        subscription.active = False
        pattern = subscription.pattern
        pool = self._prefixes[pattern[:-2]] if pattern.endswith(".*") \
            else self._exact[pattern]
        if subscription in pool:
            pool.remove(subscription)
        self._resolved.clear()

    def _subscriptions(self, topic: str) -> tuple[Subscription, ...]:
        """Subscriptions matching ``topic``: exact ones first, then each
        prefix wildcard from the shortest prefix to the longest."""
        resolved = self._resolved.get(topic)
        if resolved is None:
            matching = list(self._exact.get(topic, ()))
            parts = topic.split(".")
            for cut in range(1, len(parts) + 1):
                matching += self._prefixes.get(".".join(parts[:cut]), ())
            resolved = self._resolved[topic] = tuple(matching)
        return resolved

    def publish(self, topic: str, data: Any) -> int:
        """Deliver ``data`` to every matching subscriber.

        Returns the number of subscribers notified.  A subscription
        cancelled by an earlier callback of the same publication is
        skipped (``active`` is re-checked at call time).
        """
        self.published_count += 1
        notified = 0
        for subscription in self._subscriptions(topic):
            if subscription.active:
                subscription.callback(topic, data)
                notified += 1
        return notified

    def subscriber_count(self, topic: str) -> int:
        """How many active subscriptions would see ``topic``."""
        return len(self._subscriptions(topic))
