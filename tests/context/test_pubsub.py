"""Unit tests for the topic-based publish-subscribe bus."""

from __future__ import annotations

from repro.context import TopicBus


class TestExactTopics:
    def test_subscriber_receives_matching_publish(self):
        bus = TopicBus()
        received = []
        bus.subscribe("context.battery", lambda t, d: received.append((t, d)))
        bus.publish("context.battery", 0.5)
        assert received == [("context.battery", 0.5)]

    def test_non_matching_topic_ignored(self):
        bus = TopicBus()
        received = []
        bus.subscribe("context.battery", lambda t, d: received.append(d))
        bus.publish("context.memory", 64)
        assert received == []

    def test_multiple_subscribers_all_notified(self):
        bus = TopicBus()
        hits = []
        for index in range(3):
            bus.subscribe("t", lambda _t, _d, i=index: hits.append(i))
        assert bus.publish("t", None) == 3
        assert sorted(hits) == [0, 1, 2]

    def test_unsubscribe_stops_delivery(self):
        bus = TopicBus()
        received = []
        subscription = bus.subscribe("t", lambda t, d: received.append(d))
        bus.publish("t", 1)
        subscription.unsubscribe()
        bus.publish("t", 2)
        assert received == [1]


class TestWildcards:
    def test_prefix_wildcard_matches_subtree(self):
        bus = TopicBus()
        received = []
        bus.subscribe("context.*", lambda t, d: received.append(t))
        bus.publish("context.battery", 1)
        bus.publish("context.device_type", 2)
        bus.publish("other.battery", 3)
        assert received == ["context.battery", "context.device_type"]

    def test_wildcard_matches_deep_topics(self):
        bus = TopicBus()
        received = []
        bus.subscribe("a.*", lambda t, d: received.append(t))
        bus.publish("a.b.c", 1)
        assert received == ["a.b.c"]

    def test_exact_and_wildcard_both_fire(self):
        bus = TopicBus()
        received = []
        bus.subscribe("context.battery", lambda t, d: received.append("exact"))
        bus.subscribe("context.*", lambda t, d: received.append("wild"))
        assert bus.publish("context.battery", 0) == 2
        assert sorted(received) == ["exact", "wild"]

    def test_subscriber_count(self):
        bus = TopicBus()
        bus.subscribe("context.battery", lambda t, d: None)
        bus.subscribe("context.*", lambda t, d: None)
        assert bus.subscriber_count("context.battery") == 2
        assert bus.subscriber_count("context.memory") == 1
        assert bus.subscriber_count("unrelated") == 0


class TestResolvedOnce:
    """A topic's subscribers are resolved on its first publication; the
    resolution must not outlive a change of the subscription set."""

    def test_order_is_exact_then_prefixes_shortest_first(self):
        bus = TopicBus()
        order = []
        bus.subscribe("a.b.*", lambda t, d: order.append("a.b.*"))
        bus.subscribe("a.*", lambda t, d: order.append("a.*"))
        bus.subscribe("a.b.c", lambda t, d: order.append("exact"))
        for _ in range(2):  # resolved, then served from the resolution
            assert bus.publish("a.b.c", None) == 3
        assert order == ["exact", "a.*", "a.b.*"] * 2

    def test_later_subscriber_sees_later_publications(self):
        bus = TopicBus()
        received = []
        bus.publish("context.battery", 1)
        bus.subscribe("context.*", lambda t, d: received.append(("wild", d)))
        bus.publish("context.battery", 2)
        bus.subscribe("context.battery",
                      lambda t, d: received.append(("exact", d)))
        bus.publish("context.battery", 3)
        assert received == [("wild", 2), ("exact", 3), ("wild", 3)]
        assert bus.subscriber_count("context.battery") == 2

    def test_unsubscribed_wildcard_leaves_the_resolution(self):
        bus = TopicBus()
        received = []
        wild = bus.subscribe("context.*", lambda t, d: received.append(d))
        bus.publish("context.battery", 1)
        wild.unsubscribe()
        assert bus.publish("context.battery", 2) == 0
        assert bus.subscriber_count("context.battery") == 0
        assert received == [1]


class TestRobustness:
    def test_unsubscribe_during_publish_is_safe(self):
        bus = TopicBus()
        received = []
        subscription = bus.subscribe("t", lambda t, d: (
            received.append(d), subscription.unsubscribe()))
        bus.publish("t", 1)
        bus.publish("t", 2)
        assert received == [1]

    def test_published_count_tracks(self):
        bus = TopicBus()
        bus.publish("x", 1)
        bus.publish("y", 2)
        assert bus.published_count == 2
