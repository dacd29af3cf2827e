"""Cocaditem: context capture and dissemination (paper §3.2).

Retrievers sample system context on every node; a topic-based
publish-subscribe bus serves local subscribers (Core above all); each
node sends its snapshots point-to-point on the shared control channel to
the control coordinator, the one node whose policy reads the *distributed*
context.
"""

from repro.context.cocaditem import CocaditemLayer, CocaditemSession
from repro.context.model import (BANDWIDTH, BATTERY, DEVICE_TYPE,
                                 LINK_QUALITY, MEMORY, TOPIC_PREFIX,
                                 ContextSample, ContextSnapshot, topic_for)
from repro.context.pubsub import Subscription, TopicBus
from repro.context.retrievers import (BandwidthRetriever, BatteryRetriever,
                                      CallableRetriever, ContextRetriever,
                                      DeviceTypeRetriever,
                                      LinkQualityRetriever, MemoryRetriever,
                                      default_retrievers)

__all__ = [
    "CocaditemLayer", "CocaditemSession",
    "BANDWIDTH", "BATTERY", "DEVICE_TYPE", "LINK_QUALITY",
    "MEMORY", "TOPIC_PREFIX", "ContextSample", "ContextSnapshot",
    "topic_for",
    "Subscription", "TopicBus",
    "BandwidthRetriever", "BatteryRetriever", "CallableRetriever",
    "ContextRetriever", "DeviceTypeRetriever",
    "LinkQualityRetriever", "MemoryRetriever", "default_retrievers",
]
