"""Applications and workloads: the paper's chat demo and experiment drivers."""

from repro.apps.chat import (ChatAppLayer, ChatDelivery, ChatHistory,
                             ChatSession)

__all__ = ["ChatAppLayer", "ChatDelivery", "ChatHistory", "ChatSession"]
