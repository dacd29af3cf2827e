"""XML channel descriptions (the AppiaXML extension, paper §3.1).

A recent extension to Appia — developed in the context of this work — allows
the run-time to dynamically instantiate a channel from its XML description.
The Core reconfigurator uses exactly this mechanism: the coordinator ships
each participant the XML of the stack it must deploy, and the local module
instantiates it.

Format (layers listed **top first**, the way stacks are drawn in Figure 2)::

    <morpheus>
      <template name="hybrid-mobile">
        <channel name="data">
          <layer name="chat_app" session="app"/>
          <layer name="view_sync"/>
          <layer name="mecho" mode="wireless" relay="0"/>
          <layer name="sim_transport" session="transport"/>
        </channel>
      </template>
    </morpheus>

Attributes other than ``name`` and ``session`` become layer parameters, with
scalar coercion (``int`` → ``float`` → ``bool`` → ``str``).  A ``session``
label requests session sharing: channels instantiated with the same binding
map reuse the labelled session, and the reconfigurator uses labels to carry
sessions across stack replacement.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.kernel.channel import Channel
from repro.kernel.errors import ConfigurationError
from repro.kernel.qos import QoS
from repro.kernel.registry import resolve_layer
from repro.kernel.scheduler import Kernel
from repro.kernel.session import Session

_RESERVED_ATTRS = ("name", "session")


def coerce_scalar(text: str) -> Any:
    """Convert an XML attribute string to int, float, bool or str."""
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _render_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class LayerSpec:
    """One ``<layer>`` element: layer name, parameters, optional label."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    session_label: Optional[str] = None

    def to_element(self) -> ET.Element:
        """Render this spec as an ``ElementTree`` element."""
        attrs = {"name": self.name}
        if self.session_label:
            attrs["session"] = self.session_label
        for key in sorted(self.params):
            attrs[key] = _render_scalar(self.params[key])
        return ET.Element("layer", attrs)


@dataclass(frozen=True)
class ChannelTemplate:
    """A named channel description: an ordered list of layer specs (top first).

    Templates are pure data — comparable and serializable — which is what
    lets the Core coordinator ship them over the control channel and lets
    policies be expressed as "deploy template X".
    """

    name: str
    specs: tuple[LayerSpec, ...]

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_layers(name: str, specs: list[LayerSpec]) -> "ChannelTemplate":
        """Build a template from specs listed top-first."""
        return ChannelTemplate(name, tuple(specs))

    # -- serialization ---------------------------------------------------------

    def to_xml(self) -> str:
        """Render as a standalone ``<channel>`` XML fragment."""
        root = ET.Element("channel", {"name": self.name})
        for spec in self.specs:
            root.append(spec.to_element())
        return ET.tostring(root, encoding="unicode")

    @staticmethod
    def from_xml(text: str) -> "ChannelTemplate":
        """Parse a standalone ``<channel>`` fragment."""
        try:
            element = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ConfigurationError(f"malformed channel XML: {exc}") from exc
        return _parse_channel(element)

    # -- instantiation -----------------------------------------------------------

    def build_qos(self, qos_name: Optional[str] = None) -> QoS:
        """Instantiate layer objects and return a validated QoS.

        The template lists layers top-first; the QoS stores them bottom-first,
        so the order is reversed here.
        """
        layers = []
        for spec in reversed(self.specs):
            layer_class = resolve_layer(spec.name)
            layers.append(layer_class(**spec.params))
        return QoS(qos_name or self.name, layers)

    def instantiate(self, kernel: Kernel, channel_name: Optional[str] = None,
                    session_bindings: Optional[dict[str, Session]] = None,
                    start: bool = True) -> Channel:
        """Create (and by default start) a channel from this template.

        Args:
            kernel: hosting kernel.
            channel_name: override for the channel name (defaults to the
                template name).
            session_bindings: mutable mapping label → session.  Labels found
                in the map are *reused* (session sharing / preservation);
                labels not found are *added* after their sessions are
                created, so a subsequent instantiation can pick them up.
            start: when true, :meth:`Channel.start` is called before
                returning.
        """
        qos = self.build_qos()
        bindings = session_bindings if session_bindings is not None else {}
        preset: dict[int, Session] = {}
        labelled_fresh: list[tuple[str, int]] = []
        for spec_index, spec in enumerate(reversed(self.specs)):
            label = spec.session_label
            if not label:
                continue
            existing = bindings.get(label)
            if existing is not None:
                preset[spec_index] = existing
            else:
                labelled_fresh.append((label, spec_index))
        channel = qos.create_channel(channel_name or self.name, kernel,
                                     preset_sessions=preset)
        for label, spec_index in labelled_fresh:
            bindings[label] = channel.sessions[spec_index]
        if start:
            channel.start()
        return channel


@dataclass(frozen=True)
class RuleSpec:
    """One ``<rule>`` element: registered rule name plus parameters.

    Pure data, like :class:`LayerSpec` — the kernel only describes the
    rule; :mod:`repro.core.rules` resolves the name against its registry
    and instantiates it.
    """

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_element(self) -> ET.Element:
        attrs = {"name": self.name}
        for key in sorted(self.params):
            attrs[key] = _render_scalar(self.params[key])
        return ET.Element("rule", attrs)


@dataclass(frozen=True)
class PolicySpec:
    """A named ``<policy>``: ordered rules plus governor parameters.

    Format (rules listed in evaluation order, first match wins)::

        <policy name="adaptive">
          <governor budget="4" flap_limit="3" window="30" cooldown="60"/>
          <rule name="loss_adaptive" threshold="0.08" hysteresis="0.02"/>
          <rule name="hybrid_mecho"/>
        </policy>

    The ``<governor>`` element is optional; its attributes are coerced
    scalars handed to the adaptation governor unchanged.
    """

    name: str
    rules: tuple[RuleSpec, ...]
    governor: dict[str, Any] = field(default_factory=dict)

    def to_xml(self) -> str:
        """Render as a standalone ``<policy>`` fragment."""
        root = ET.Element("policy", {"name": self.name})
        if self.governor:
            attrs = {key: _render_scalar(self.governor[key])
                     for key in sorted(self.governor)}
            root.append(ET.Element("governor", attrs))
        for rule in self.rules:
            root.append(rule.to_element())
        return ET.tostring(root, encoding="unicode")

    @staticmethod
    def from_xml(text: str) -> "PolicySpec":
        """Parse a standalone ``<policy>`` fragment."""
        try:
            element = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ConfigurationError(f"malformed policy XML: {exc}") from exc
        return _parse_policy(element)


def parse_config(text: str) -> dict[str, ChannelTemplate]:
    """Parse a full ``<morpheus>`` document into templates by name.

    Accepts ``<template>`` wrappers (name defaulting the channel name) and
    bare ``<channel>`` children; ``<policy>`` elements are legal siblings
    (read by :func:`parse_policy_config`) and skipped here.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ConfigurationError(f"malformed configuration XML: {exc}") from exc
    templates: dict[str, ChannelTemplate] = {}
    for child in root:
        if child.tag == "template":
            channel_elements = child.findall("channel")
            if len(channel_elements) != 1:
                raise ConfigurationError(
                    f"template {child.get('name')!r} must contain exactly one "
                    f"<channel>, found {len(channel_elements)}")
            template = _parse_channel(
                channel_elements[0], default_name=child.get("name"))
        elif child.tag == "channel":
            template = _parse_channel(child)
        elif child.tag == "policy":
            continue
        else:
            raise ConfigurationError(f"unexpected element <{child.tag}>")
        if template.name in templates:
            raise ConfigurationError(f"duplicate template {template.name!r}")
        templates[template.name] = template
    return templates


def parse_policy_config(text: str) -> dict[str, PolicySpec]:
    """Parse the ``<policy>`` elements of a ``<morpheus>`` document."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ConfigurationError(f"malformed configuration XML: {exc}") from exc
    policies: dict[str, PolicySpec] = {}
    for child in root:
        if child.tag != "policy":
            continue
        policy = _parse_policy(child)
        if policy.name in policies:
            raise ConfigurationError(f"duplicate policy {policy.name!r}")
        policies[policy.name] = policy
    return policies


def dump_config(templates: dict[str, ChannelTemplate],
                policies: Optional[dict[str, PolicySpec]] = None) -> str:
    """Render templates (and optional policies) into a ``<morpheus>``
    document that :func:`parse_config`/:func:`parse_policy_config` round-trip."""
    # Imported here, its one use: ``xml.sax.saxutils`` loads
    # ``urllib.request``, ``http.client`` and ``email`` with it.
    from xml.sax.saxutils import quoteattr
    parts = ["<morpheus>"]
    for name in sorted(templates):
        template = templates[name]
        parts.append(f"  <template name={quoteattr(name)}>")
        for line in template.to_xml().splitlines():
            parts.append(f"    {line}")
        parts.append("  </template>")
    for name in sorted(policies or {}):
        for line in policies[name].to_xml().splitlines():
            parts.append(f"  {line}")
    parts.append("</morpheus>")
    return "\n".join(parts)


def _parse_channel(element: ET.Element,
                   default_name: Optional[str] = None) -> ChannelTemplate:
    name = element.get("name") or default_name
    if not name:
        raise ConfigurationError("<channel> element is missing a name")
    specs = []
    for child in element:
        if child.tag != "layer":
            raise ConfigurationError(
                f"unexpected element <{child.tag}> inside channel {name!r}")
        layer_name = child.get("name")
        if not layer_name:
            raise ConfigurationError(
                f"<layer> inside channel {name!r} is missing a name")
        params = {key: coerce_scalar(value)
                  for key, value in child.attrib.items()
                  if key not in _RESERVED_ATTRS}
        specs.append(LayerSpec(name=layer_name, params=params,
                               session_label=child.get("session")))
    if not specs:
        raise ConfigurationError(f"channel {name!r} has no layers")
    return ChannelTemplate(name, tuple(specs))


def _parse_policy(element: ET.Element) -> PolicySpec:
    name = element.get("name")
    if not name:
        raise ConfigurationError("<policy> element is missing a name")
    rules: list[RuleSpec] = []
    governor: dict[str, Any] = {}
    for child in element:
        if child.tag == "governor":
            if governor:
                raise ConfigurationError(
                    f"policy {name!r} has more than one <governor>")
            governor = {key: coerce_scalar(value)
                        for key, value in child.attrib.items()}
        elif child.tag == "rule":
            rule_name = child.get("name")
            if not rule_name:
                raise ConfigurationError(
                    f"<rule> inside policy {name!r} is missing a name")
            params = {key: coerce_scalar(value)
                      for key, value in child.attrib.items()
                      if key not in _RESERVED_ATTRS}
            rules.append(RuleSpec(name=rule_name, params=params))
        else:
            raise ConfigurationError(
                f"unexpected element <{child.tag}> inside policy {name!r}")
    if not rules:
        raise ConfigurationError(f"policy {name!r} has no rules")
    return PolicySpec(name, tuple(rules), governor)
