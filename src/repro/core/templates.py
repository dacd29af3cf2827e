"""Stack templates: the configurations Core can deploy (Figure 2).

Builders for the XML channel descriptions used throughout the system:

* :func:`plain_data_template` — Figure 2(a): the homogeneous configuration,
  plain best-effort multicast under the group-communication suite;
* :func:`mecho_data_template` — Figure 2(b): the hybrid configuration, with
  Mecho in ``wired`` mode on fixed devices and ``wireless`` mode on mobile
  devices;
* :func:`control_template` — the Cocaditem/Core control channel (shared by
  both sub-systems, paper §3.3).

Session labels: ``app`` (the application survives reconfiguration),
``viewsync`` (queued sends survive), ``transport`` (one NIC adapter per
node, shared by every channel).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.kernel.xml_config import ChannelTemplate, LayerSpec

#: Session labels preserved across stack replacement.
APP_LABEL = "app"
VIEWSYNC_LABEL = "viewsync"
TRANSPORT_LABEL = "transport"
CORE_LABEL = "core"
COCADITEM_LABEL = "cocaditem"


def _members_csv(members: Sequence[str]) -> str:
    return ",".join(sorted(members))


def _suite_specs(members: Sequence[str], heartbeat_interval: float,
                 nack_interval: float, view_id: int,
                 label_viewsync: bool = True,
                 joining: bool = False) -> list[LayerSpec]:
    """The common middle of every stack: viewsync/membership/hb/reliable.

    The view-synchrony session is labelled (preserved across swaps) only on
    data channels; the control channel keeps its own private instance.
    ``joining`` puts the membership layer in joiner mode (solicit admission
    instead of self-installing the bootstrap view).
    """
    csv = _members_csv(members)
    membership_params: dict = {"members": csv, "view_id": view_id}
    if joining:
        membership_params["join"] = True
    return [
        LayerSpec("view_sync", {},
                  session_label=VIEWSYNC_LABEL if label_viewsync else None),
        LayerSpec("membership", membership_params),
        LayerSpec("heartbeat", {"members": csv,
                                "interval": heartbeat_interval}),
        LayerSpec("reliable", {"members": csv,
                               "nack_interval": nack_interval}),
    ]


def _ordering_specs(ordering: Sequence[str]) -> list[LayerSpec]:
    specs = []
    if "total" in ordering:
        specs.append(LayerSpec("total"))
    if "causal" in ordering:
        specs.append(LayerSpec("causal"))
    return specs


def plain_data_template(members: Sequence[str], *, name: str = "data",
                        app_layer: str = "chat_app",
                        app_params: Optional[dict] = None,
                        ordering: Sequence[str] = (),
                        heartbeat_interval: float = 5.0,
                        nack_interval: float = 0.25,
                        view_id: int = 0,
                        native: bool = False) -> ChannelTemplate:
    """Figure 2(a): homogeneous stack over plain best-effort multicast."""
    csv = _members_csv(members)
    specs = [LayerSpec(app_layer, dict(app_params or {}),
                       session_label=APP_LABEL)]
    specs += _ordering_specs(ordering)
    specs += _suite_specs(members, heartbeat_interval, nack_interval, view_id)
    specs.append(LayerSpec("beb", {"members": csv, "native": native}))
    specs.append(LayerSpec("sim_transport", session_label=TRANSPORT_LABEL))
    return ChannelTemplate(name, tuple(specs))


def mecho_data_template(members: Sequence[str], *, mode: str, relay: str,
                        name: str = "data",
                        app_layer: str = "chat_app",
                        app_params: Optional[dict] = None,
                        ordering: Sequence[str] = (),
                        heartbeat_interval: float = 5.0,
                        nack_interval: float = 0.25,
                        view_id: int = 0) -> ChannelTemplate:
    """Figure 2(b): hybrid stack with Mecho at the base.

    ``mode`` is the Mecho operating mode for the node this template is
    shipped to (``wired`` on fixed devices, ``wireless`` on mobile ones) and
    ``relay`` the selected fixed relay.
    """
    csv = _members_csv(members)
    specs = [LayerSpec(app_layer, dict(app_params or {}),
                       session_label=APP_LABEL)]
    specs += _ordering_specs(ordering)
    specs += _suite_specs(members, heartbeat_interval, nack_interval, view_id)
    # Relay probe shorter than the failure detector's suspicion timeout
    # (6 × heartbeat interval): a mobile stops sending through a silent
    # relay well before the detector decides whether the relay is dead,
    # so the group's traffic does not wait on that verdict.
    specs.append(LayerSpec("mecho", {"members": csv, "mode": mode,
                                     "relay": relay,
                                     "relay_timeout": 3.0 * heartbeat_interval}))
    specs.append(LayerSpec("sim_transport", session_label=TRANSPORT_LABEL))
    return ChannelTemplate(name, tuple(specs))


def fec_data_template(members: Sequence[str], *, name: str = "data",
                      app_layer: str = "chat_app",
                      app_params: Optional[dict] = None,
                      ordering: Sequence[str] = (),
                      heartbeat_interval: float = 5.0,
                      nack_interval: float = 0.25,
                      view_id: int = 0,
                      k: int = 8, m: int = 2) -> ChannelTemplate:
    """Error-masking stack (§2): Reed–Solomon FEC below the reliable layer.

    At high loss rates the FEC layer reconstructs most missing messages
    before the reliable layer notices a gap, trading a fixed ``m/k``
    bandwidth overhead for (latency-expensive) retransmission round-trips.
    """
    csv = _members_csv(members)
    specs = [LayerSpec(app_layer, dict(app_params or {}),
                       session_label=APP_LABEL)]
    specs += _ordering_specs(ordering)
    specs += _suite_specs(members, heartbeat_interval, nack_interval, view_id)
    specs.append(LayerSpec("fec", {"members": csv, "k": k, "m": m}))
    specs.append(LayerSpec("beb", {"members": csv}))
    specs.append(LayerSpec("sim_transport", session_label=TRANSPORT_LABEL))
    return ChannelTemplate(name, tuple(specs))


def control_template(members: Sequence[str], *, name: str = "ctrl",
                     publish_interval: float = 10.0,
                     evaluate_interval: float = 5.0,
                     heartbeat_interval: float = 5.0,
                     nack_interval: float = 0.25,
                     joining: bool = False) -> ChannelTemplate:
    """The shared Cocaditem + Core control channel (paper §3.2–3.3).

    ``joining`` builds the control stack of a node that enters a running
    system: its membership layer asks the listed peers for admission
    instead of self-installing a bootstrap view.
    """
    csv = _members_csv(members)
    specs = [
        LayerSpec("core", {"evaluate_interval": evaluate_interval},
                  session_label=CORE_LABEL),
        LayerSpec("cocaditem", {"publish_interval": publish_interval},
                  session_label=COCADITEM_LABEL),
    ]
    specs += _suite_specs(members, heartbeat_interval, nack_interval,
                          view_id=0, label_viewsync=False, joining=joining)
    specs.append(LayerSpec("beb", {"members": csv}))
    specs.append(LayerSpec("sim_transport", session_label=TRANSPORT_LABEL))
    return ChannelTemplate(name, tuple(specs))


def patch_for_view(template: ChannelTemplate, members: Sequence[str],
                   view_id: int) -> ChannelTemplate:
    """Rewrite a template's group parameters for the agreed next view.

    The Core coordinator plans a reconfiguration *before* the flush runs, so
    the template it ships cannot know the final view.  At deployment time
    the local module patches every group-aware layer with the held view's
    membership and continues the view numbering.
    """
    csv = _members_csv(members)
    patched = []
    for spec in template.specs:
        params = dict(spec.params)
        if "members" in params:
            params["members"] = csv
        if spec.name == "membership":
            params["view_id"] = view_id
            params["members"] = csv
        patched.append(LayerSpec(spec.name, params, spec.session_label))
    return ChannelTemplate(template.name, tuple(patched))
