"""Wire-codec benchmark: encode/decode cost, framing size, batching.

Measures what the compact codec changed at the wire boundary:

* **micro** — encode and decode latency of wire-shaped values (control
  dicts, chat text, full header-stacked messages), and the encoded length
  against the legacy byte charge for the same value (the charge is an
  idealized minimum with no framing, so the ratio hovers near 1 on
  string-heavy traffic and drops below it on key/int-heavy control
  traffic);
* **scenario** — canned runs reporting real ``sent_wire_bytes`` against
  the charged ``sent_bytes``, plus engine events batched vs unbatched
  (the same-slot delivery coalescing this change ships with).

Usage::

    python benchmarks/bench_wire_codec.py            # full
    python benchmarks/bench_wire_codec.py --smoke    # CI smoke (seconds)
    python benchmarks/bench_wire_codec.py --out results.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from repro.kernel import codec
from repro.kernel.message import Message, estimate_size
from repro.scenarios.library import canned
from repro.scenarios.runner import run_scenario

SMOKE_SCENARIOS = ("commuter_handoff",)
FULL_SCENARIOS = ("commuter_handoff", "flash_crowd_join", "churn_storm",
                  "partition_heal")


def _control_dict() -> dict:
    return {"kind": "flush_ack", "from": "mobile-07", "sent": 134,
            "delivered": {"fixed-0": 133, "mobile-07": 134}}


def _chat_text() -> dict:
    return {"kind": "chat", "seqno": 17, "text": "b3-14 " * 6}


def _stacked_message() -> Message:
    message = Message(payload=_control_dict())
    message.push_header(("rm", "mobile-07", 134, 3))
    message.push_header(("vc", {"fixed-0": 133, "mobile-07": 134}))
    message.push_header(("mecho", "direct", "mobile-07"))
    return message


# -- micro -------------------------------------------------------------------

def bench_micro(iterations: int) -> dict:
    rows = {}
    for name, value in (("control_dict", _control_dict()),
                        ("chat_text", _chat_text()),
                        ("stacked_message", _stacked_message())):
        blob, charge = codec.encode_payload(value)

        start = time.perf_counter()
        for _ in range(iterations):
            codec.encode_payload(value)
        encode_us = (time.perf_counter() - start) / iterations * 1e6

        start = time.perf_counter()
        for _ in range(iterations):
            codec.decode_payload(blob)
        decode_us = (time.perf_counter() - start) / iterations * 1e6

        rows[name] = {
            "encode_us": round(encode_us, 3),
            "decode_us": round(decode_us, 3),
            "blob_bytes": len(blob),
            "legacy_charge": charge,
            "framing_ratio": round(len(blob) / charge, 3),
        }
        assert charge == estimate_size(value)
    return {"iterations": iterations, "values": rows}


# -- scenarios ---------------------------------------------------------------

def bench_scenarios(names: tuple[str, ...]) -> list[dict]:
    rows = []
    for name in names:
        start = time.perf_counter()
        batched = run_scenario(canned(name), batched=True)
        wall = time.perf_counter() - start
        plain = run_scenario(canned(name), batched=False)
        sent_bytes = sum(s["sent_bytes"] for s in batched.stats.values())
        wire_bytes = sum(s["sent_wire_bytes"] for s in batched.stats.values())
        rows.append({
            "scenario": name,
            "wall_s": round(wall, 3),
            "sent_bytes": sent_bytes,
            "sent_wire_bytes": wire_bytes,
            "wire_ratio": round(wire_bytes / sent_bytes, 3),
            "engine_events": batched.engine_events,
            "engine_events_unbatched": plain.engine_events,
            "event_reduction_pct": round(
                100.0 * (1 - batched.engine_events / plain.engine_events), 1),
            "delivered_packets": batched.delivered_packets,
        })
        print(f"  {name}: events {plain.engine_events} -> "
              f"{batched.engine_events} "
              f"(-{rows[-1]['event_reduction_pct']}%), "
              f"wire/charge {rows[-1]['wire_ratio']}", file=sys.stderr)
    return rows


def main(argv: Optional[list[str]] = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI (a few seconds)")
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report to this file")
    args = parser.parse_args(argv)

    if args.smoke:
        iterations = args.iterations or 2_000
        scenarios = SMOKE_SCENARIOS
    else:
        iterations = args.iterations or 50_000
        scenarios = FULL_SCENARIOS

    report: dict = {"mode": "smoke" if args.smoke else "full"}
    print("micro: encode/decode latency and framing", file=sys.stderr)
    report["micro"] = bench_micro(iterations)
    print(f"scenarios: {scenarios}", file=sys.stderr)
    report["scenarios"] = bench_scenarios(scenarios)

    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    return report


if __name__ == "__main__":
    main()
