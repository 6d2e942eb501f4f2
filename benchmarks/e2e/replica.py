"""In-process replica of the sharded runtime's per-event work.

The real sharded run spreads its cost over forked workers that a span in
the coordinator cannot see into, so ``coord_wait`` only says how long the
coordinator waited.  The replica replays each shard's substream — routed
with the runtime's own ``shard_for`` and interleaved with the watermarks
the coordinator broadcasts — through the same public calls a worker and
the coordinator make for it, one after the other in this process:

``encode``        ``SymbolEncoder.encode_event`` (and ``watermark_frame``)
``decode``        ``FrameReader.feed`` + ``SymbolDecoder.decode_event``
``pipeline``      the governed pipeline's ``feed`` / ``flush``
``capsule``       ``capsule_from`` + ``json_frame(ACK)`` every ack interval
``out``           ``json_frame(OUT)`` per emitted session
``coord_decode``  the coordinator's ``FrameReader.feed`` + ``decode_json``

Every name is resolved at run time; a missing ``capsule_from`` skips the
capsule layer (reported ``null``), any other missing name skips the
replica.  The sessions decoded from the OUT frames must digest exactly
like the real run's output.
"""

from __future__ import annotations

import importlib
import math

import repro.logs.reader as reader
from repro.obs import Registry
from repro.sessions.model import Request, Session, SessionSet
from repro.streaming import streaming_smart_sra
from repro.topology.io import load_graph

from workloads import FLUSH_INTERVAL

REPLICA_LAYERS = ("encode", "decode", "pipeline", "capsule", "out",
                  "coord_decode")

_WIRE_NAMES = ("SymbolEncoder", "SymbolDecoder", "FrameReader", "json_frame",
               "decode_json", "watermark_frame", "decode_watermark", "SYM",
               "EVT", "OUT", "ACK")


def _lookup(module_name: str, name: str):
    try:
        return getattr(importlib.import_module(module_name), name)
    except (ImportError, AttributeError):
        return None


def substreams(requests, shards: int, shard_for) -> list[list]:
    """Each shard's input in arrival order; a float item is a watermark.

    Mirrors the coordinator: route the event, then broadcast a watermark
    whenever event time has advanced ``FLUSH_INTERVAL`` since the last.
    """
    streams: list[list] = [[] for _ in range(shards)]
    last_flush = -math.inf
    for request in requests:
        streams[shard_for(request.user_id, shards)].append(request)
        if request.timestamp - last_flush >= FLUSH_INTERVAL:
            for stream in streams:
                stream.append(request.timestamp)
            last_flush = request.timestamp
    return streams


def _document(session: Session) -> dict:
    requests = session.requests
    return {"user": requests[0].user_id,
            "requests": [[r.timestamp, r.page, r.synthetic]
                         for r in requests]}


def _session(document: dict) -> Session:
    user = document["user"]
    return Session.from_trusted_parts(tuple(
        Request(float(t), user, page, bool(synthetic))
        for t, page, synthetic in document["requests"]))


def replay_shards(recorder, root: str, shards: int, ack_interval: int,
                  governor, topology_path: str, log_path: str
                  ) -> dict | None:
    """Replay every shard under the span ``root``.

    Returns the replica's digest, the bytes each frame class put on the
    wire and whether capsules were built — or ``None`` when a wire name
    or ``shard_for`` cannot be resolved.
    """
    wire = {name: _lookup("repro.streaming.wire", name)
            for name in _WIRE_NAMES}
    shard_for = _lookup("repro.streaming.sharded", "shard_for")
    capsule_from = _lookup("repro.streaming.sharded", "capsule_from")
    if shard_for is None or any(value is None for value in wire.values()):
        return None
    topology = load_graph(topology_path)
    with open(log_path, encoding="utf-8") as handle:
        requests = list(reader.iter_requests(reader.iter_clf_lines(handle)))
    sizes = {"evt": 0, "out": 0, "capsule": 0}
    sessions: list[Session] = []
    with recorder.span(root):
        for stream in substreams(requests, shards, shard_for):
            _replay_one(stream, recorder, wire, capsule_from, ack_interval,
                        streaming_smart_sra(topology, governor=governor,
                                            registry=Registry()),
                        sizes, sessions)
    return {"digest": SessionSet(sessions).canonical_digest(),
            "bytes": sizes, "capsules": capsule_from is not None}


def _replay_one(stream, recorder, wire, capsule_from, ack_interval: int,
                pipeline, sizes: dict, sessions: list) -> None:
    span = recorder.span
    json_frame = wire["json_frame"]
    encoder = wire["SymbolEncoder"]()
    inbound = wire["FrameReader"]()
    decoder = wire["SymbolDecoder"]()
    outbound = wire["FrameReader"]()
    ordinal = wm_index = 0
    head = -math.inf

    def emit(emitted, out: bytearray) -> None:
        with span("out"):
            for session in emitted:
                frame = json_frame(wire["OUT"], _document(session))
                sizes["out"] += len(frame)
                out += frame

    def ship(out: bytearray) -> None:
        with span("coord_decode"):
            for kind, payload in outbound.feed(bytes(out)):
                document = wire["decode_json"](payload)
                if kind == wire["OUT"]:
                    sessions.append(_session(document))

    for item in stream:
        with span("encode"):
            data = bytearray()
            if isinstance(item, float):
                data += wire["watermark_frame"](item)
            else:
                encoder.encode_event(data, item.timestamp, item.user_id,
                                     item.page, item.referrer,
                                     item.synthetic)
        sizes["evt"] += len(data)
        with span("decode"):
            decoded = []
            for kind, payload in inbound.feed(bytes(data)):
                if kind == wire["SYM"]:
                    decoder.add_symbol(payload)
                elif kind == wire["EVT"]:
                    decoded.append(decoder.decode_event(payload))
                else:
                    decoded.append(wire["decode_watermark"](payload))
        out = bytearray()
        for event in decoded:
            if isinstance(event, float):
                wm_index += 1
                with span("pipeline"):
                    emitted = pipeline.flush(event)
                ack_due = True
            else:
                timestamp, user, page, referrer, synthetic = event
                ordinal += 1
                head = max(head, timestamp)
                with span("pipeline"):
                    emitted = pipeline.feed(
                        Request(timestamp, user, page, synthetic, referrer))
                ack_due = ordinal % ack_interval == 0
            emit(emitted, out)
            if ack_due and capsule_from is not None:
                with span("capsule"):
                    frame = json_frame(wire["ACK"], {
                        "ordinal": ordinal, "wm_index": wm_index,
                        "watermark": head,
                        "capsule": capsule_from(pipeline)})
                sizes["capsule"] += len(frame)
                out += frame
        if out:
            ship(out)
    out = bytearray()
    with span("pipeline"):
        emitted = pipeline.flush()
    emit(emitted, out)
    ship(out)
