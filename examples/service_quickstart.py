"""Service quickstart: many fact-checking sessions behind an HTTP API.

Drives the multi-session service (`repro.service`) through its thin
client: a batch validation session and a streaming claim-arrival session
are created from declarative ``SessionSpec`` documents, driven over HTTP,
checkpointed, and finalised — all against one server hosting both
concurrently.

By default the example boots its own in-process server on an ephemeral
port.  Point ``REPRO_SERVICE_URL`` at a running ``python -m repro serve``
instance to exercise a real deployment instead (this is what the CI
service-smoke job does).

Run with::

    python examples/service_quickstart.py

Set ``EXAMPLE_SMOKE=1`` for the reduced-scale variant CI executes.
"""

from __future__ import annotations

import os
import tempfile

from repro import SessionSpec, load_dataset, stream_from_database
from repro.service import ServiceClient

SMOKE = os.environ.get("EXAMPLE_SMOKE") == "1"


def start_local_server():
    """An in-process service with a spool directory (stdlib only)."""
    from repro.service import ReproServiceServer, ServiceConfig, SessionManager

    spool = tempfile.mkdtemp(prefix="repro-spool-")
    manager = SessionManager(ServiceConfig(spool_dir=spool, workers=4))
    server = ReproServiceServer(manager)  # port 0 = ephemeral
    server.serve_in_background()
    return server, manager


def main() -> None:
    url = os.environ.get("REPRO_SERVICE_URL")
    server = manager = None
    if url is None:
        server, manager = start_local_server()
        url = server.url
        print(f"started in-process service on {url}")
    client = ServiceClient(url)
    print(f"service health: {client.health()}")

    # -- a batch validation session (Alg. 1) over HTTP ------------------
    batch_spec = SessionSpec(
        seed=7,
        dataset={"name": "snopes", "seed": 7, "scale": 0.006 if SMOKE else 0.01},
        guidance={"strategy": "hybrid", "candidate_limit": 20},
        effort={"goal": {"kind": "true_precision", "threshold": 0.90}},
    )
    batch = client.create_session(batch_spec, session_id="quickstart-batch")
    print(f"\ncreated batch session: {batch}")

    stepped = client.step(batch["id"], count=2)
    for record in stepped["records"]:
        print(
            f"iter {record['iteration']:>2}: {record['claim_ids'][0]} <- "
            f"{record['user_values'][0]} precision={record['precision']:.3f}"
        )
    client.checkpoint(batch["id"])  # durable from here on
    finished = client.step(batch["id"], run=True)
    result = finished["result"]
    print(
        f"batch stopped ({result['stop_reason']}) at "
        f"{result['final_precision']:.1%} precision with "
        f"{result['num_labelled']}/{result['num_claims']} claims validated"
    )

    # -- a streaming session (Alg. 2) fed claim arrivals over HTTP -------
    stream_spec = SessionSpec(
        mode="streaming",
        seed=5,
        inference={"em_iterations": 2, "num_samples": 8},
        effort={"goal": {"kind": "none"}},
        stream={"validation_every": 4},
    )
    streaming = client.create_session(stream_spec, session_id="quickstart-stream")
    print(f"\ncreated streaming session: {streaming}")

    corpus = load_dataset("health", seed=5, scale=0.02 if SMOKE else 0.05)
    arrivals = list(stream_from_database(corpus))
    updates = client.stream_claims(streaming["id"], arrivals, chunk_size=8)
    print(f"streamed {len(updates)} arrivals in chunks of 8")

    # External user input addressed by stable claim id.
    first_claim = arrivals[0].claim.claim_id
    client.record_labels(
        streaming["id"], [{"claim": first_claim, "value": 1}]
    )
    stream_result = client.result_dict(streaming["id"])
    print(
        f"streaming session so far ({stream_result['stop_reason']}): "
        f"{stream_result['num_claims']} claims, "
        f"{stream_result['num_labelled']} labelled"
    )

    sessions = client.list_sessions()
    print(f"\nserver hosts {len(sessions)} sessions: "
          f"{sorted(entry['id'] for entry in sessions)}")
    for session_id in (batch["id"], streaming["id"]):
        client.delete_session(session_id)
    print("sessions deleted; service still healthy:", client.health())

    if server is not None:
        server.shutdown()
        manager.shutdown()
        print("in-process server stopped")


if __name__ == "__main__":
    main()
