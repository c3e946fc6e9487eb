"""Checkpoint files: persisting a session so it can resume bit-for-bit.

A checkpoint is a single JSON document containing the session's
:class:`~repro.api.specs.SessionSpec`, the corpus structure (batch mode) or
the streamed entities (streaming mode), and the full mutable run state —
database labels and probabilities, model weights, Gibbs-chain spins, every
RNG bit-stream position, the trace, and all auxiliary counters.  Restoring
rebuilds the object graph from the spec and overlays the saved state, so a
resumed session continues the *same* random stream and reproduces the
uninterrupted run exactly (asserted by ``tests/test_api_checkpoint.py``).

Python's ``json`` round-trips both ``float`` values (shortest-repr) and the
arbitrary-precision integers of the PCG64 RNG state losslessly, which is
what makes a textual checkpoint format viable for bit-for-bit resume.

Two compaction mechanisms keep checkpoints small for large corpora:

* paths ending in ``.gz`` (the service spool uses ``.json.gz``) are
  gzip-compressed on write and detected transparently on read;
* version-2 checkpoints of sessions whose corpus came from a
  :class:`~repro.api.specs.DatasetSpec` store only a structural
  fingerprint instead of re-embedding the full corpus — loading
  regenerates the corpus from the spec (generation is deterministic) and
  verifies the fingerprint.  Version-1 checkpoints (corpus embedded) load
  unchanged.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

from repro.errors import CheckpointError

#: Identifying header of every checkpoint file.
CHECKPOINT_FORMAT = "repro-session-checkpoint"

#: Version written into every checkpoint; bumped on breaking changes.
CHECKPOINT_VERSION = 3

#: Versions :func:`read_checkpoint` accepts (v1 embedded the corpus
#: unconditionally; v2 may replace it with a dataset fingerprint; v3 may
#: additionally replace a streaming session's entity lists with a stream
#: fingerprint plus replay position).
SUPPORTED_CHECKPOINT_VERSIONS = (1, 2, 3)

#: gzip magic bytes — how compressed checkpoints are detected on read.
_GZIP_MAGIC = b"\x1f\x8b"

def checkpoint_spec(payload: dict) -> dict:
    """The checkpoint's spec dict, minus keys the spec no longer has.

    Checkpoints written before the gain executor was removed carry
    ``guidance.parallel``/``max_workers`` and
    ``guidance.gain.parallel``/``max_workers``/``cache_gains``; those
    written before the engine backends were folded into one carry the
    backend name and shard count under ``inference``; those written
    before streaming always grew its snapshot in place carry
    ``stream.incremental``.  They chose how work was executed and never
    changed a result, so they are dropped here and those files (service
    spool entries included) still load.  Specs supplied by a user still
    fail on these keys.
    """
    spec = payload["spec"]
    inference = spec.get("inference") or {}
    for key in ("engine", "num_shards"):
        inference.pop(key, None)
    stream = spec.get("stream") or {}
    stream.pop("incremental", None)
    guidance = spec.get("guidance") or {}
    for key in ("parallel", "max_workers"):
        guidance.pop(key, None)
    gain = guidance.get("gain") or {}
    for key in ("parallel", "max_workers", "cache_gains"):
        gain.pop(key, None)
    return spec


def write_checkpoint(
    path: Union[str, Path], payload: dict, compress: Optional[bool] = None
) -> None:
    """Write a checkpoint payload (already carrying format headers).

    Args:
        path: Destination file.
        compress: gzip the JSON document.  Defaults to ``True`` when the
            path ends in ``.gz`` (e.g. ``session.json.gz``), else ``False``.
    """
    path = Path(path)
    if compress is None:
        compress = path.suffix == ".gz"
    try:
        document = json.dumps(payload)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint is not JSON-serialisable: {exc}") from exc
    raw = document.encode("utf-8")
    if compress:
        raw = gzip.compress(raw)
    # Atomic replace: a crash mid-write must never leave a torn
    # checkpoint where a good one stood (the service spool rewrites these
    # files after every mutating request).
    staging = path.with_name(path.name + ".tmp")
    staging.write_bytes(raw)
    os.replace(staging, path)


def read_checkpoint(path: Union[str, Path]) -> dict:
    """Read and validate a checkpoint written by :func:`write_checkpoint`.

    Compression is detected from the file contents (gzip magic bytes), so
    ``.json`` and ``.json.gz`` checkpoints load through the same call.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    if raw.startswith(_GZIP_MAGIC):
        try:
            raw = gzip.decompress(raw)
        except OSError as exc:
            raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a repro session checkpoint")
    version = payload.get("version")
    if version not in SUPPORTED_CHECKPOINT_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}; "
            f"supported: {SUPPORTED_CHECKPOINT_VERSIONS}"
        )
    return payload


def database_fingerprint(database) -> dict:
    """Structural fingerprint stored in place of a regenerable corpus.

    Cheap to compute and verify, yet strong enough to catch a drifted
    :class:`~repro.api.specs.DatasetSpec` (changed seed/scale/profile or an
    edited corpus file): entity counts plus a content digest over the
    claim identifiers and their ground truths (generated claim ids are
    positional, so counts alone cannot distinguish two seeds at the same
    scale — the truth pattern can).
    """
    digest = hashlib.sha256()
    for claim in database.claims:
        digest.update(claim.claim_id.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(str(claim.truth).encode("utf-8"))
        digest.update(b"\x1e")
    return {
        "num_claims": database.num_claims,
        "num_documents": len(database.documents),
        "num_sources": len(database.sources),
        "claims_digest": digest.hexdigest()[:16],
    }


def verify_fingerprint(database, fingerprint: dict, path) -> None:
    """Raise :class:`CheckpointError` when a regenerated corpus mismatches."""
    actual = database_fingerprint(database)
    if actual != fingerprint:
        raise CheckpointError(
            f"corpus regenerated from the spec does not match the corpus "
            f"checkpointed at {path}: expected {fingerprint}, got {actual} "
            f"(was the dataset file or generator changed?)"
        )


def stream_fingerprint(checker) -> dict:
    """Structural fingerprint of the entities a checker has ingested.

    Version-3 checkpoints of streaming sessions driven by a replayable
    :class:`~repro.api.specs.StreamSourceSpec` store this fingerprint and
    the replay position instead of embedding every streamed entity.
    Loading replays the stream from the spec and verifies the fingerprint,
    mirroring the batch-mode :func:`database_fingerprint` compaction.
    """
    digest = hashlib.sha256()
    for source in checker._sources:
        digest.update(source.source_id.encode("utf-8"))
        digest.update(b"\x1e")
    digest.update(b"\x1d")
    for document in checker._documents:
        digest.update(document.document_id.encode("utf-8"))
        digest.update(b"\x1e")
    digest.update(b"\x1d")
    for claim in checker._claims:
        digest.update(claim.claim_id.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(str(claim.truth).encode("utf-8"))
        digest.update(b"\x1e")
    return {
        "num_claims": len(checker._claims),
        "num_documents": len(checker._documents),
        "num_sources": len(checker._sources),
        "entities_digest": digest.hexdigest()[:16],
    }


def verify_stream_fingerprint(checker, fingerprint: dict, path) -> None:
    """Raise :class:`CheckpointError` when a replayed stream mismatches."""
    actual = stream_fingerprint(checker)
    if actual != fingerprint:
        raise CheckpointError(
            f"stream replayed from the spec does not match the stream "
            f"checkpointed at {path}: expected {fingerprint}, got {actual} "
            f"(was the stream source or its dataset changed?)"
        )

