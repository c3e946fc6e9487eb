"""Checkpoint files: persisting a session so it can resume bit-for-bit.

A checkpoint is one JSON document: format headers and the session's
:class:`~repro.api.specs.SessionSpec`, the *structure origin* — where the
corpus or the streamed entities come from on load — and the mutable run
``state`` (labels, probabilities, weights, Gibbs-chain spins, every RNG
position, the trace, and the counters).  The origin is either embedded or
generated: a corpus from a :class:`~repro.api.specs.DatasetSpec` is stored
as a fingerprint (v2) and regenerated, a stream read only from its
declared source as a fingerprint plus a position (v3) and replayed.
Restoring rebuilds the object graph from the spec and overlays the state,
so a resumed session reproduces the uninterrupted run exactly (asserted
by ``tests/test_api_checkpoint.py``); Python's ``json`` round-trips floats
and the PCG64 state's big integers losslessly.  Paths ending in ``.gz``
are gzip-compressed, which reading detects from the contents.
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

    Raises:
        CheckpointError: When the ``mode`` header disagrees with the spec.
    """
    spec = payload["spec"]
    if spec.get("mode", "batch") != payload.get("mode"):
        raise CheckpointError("checkpoint mode does not match its spec")
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
    # Atomic, durable replace: a crash or power loss mid-write must never
    # leave a torn or empty checkpoint where a good one stood (the service
    # spool rewrites these files after every mutating request).  The
    # staging file reaches the disk before the rename, and the rename
    # before this call returns.
    staging = path.with_name(path.name + ".tmp")
    with open(staging, "wb") as handle:
        handle.write(raw)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(staging, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


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
    _update(digest, _claim_keys(database.claims))
    return {
        "num_claims": database.num_claims,
        "num_documents": len(database.documents),
        "num_sources": len(database.sources),
        "claims_digest": digest.hexdigest()[:16],
    }


def stream_fingerprint(checker) -> dict:
    """Structural fingerprint of the entities a checker has ingested.

    Version-3 checkpoints of streaming sessions driven by a replayable
    :class:`~repro.api.specs.StreamSourceSpec` store this fingerprint and
    the replay position instead of embedding every streamed entity.
    Loading replays the stream from the spec and verifies the fingerprint,
    mirroring the batch-mode :func:`database_fingerprint` compaction.
    """
    sources, documents, claims = checker.entities
    digest = hashlib.sha256()
    _update(digest, (source.source_id for source in sources))
    digest.update(b"\x1d")
    _update(digest, (document.document_id for document in documents))
    digest.update(b"\x1d")
    _update(digest, _claim_keys(claims))
    return {
        "num_claims": len(claims),
        "num_documents": len(documents),
        "num_sources": len(sources),
        "entities_digest": digest.hexdigest()[:16],
    }


def _claim_keys(claims):
    """Each claim's identifier and ground truth, as one digest entry."""
    return (f"{claim.claim_id}\x1f{claim.truth}" for claim in claims)


def _update(digest, entries) -> None:
    for entry in entries:
        digest.update(entry.encode("utf-8"))
        digest.update(b"\x1e")


def verify_fingerprint(actual: dict, expected: dict, path, what: str) -> None:
    """Raise :class:`CheckpointError` when a regenerated ``what`` (the
    corpus or the stream) does not match the one checkpointed."""
    if actual != expected:
        raise CheckpointError(
            f"{what} regenerated from the spec does not match the {what} "
            f"checkpointed at {path}: expected {expected}, got {actual} "
            f"(was the dataset, its generator or the stream source changed?)"
        )
