"""Atomic run checkpoints: snapshot, restore, and config fingerprinting.

A checkpoint is one pickle file written **atomically** (tmp file in the
same directory + ``os.replace``), fsynced before the rename, so a crash
at any instant leaves either the previous checkpoint or the new one —
never a torn file; a sha256 trailer turns a damaged one into a
:class:`CheckpointError`, never a wrong resume.  The payload (built by
:meth:`~repro.flsim.base.FederatedExperiment._checkpoint_payload`) holds
everything the generic run loop needs to continue bit-identically:
server/model state, the experiment RNG's bit-generator state, the round
history and async merge log, the simulated clock, and (async mode) the
cross-round pipeline's full in-flight bookkeeping.

The **config fingerprint** ties journals and checkpoints to the
*semantics* of a run: a SHA-256 over the config fields declared in the
``semantic`` group (:func:`repro.flsim.base.config_field`).  The
``engine`` and ``recorder`` groups — fusion width, client caching, the
journal, checkpoint and status sinks — are left out, because the
engine's determinism contract guarantees they cannot change results.
Resuming with a different fusion width or cache size is therefore
explicitly supported; resuming with a different learning rate is
explicitly refused.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from typing import Any, Dict, List


class CheckpointError(RuntimeError):
    """A checkpoint could not be read or fails validation."""


#: The on-disk payload format version (bump on incompatible change).
CHECKPOINT_FORMAT = 1


def nonsemantic_fields(config: Any) -> List[str]:
    """The fields ``config`` declares outside the semantic group: the
    ones a resume or replay may change."""
    return [f.name for f in dataclasses.fields(config) if f.metadata["group"] != "semantic"]


def config_fingerprint(config: Any, experiment: str) -> str:
    """Stable hash of a config dataclass's semantic fields + experiment name.

    Two documented exceptions keep recorded ids valid: a constant
    ``split_autoattack: False`` stands in for a field since removed, and
    ``use_prefix_cache`` is declared semantic although the cache cannot
    change a result (moving it would change every recorded FedProphet id).
    """
    payload = dataclasses.asdict(config)
    for name in nonsemantic_fields(config):
        del payload[name]
    payload["split_autoattack"] = False
    payload["experiment"] = experiment
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: Marks the sha256 trailer after the pickle.  Unpickling stops at the
#: pickle's STOP opcode, so a reader that predates the trailer ignores it.
TRAILER_MAGIC = b"\x00REPROSHA256"
_TRAILER_LEN = len(TRAILER_MAGIC) + hashlib.sha256().digest_size


def write_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Pickle ``payload`` to ``path`` atomically (tmp + fsync + rename),
    followed by a sha256 trailer over the pickle bytes."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            f.write(data)
            f.write(TRAILER_MAGIC + hashlib.sha256(data).digest())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Load and validate a checkpoint payload.

    A file with a trailer must match its sha256 before anything is
    unpickled; a file without one (written before the trailer existed)
    loads as it is.  Any failure to unpickle is a :class:`CheckpointError`.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with open(path, "rb") as f:
            data = memoryview(f.read())
    except OSError as error:
        raise CheckpointError(f"unreadable checkpoint {path}: {error}") from error
    body, trailer = data[:-_TRAILER_LEN], bytes(data[-_TRAILER_LEN:])
    if trailer.startswith(TRAILER_MAGIC):
        if hashlib.sha256(body).digest() != trailer[len(TRAILER_MAGIC):]:
            raise CheckpointError(f"corrupt checkpoint {path}: sha256 mismatch")
        data = body
    try:
        payload = pickle.loads(data)
    except Exception as error:  # a damaged pickle can raise almost anything
        raise CheckpointError(f"unreadable checkpoint {path}: {error}") from error
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format "
            f"{payload.get('format') if isinstance(payload, dict) else '?'!r} "
            f"(expected {CHECKPOINT_FORMAT})"
        )
    return payload
