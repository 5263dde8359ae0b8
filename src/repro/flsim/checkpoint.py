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
*semantics* of a run: a SHA-256 over the config dataclass with the
non-semantic fields removed — fusion width, client caching,
journal/checkpoint/metrics sinks — because the engine's determinism
contract guarantees those cannot change results.  Resuming with a
different fusion width or cache size is therefore explicitly supported;
resuming with a different learning rate is explicitly refused.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from typing import Any, Dict


class CheckpointError(RuntimeError):
    """A checkpoint could not be read or fails validation."""


#: The on-disk payload format version (bump on incompatible change).
CHECKPOINT_FORMAT = 1

#: Config fields that cannot affect results (the bit-identity contract):
#: the fusion width, the journal / checkpoint plumbing itself, the
#: status endpoint (a pure observer of journal events), and the
#: client-population materialisation
#: knobs (lazy vs eager and the LRU capacity are pure caching — every
#: client is a deterministic function of the population seed).
#: Everything else is semantic and fingerprinted; note
#: ``population_scheme`` *is* semantic (partition and virtual shards
#: differ), so a resume may change cache size but not scheme, and
#: ``eval_every_merge`` is semantic too (it changes what the run records
#: and journals, so a replay must use the original's value).
NONSEMANTIC_FIELDS = frozenset(
    {
        "journal_path",
        "checkpoint_every",
        "fusion_width",
        "client_materialisation",
        "client_cache_size",
        "status_port",
    }
)


def config_fingerprint(config: Any, experiment: str) -> str:
    """Stable hash of a config dataclass's semantic fields + experiment name."""
    payload = dataclasses.asdict(config)
    for name in NONSEMANTIC_FIELDS:
        payload.pop(name, None)
    payload["split_autoattack"] = False  # field removed in PR 23; recorded ids stay valid
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
