"""Content-addressable engine snapshots with a hash-chained manifest.

A soak that cannot be killed and resumed is a soak nobody runs twice.
This module is the durability layer: the flat engine's
:meth:`~repro.core.flat_tree.FlatForgivingTree.snapshot_state` tree
(plain dicts of ints, strings, and ``array('q')`` columns) encodes to
one deterministic byte blob, stored **content-addressed** (path =
SHA-256 of the bytes) so identical states — a soak that idles, a
re-checkpoint after resume — deduplicate to a single object, and every
checkpoint appends one line to a **hash-chained manifest**
(``manifest.jsonl``): each entry carries the hash of its predecessor,
so truncation is detectable, reordering is impossible, and
:meth:`SnapshotStore.verify` re-derives the whole chain from the bytes
on disk.

Blob format (``FTSNAP1``)::

    b"FTSNAP1\\n" | u64 header length | JSON header | array bytes...

The header is the state tree with every array leaf replaced by
``{"__a__": <length>}`` in depth-first order; the arrays' raw bytes
follow in that same order.  Dict insertion order is preserved through
JSON — it is load-bearing (the flat core's donor scans walk dicts in
age order), which is why the codec never sorts the tree.

A SIGKILL can land mid-write: objects are written part by part (a blob
is never joined in memory) to a per-process temp name and atomically
renamed to their hash, the manifest line is flushed+fsynced before the
append returns, and the reader tolerates a torn final line (the
checkpoint that was being written simply never happened).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.errors import ReproError

#: What a blob is written from: bytes, or an array's raw buffer.
Buffer = Union[bytes, memoryview]

MAGIC = b"FTSNAP1\n"

#: Genesis link of the manifest chain.
GENESIS = "0" * 64


class CheckpointError(ReproError):
    """A snapshot blob or manifest failed validation."""


# -- the blob codec --------------------------------------------------------
def _flatten(node: object, arrays: List[array]) -> object:
    if isinstance(node, array):
        if node.typecode != "q":
            raise CheckpointError(f"unsupported array typecode {node.typecode!r}")
        arrays.append(node)
        return {"__a__": len(node)}
    if isinstance(node, dict):
        return {str(k): _flatten(v, arrays) for k, v in node.items()}
    if isinstance(node, (int, str)) or node is None:
        return node
    raise CheckpointError(f"unsupported leaf {type(node).__name__} in state")


def _count_elems(node: object) -> int:
    """Total array elements a flattened state tree promises."""
    if isinstance(node, dict):
        if set(node) == {"__a__"}:
            n = node["__a__"]
            if not isinstance(n, int) or n < 0:
                raise CheckpointError(f"corrupt array marker {n!r}")
            return n
        return sum(_count_elems(v) for v in node.values())
    return 0


def _inflate(node: object, blob: memoryview, offset: List[int]) -> object:
    if isinstance(node, dict):
        if set(node) == {"__a__"}:
            n = node["__a__"]
            out = array("q")
            start = offset[0]
            out.frombytes(blob[start : start + 8 * n])
            offset[0] = start + 8 * n
            return out
        return {k: _inflate(v, blob, offset) for k, v in node.items()}
    return node


def state_parts(state: Dict[str, object]) -> List[Buffer]:
    """A snapshot-state tree's blob, piece by piece: the magic, the
    header length, the header, then every array's own buffer (no copy).
    :meth:`SnapshotStore.append` stores these without joining them."""
    arrays: List[array] = []
    header = {
        "byteorder": sys.byteorder,
        "itemsize": 8,
        "state": _flatten(state, arrays),
    }
    head = json.dumps(header, separators=(",", ":")).encode()
    parts: List[Buffer] = [MAGIC, len(head).to_bytes(8, "big"), head]
    parts.extend(memoryview(a).cast("B") for a in arrays)
    return parts


def encode_state(state: Dict[str, object]) -> bytes:
    """Serialize a snapshot-state tree to one deterministic blob."""
    return b"".join(state_parts(state))


def decode_state(blob: bytes) -> Dict[str, object]:
    """Invert :func:`encode_state`."""
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a FTSNAP1 blob")
    head_len = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "big")
    body_at = len(MAGIC) + 8 + head_len
    try:
        header = json.loads(blob[len(MAGIC) + 8 : body_at])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt snapshot header: {exc}") from None
    if header.get("byteorder") != sys.byteorder:
        raise CheckpointError(
            f"snapshot written on a {header.get('byteorder')}-endian host"
        )
    expected = body_at + 8 * _count_elems(header.get("state"))
    if expected != len(blob):
        raise CheckpointError(
            f"snapshot length mismatch: have {len(blob)} bytes, "
            f"header promises {expected}"
        )
    offset = [body_at]
    return _inflate(header["state"], memoryview(blob), offset)


def _entry_hash(prev: str, core: Dict[str, object]) -> str:
    return hashlib.sha256(
        (prev + json.dumps(core, sort_keys=True, separators=(",", ":"))).encode()
    ).hexdigest()


class SnapshotStore:
    """Content-addressed objects + the hash-chained checkpoint manifest.

    Layout under ``root``::

        objects/<sha256>   one blob per unique content
        manifest.jsonl     one JSON entry per checkpoint, hash-chained

    Entries carry ``index`` (checkpoint ordinal), ``event_index`` (how
    many campaign events the snapshot covers), the ``engine`` and
    ``tracker`` object hashes, free-form ``meta`` (the service's carry:
    baseline diameter, peaks, alert count), ``prev`` and ``hash``.
    """

    def __init__(self, root: str):
        self.root = root
        self.objects_dir = os.path.join(root, "objects")
        self.manifest_path = os.path.join(root, "manifest.jsonl")
        os.makedirs(self.objects_dir, exist_ok=True)

    # -- objects -----------------------------------------------------------
    def put_parts(self, parts: Sequence[Buffer]) -> str:
        """Store the blob ``parts`` concatenate to; returns its address.

        The parts are hashed, then written one after another, so the
        whole blob is never held.  Deduplicates by content: a blob
        already stored costs no write."""
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
        sha = digest.hexdigest()
        path = os.path.join(self.objects_dir, sha)
        if not os.path.exists(path):
            # Per-pid tmp name: two processes storing the same content
            # (e.g. an orphaned soak racing its own resume) must not
            # rename each other's half-written staging file out from
            # under the os.replace.
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "wb") as fh:
                for part in parts:
                    fh.write(part)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        return sha

    def put_bytes(self, data: bytes) -> str:
        """Store a blob; returns its address.  Deduplicates by content."""
        return self.put_parts((data,))

    def get_bytes(self, sha: str) -> bytes:
        path = os.path.join(self.objects_dir, sha)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise CheckpointError(f"missing object {sha}") from None
        if hashlib.sha256(data).hexdigest() != sha:
            raise CheckpointError(f"object {sha} fails its content hash")
        return data

    def put_json(self, value: object) -> str:
        return self.put_bytes(
            json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
        )

    def get_json(self, sha: str) -> object:
        return json.loads(self.get_bytes(sha))

    # -- the manifest chain ------------------------------------------------
    def entries(self) -> List[dict]:
        """Every complete manifest entry, in order (torn tail tolerated)."""
        if not os.path.exists(self.manifest_path):
            return []
        out: List[dict] = []
        with open(self.manifest_path, "r") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError:
                    break  # torn final line: the append never completed
        return out

    def latest(self) -> Optional[dict]:
        entries = self.entries()
        return entries[-1] if entries else None

    def append(
        self,
        event_index: int,
        engine_state: Dict[str, object],
        tracker_state: Dict[str, object],
        meta: Optional[dict] = None,
    ) -> dict:
        """Write both objects, then durably append the chained entry."""
        engine_sha = self.put_parts(state_parts(engine_state))
        tracker_sha = self.put_json(tracker_state)
        prior = self.latest()
        prev = prior["hash"] if prior else GENESIS
        core = {
            "index": (prior["index"] + 1) if prior else 0,
            "event_index": int(event_index),
            "engine": engine_sha,
            "tracker": tracker_sha,
            "meta": meta or {},
        }
        entry = dict(core)
        entry["prev"] = prev
        entry["hash"] = _entry_hash(prev, core)
        with open(self.manifest_path, "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return entry

    def verify(self) -> int:
        """Re-derive the whole chain and every object hash; returns the
        number of valid entries.  Raises :class:`CheckpointError` on the
        first broken link, missing object, or content mismatch."""
        prev = GENESIS
        count = 0
        for i, entry in enumerate(self.entries()):
            core = {
                k: entry[k]
                for k in ("index", "event_index", "engine", "tracker", "meta")
            }
            if entry.get("prev") != prev:
                raise CheckpointError(f"entry {i}: chain broken (bad prev)")
            if entry.get("hash") != _entry_hash(prev, core):
                raise CheckpointError(f"entry {i}: hash mismatch")
            self.get_bytes(entry["engine"])
            self.get_bytes(entry["tracker"])
            prev = entry["hash"]
            count += 1
        return count

    def load_engine_state(self, entry: dict) -> Dict[str, object]:
        return decode_state(self.get_bytes(entry["engine"]))

    def load_tracker_state(self, entry: dict) -> Dict[str, object]:
        state = self.get_json(entry["tracker"])
        if not isinstance(state, dict):
            raise CheckpointError("tracker object is not a state dict")
        return state
