"""Atomic, checksummed artifact IO (internal).

Shared by :mod:`repro.core.persistence` and :mod:`repro.graph.io` so every
offline artifact gets the same durability contract:

* **Atomic publication** - bytes are written to a same-directory temp
  file, fsynced, and ``os.replace``d into place. A reader never observes
  a half-written artifact: the destination holds either the previous
  complete version or the new one.
* **Content checksum** - payloads embed a SHA-256 digest of their logical
  content; loaders recompute and compare, so a flipped bit surfaces as
  :class:`~repro.exceptions.ArtifactCorruptedError` (with expected/actual
  digests) instead of a crash deep inside numpy or a silently wrong
  query answer.
* **Format version** - payloads carry a format-version field; loaders
  reject versions newer than they understand. Legacy artifacts written
  before this layer existed (no checksum/version fields) still load.

NPZ payloads stay plain ``.npz`` files readable by ``np.load``, carrying
two integrity layers:

* a **content digest** in two extra arrays (``__checksum__``,
  ``__format_version__``), covering each array's name, dtype, shape, and
  raw bytes in sorted-key order - independent of zip framing, so it
  survives recompression;
* a **file seal**: a SHA-256 of the complete byte stream stored as the
  zip archive comment (``sha256:<hex>``). Zip framing contains bytes no
  reader ever checks (local-header timestamps, ignored flag fields); the
  seal closes that hole so *any* single flipped byte in the file is
  rejected, not just flips that land in compressed data.

``np.savez_compressed`` writes epoch zip timestamps, which keeps
identical payloads byte-identical on disk - the property the
resume-after-crash tests assert.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from . import _faults
from .exceptions import ArtifactCorruptedError, ArtifactError

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "atomic_write_bytes",
    "read_artifact_bytes",
    "array_digest",
    "json_digest",
    "bytes_digest",
    "save_npz_payload",
    "load_npz_payload",
    "save_json_payload",
    "load_json_payload",
    "require_keys",
    "ShardWriter",
    "load_shard_manifest",
    "verify_shard_file",
]

PathLike = Union[str, Path]

FORMAT_VERSION = 1

#: File name of the manifest inside a sharded artifact directory.
MANIFEST_NAME = "manifest.json"

#: NPZ member names reserved for integrity metadata.
CHECKSUM_KEY = "__checksum__"
VERSION_KEY = "__format_version__"


# ---------------------------------------------------------------------------
# Byte-level primitives
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write *data* to *path* atomically (same-dir temp + ``os.replace``)."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp"
    )
    tmp_path = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        _faults.inject("artifact.pre_replace", path=path, tmp_path=tmp_path)
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise


def read_artifact_bytes(path: PathLike, what: str = "artifact") -> bytes:
    """Read *path* fully, raising :class:`ArtifactError` when missing."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ArtifactError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ArtifactError(f"{what} unreadable: {path}: {exc}") from exc
    return _faults.transform("artifact.load_bytes", data, path=path)


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def array_digest(arrays: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over name, dtype, shape, and raw bytes in sorted-key order."""
    sha = hashlib.sha256()
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        sha.update(key.encode("utf-8"))
        sha.update(array.dtype.str.encode("ascii"))
        sha.update(repr(array.shape).encode("ascii"))
        sha.update(array.tobytes())
    return sha.hexdigest()


def json_digest(payload: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON encoding."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def bytes_digest(data: bytes) -> str:
    """SHA-256 hex digest of a raw byte string."""
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# NPZ payloads
# ---------------------------------------------------------------------------

_SEAL_PREFIX = b"sha256:"
_SEAL_LEN = len(_SEAL_PREFIX) + 64  # "sha256:" + hex digest


def _seal_zip_bytes(raw: bytes) -> bytes:
    """Append a whole-file SHA-256 as the zip archive comment.

    The digest covers every byte that precedes the comment, *including*
    the end-of-central-directory comment-length field (already patched to
    the final value), so no byte of the published file is outside the
    digest's reach. The result is still a valid zip / ``np.load``-able
    NPZ - readers that do not know about the seal see a normal comment.
    """
    if raw[-2:] != b"\x00\x00":  # pragma: no cover - savez never comments
        return raw
    sealed_head = raw[:-2] + struct.pack("<H", _SEAL_LEN)
    digest = hashlib.sha256(sealed_head).hexdigest().encode("ascii")
    return sealed_head + _SEAL_PREFIX + digest


def _verify_zip_seal(raw: bytes, path: Path) -> None:
    """Verify a sealed NPZ byte stream; unsealed (legacy) files pass."""
    tail = raw[-_SEAL_LEN:]
    prefix_at = tail.rfind(_SEAL_PREFIX)
    if prefix_at < 0:
        return  # legacy artifact, written before sealing existed
    if prefix_at != 0:
        # The prefix is inside the tail but not where a complete seal
        # would put it: the file lost bytes off its end.
        raise ArtifactCorruptedError(path, reason="truncated integrity seal")
    expected = raw[-64:].decode("ascii", "replace")
    actual = hashlib.sha256(raw[:-_SEAL_LEN]).hexdigest()
    if actual != expected:
        raise ArtifactCorruptedError(path, expected=expected, actual=actual)


def save_npz_payload(path: PathLike, arrays: Dict[str, np.ndarray]) -> None:
    """Atomically write *arrays* as a checksummed, sealed compressed NPZ."""
    digest = array_digest(arrays)
    payload = dict(arrays)
    payload[VERSION_KEY] = np.asarray([FORMAT_VERSION], dtype=np.int64)
    payload[CHECKSUM_KEY] = np.frombuffer(
        digest.encode("ascii"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **payload)
    atomic_write_bytes(path, _seal_zip_bytes(buffer.getvalue()))


def load_npz_payload(path: PathLike, what: str = "artifact") -> Dict[str, np.ndarray]:
    """Read a (possibly legacy) NPZ artifact, verifying seal + checksum."""
    path = Path(path)
    raw = read_artifact_bytes(path, what)
    _verify_zip_seal(raw, path)
    try:
        with np.load(io.BytesIO(raw)) as data:
            payload = {key: data[key] for key in data.files}
    except ArtifactError:
        raise
    except Exception as exc:
        # zipfile.BadZipFile, zlib.error, ValueError, EOFError, OSError -
        # anything a truncated or bit-flipped archive can throw.
        raise ArtifactCorruptedError(
            path, reason=f"unreadable NPZ payload ({type(exc).__name__}: {exc})"
        ) from exc
    _verify_version(payload.pop(VERSION_KEY, None), path, lambda v: int(v[0]))
    checksum = payload.pop(CHECKSUM_KEY, None)
    if checksum is not None:
        expected = checksum.tobytes().decode("ascii", "replace")
        actual = array_digest(payload)
        if actual != expected:
            raise ArtifactCorruptedError(path, expected=expected, actual=actual)
    return payload


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------


def save_json_payload(path: PathLike, payload: Dict[str, Any]) -> None:
    """Atomically write *payload* as checksummed, versioned JSON."""
    body = dict(payload)
    body["format_version"] = FORMAT_VERSION
    body["checksum"] = json_digest(payload)
    atomic_write_bytes(
        path, json.dumps(body, sort_keys=True).encode("utf-8")
    )


def load_json_payload(path: PathLike, what: str = "artifact") -> Dict[str, Any]:
    """Read a (possibly legacy) JSON artifact, verifying version + checksum."""
    path = Path(path)
    raw = read_artifact_bytes(path, what)
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ArtifactCorruptedError(
            path, reason=f"unreadable JSON payload ({exc})"
        ) from exc
    if not isinstance(payload, dict):
        raise ArtifactCorruptedError(
            path, reason=f"expected a JSON object, got {type(payload).__name__}"
        )
    _verify_version(payload.pop("format_version", None), path, int)
    checksum = payload.pop("checksum", None)
    if checksum is not None:
        actual = json_digest(payload)
        if actual != checksum:
            raise ArtifactCorruptedError(path, expected=checksum, actual=actual)
    return payload


# ---------------------------------------------------------------------------
# Sharded artifact directories
# ---------------------------------------------------------------------------
#
# A *sharded artifact* is a directory of independently written binary
# shard files plus one checksummed JSON manifest. Every shard is
# published atomically and fingerprinted (SHA-256 over its exact bytes),
# and the manifest - itself an ordinary checksummed JSON payload - records
# the shard inventory, the producer's parameters (``meta``), and whether
# the artifact is complete. This generalizes the PR 2 checkpoint
# machinery: a crashed producer leaves a loadable partial manifest, and a
# resumed run verifies every already-published shard instead of
# rebuilding it.


class ShardWriter:
    """Incremental writer for a sharded artifact directory.

    Parameters
    ----------
    directory:
        Destination directory (created on first write).
    kind:
        Artifact-kind tag stored in the manifest; loaders reject
        manifests of the wrong kind.
    meta:
        Producer parameters (JSON-serializable). A resumed run must pass
        the identical ``meta`` or :meth:`resume` raises - shards built
        under different parameters must never be mixed.

    The manifest is rewritten (atomically) after every
    :meth:`write_shard`, so a streaming build's directory is always in a
    loadable state: either ``complete`` with the full inventory, or
    incomplete with exactly the shards written so far. Shards listed
    without a write of their own (:meth:`adopt_shard`) reach the manifest
    with the next manifest write.
    """

    def __init__(self, directory: PathLike, kind: str, meta: Mapping[str, Any]):
        self._dir = Path(directory)
        self._kind = str(kind)
        self._meta = dict(meta)
        self._shards: list = []
        self._complete = False

    @property
    def directory(self) -> Path:
        """The artifact directory."""
        return self._dir

    @property
    def shards(self) -> list:
        """Records of the shards written (or resumed) so far."""
        return list(self._shards)

    def resume(self, what: str = "sharded artifact") -> list:
        """Verify a previous run's shards and return their records.

        Returns the verified shard records (empty when no manifest
        exists). The existing manifest's ``kind`` and ``meta`` must match
        this writer's; each listed shard file is re-read and its SHA-256
        compared against the manifest, so a truncated or corrupted shard
        surfaces as :class:`ArtifactCorruptedError` *before* the resumed
        build trusts it. The records are not listed in this writer's
        manifest yet: the caller relists each one it keeps with
        :meth:`adopt_shard` (``verify=False``), in build order, and
        rewrites the rest - so a resumed manifest comes out identical to
        an uninterrupted one.
        """
        from .exceptions import ConfigurationError

        if not (self._dir / MANIFEST_NAME).exists():
            return []
        manifest = load_shard_manifest(self._dir, kind=self._kind, what=what)
        if manifest["meta"] != self._meta:
            raise ConfigurationError(
                f"{self._dir}: existing {what} was built with "
                f"{manifest['meta']}, but this build uses {self._meta}"
            )
        for record in manifest["shards"]:
            verify_shard_file(self._dir, record, what)
        return list(manifest["shards"])

    def begin(self) -> None:
        """Publish an incomplete manifest listing no shard yet.

        For a producer that replaces segment files of an existing
        artifact in place: from this write on, loaders refuse the
        directory until :meth:`finalize`, so a crash can never leave the
        old complete manifest over a replaced segment.
        """
        self._flush_manifest(complete=False)

    def write_file(self, name: str, data: bytes, **extra: Any) -> dict:
        """Atomically write one shard file without listing it.

        Returns the shard's manifest record (name, byte count, SHA-256,
        plus any *extra* fields) for a later :meth:`replace`.
        """
        self._dir.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(self._dir / name, data)
        return {
            "name": str(name),
            "nbytes": len(data),
            "sha256": bytes_digest(data),
            **extra,
        }

    def write_shard(self, name: str, data: bytes, **extra: Any) -> dict:
        """Atomically publish one shard and update the manifest.

        Returns the shard's manifest record (see :meth:`write_file`).
        """
        record = self.write_file(name, data, **extra)
        self._shards.append(record)
        self._flush_manifest(complete=False)
        return record

    def replace(self, records: Sequence[Mapping[str, Any]]) -> None:
        """Swap the whole shard inventory for *records* (files already
        written); the next :meth:`finalize` publishes it in one write."""
        self._shards = [dict(r) for r in records]

    def adopt_shard(
        self, record: Mapping[str, Any], *, verify: bool = True
    ) -> dict:
        """List an existing on-disk shard in this writer's inventory.

        The seam behind in-place incremental refresh and resumed builds:
        a delta rewrite that changes the manifest ``meta`` (e.g. a new
        edge count) cannot :meth:`resume`, but most shard files are
        untouched by the delta - adopting their records keeps the bytes
        on disk while the dirty shards are rewritten. With *verify*
        (default) the file is re-read and checked against the record's
        byte count and SHA-256 first, so a clean-looking manifest can
        never adopt a corrupted file. No manifest is written here: the
        record is published by the next :meth:`write_shard` or by
        :meth:`finalize`.
        """
        if verify:
            verify_shard_file(self._dir, record, "adopted shard")
        adopted = dict(record)
        self._shards.append(adopted)
        return adopted

    def finalize(self, **extra: Any) -> dict:
        """Publish the completed manifest (with any *extra* fields)."""
        return self._flush_manifest(complete=True, **extra)

    def _flush_manifest(self, complete: bool, **extra: Any) -> dict:
        self._dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "kind": self._kind,
            "meta": dict(self._meta),
            "shards": list(self._shards),
            "complete": bool(complete),
            **extra,
        }
        save_json_payload(self._dir / MANIFEST_NAME, payload)
        self._complete = bool(complete)
        return payload


def load_shard_manifest(
    directory: PathLike,
    *,
    kind: Optional[str] = None,
    what: str = "sharded artifact",
) -> Dict[str, Any]:
    """Read and validate a sharded artifact's manifest.

    A missing directory raises :class:`ArtifactError`; a directory
    without a manifest, or a manifest of the wrong kind or shape, raises
    :class:`ArtifactCorruptedError`. The manifest's own JSON checksum is
    verified by :func:`load_json_payload`.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not directory.exists():
        raise ArtifactError(f"{what} not found: {directory}")
    if not path.exists():
        raise ArtifactCorruptedError(
            directory, reason=f"missing {MANIFEST_NAME}"
        )
    payload = load_json_payload(path, f"{what} manifest")
    require_keys(payload, ("kind", "meta", "shards", "complete"), path)
    if kind is not None and payload["kind"] != kind:
        raise ArtifactCorruptedError(
            path,
            reason=f"manifest kind {payload['kind']!r} != expected {kind!r}",
        )
    if not isinstance(payload["shards"], list):
        raise ArtifactCorruptedError(
            path,
            reason=f"malformed shard list ({type(payload['shards']).__name__})",
        )
    for record in payload["shards"]:
        if not isinstance(record, dict) or not {
            "name", "nbytes", "sha256"
        } <= set(record):
            raise ArtifactCorruptedError(
                path, reason=f"malformed shard record {record!r}"
            )
    return payload


def verify_shard_file(
    directory: PathLike, record: Mapping[str, Any], what: str = "shard"
) -> Path:
    """Verify one shard file against its manifest record.

    Checks existence, exact byte count, and the SHA-256 content digest
    (reading through :func:`read_artifact_bytes`, so the
    ``artifact.load_bytes`` fault hook applies). Returns the shard path.
    """
    path = Path(directory) / record["name"]
    data = read_artifact_bytes(path, what)
    if len(data) != int(record["nbytes"]):
        raise ArtifactCorruptedError(
            path,
            reason=(
                f"truncated shard: {len(data)} bytes on disk, manifest "
                f"records {int(record['nbytes'])}"
            ),
        )
    actual = bytes_digest(data)
    if actual != record["sha256"]:
        raise ArtifactCorruptedError(
            path, expected=str(record["sha256"]), actual=actual
        )
    return path


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _verify_version(version, path: Path, as_int) -> None:
    if version is None:
        return  # legacy artifact written before the integrity layer
    try:
        number = as_int(version)
    except (TypeError, ValueError, IndexError) as exc:
        raise ArtifactCorruptedError(
            path, reason=f"unreadable format version ({version!r})"
        ) from exc
    if number > FORMAT_VERSION:
        raise ArtifactCorruptedError(
            path,
            reason=(
                f"format version {number} is newer than the supported "
                f"version {FORMAT_VERSION}"
            ),
        )


def require_keys(
    payload: Mapping[str, Any], keys: Sequence[str], path: PathLike
) -> None:
    """Raise :class:`ArtifactCorruptedError` naming any missing keys."""
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ArtifactCorruptedError(
            Path(path), reason=f"missing keys {missing}"
        )
