"""Memory-mapped, sharded propagation-index storage (scale extension).

The paper's offline propagation index (``Γ(v)`` per node, §5.1) is the
system's largest artifact, and this module holds its one on-disk format.
A format that round-trips the *whole* index through RAM would cap graph
size at memory and make cold start O(index size), so the entries are
stored as a **sharded flat binary artifact**:

* entries are grouped by contiguous node range into independent
  segment files;
* each segment is a fixed-layout flat binary blob - a 64-byte header
  followed by CSR-style offset tables and the concatenated sorted
  ``sources``/``probabilities`` arrays with one Γ* flag per member (the
  compact :class:`~repro.core.propagation.PropagationEntry` layout,
  which is already mmap-friendly);
* a checksummed JSON manifest (:mod:`repro._artifacts` shard machinery)
  records every segment's byte count and SHA-256 plus the build
  parameters, so corruption surfaces as
  :class:`~repro.exceptions.ArtifactCorruptedError` and an artifact can
  never silently be replayed against the wrong graph or ``θ``.

Reading is **zero-copy**: paging a segment in is one ``open``, one
``fstat`` and one read-only ``mmap`` of the file, and every entry is a
plain ``np.frombuffer`` view into the mapping - opening a million-node
index costs one manifest read, and resident memory is bounded by paging
the mapped segments through a byte-budgeted
:class:`~repro.core.serving.ByteLRUCache`. The mapping is read-only, so
an accidental write raises instead of corrupting the artifact on disk.

Shard boundaries are chosen by bytes, not node count. The build works in
``shard_nodes`` ranges (its checkpoint), then re-cuts the index into
``ceil(n / shard_nodes)`` contiguous ranges of near-equal segment bytes
(:func:`balanced_bounds`), so the preferential-attachment hubs at low
node ids do not pile into one oversized first segment. The manifest's
records are the boundary array: a node's shard is one ``bisect`` over
their ``lo``.

Shard layout (version 2), all sections 8-byte aligned::

    bytes [0, 8)    magic  b"PITSHRD1"
    bytes [8, 64)   little-endian int64 x 7:
                    version, lo, hi, n_members, 0, 0, 0
    offsets         int64[(hi - lo) + 1]   Γ slice bounds per node
    branches        int64[hi - lo]         branch counts per node
    sources         int64[n_members]       concatenated sorted Γ members
    probabilities   float64[n_members]     parallel Γ probabilities
    flags           uint8[n_members]       parallel Γ* flags (1 = marked),
                                           zero-padded to a multiple of 8

Node ``v`` (``lo <= v < hi``) owns ``sources[offsets[v-lo]:
offsets[v-lo+1]]`` and the parallel probability and flag slices; an
empty slice is a legitimate entry (a node no qualifying path reaches).
A node costs ``16 + 17 * |Γ(v)|`` segment bytes. Version 1 stored Γ* a
second time as ``int64`` ids; its segments are refused, not read.
"""

from __future__ import annotations

import mmap
import os
import struct
from bisect import bisect_right
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import _faults
from .._artifacts import (
    MANIFEST_NAME,
    ShardWriter,
    load_shard_manifest,
    verify_shard_file,
)
from .._utils import require_in_range
from ..exceptions import (
    ArtifactCorruptedError,
    ArtifactError,
    ConfigurationError,
)
from ..graph import SocialGraph
from ..obs.registry import MetricsRegistry, get_registry
from .propagation import PropagationEntry, PropagationIndex
from .serving import ByteLRUCache

__all__ = [
    "SHARD_KIND",
    "SHARD_MAGIC",
    "SHARD_FORMAT_VERSION",
    "DEFAULT_SHARD_NODES",
    "DEFAULT_SHARD_CACHE_BYTES",
    "shard_filename",
    "balanced_bounds",
    "pack_shard",
    "MmapShardBackend",
    "PropagationShardWriter",
    "save_sharded_index",
    "load_sharded_index",
]

PathLike = Union[str, Path]

#: Manifest ``kind`` tag of a sharded propagation index.
SHARD_KIND = "propagation-index-shards"

#: Leading magic of every shard segment file.
SHARD_MAGIC = b"PITSHRD1"

#: On-disk layout version of the shard segments.
SHARD_FORMAT_VERSION = 2

#: Nodes per build range (and mean nodes per shard) when the caller does
#: not choose.
DEFAULT_SHARD_NODES = 4096

#: Shard-paging byte budget when the caller does not choose (256 MiB).
DEFAULT_SHARD_CACHE_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct("<7q")
_HEADER_BYTES = 64

#: Segment bytes of one node (its offset and branch count) and of one Γ
#: member (source, probability, flag).
_NODE_BYTES = 16
_MEMBER_BYTES = 17


def shard_filename(lo: int, hi: int) -> str:
    """Canonical segment file name for node range ``[lo, hi)``."""
    return f"shard-{lo:010d}-{hi:010d}.bin"


def balanced_bounds(member_counts: Sequence[int], n_shards: int) -> List[int]:
    """Cut points of *n_shards* contiguous node ranges of near-equal bytes.

    ``member_counts[v]`` is ``|Γ(v)|``; a node costs ``16 + 17 *
    |Γ(v)|`` segment bytes. Range ``i`` ends at the first node where the
    running total reaches ``i / n_shards`` of the whole, so no segment
    exceeds the mean by more than its largest single entry, and every
    range keeps at least one node. Returns ``[0, ..., n]`` (``[0]`` for
    no nodes).
    """
    counts = np.asarray(member_counts, dtype=np.int64)
    n = int(counts.size)
    k = min(int(n_shards), n)
    if k <= 0:
        return [0]
    cumulative = np.concatenate(
        ([0], np.cumsum(_NODE_BYTES + _MEMBER_BYTES * counts))
    )
    # Exact integer targets: the first j with cumulative[j] >= i * total / k.
    natural = np.searchsorted(
        cumulative * k, np.arange(1, k) * int(cumulative[-1]), side="left"
    )
    cuts = [0]
    for i, cut in enumerate(natural.tolist(), start=1):
        cuts.append(min(max(cut, cuts[-1] + 1), n - (k - i)))
    cuts.append(n)
    return cuts


def _format_refusal(version: int) -> str:
    if version > SHARD_FORMAT_VERSION:
        return (
            f"shard format version {version} is newer than the supported "
            f"version {SHARD_FORMAT_VERSION}"
        )
    return (
        f"shard format version {version} is no longer read (this build "
        f"reads version {SHARD_FORMAT_VERSION}); rebuild the index with "
        f"build-index or PropagationIndex.build_sharded"
    )


# ---------------------------------------------------------------------------
# Packing (build side)
# ---------------------------------------------------------------------------


def _pack(
    lo: int,
    hi: int,
    offsets: np.ndarray,
    branches: np.ndarray,
    sources: np.ndarray,
    probabilities: np.ndarray,
    flags: np.ndarray,
) -> bytes:
    header = SHARD_MAGIC + _HEADER.pack(
        SHARD_FORMAT_VERSION, lo, hi, sources.size, 0, 0, 0
    )
    return b"".join((
        header.ljust(_HEADER_BYTES, b"\0"),
        np.ascontiguousarray(offsets, dtype=np.int64).tobytes(),
        np.ascontiguousarray(branches, dtype=np.int64).tobytes(),
        np.ascontiguousarray(sources, dtype=np.int64).tobytes(),
        np.ascontiguousarray(probabilities, dtype=np.float64).tobytes(),
        np.ascontiguousarray(flags, dtype=np.uint8).tobytes(),
        bytes(-sources.size % 8),
    ))


def _pack_columns(
    lo: int, hi: int, columns: Sequence[Sequence[np.ndarray]]
) -> Tuple[bytes, int]:
    """Shard bytes of ``[lo, hi)`` from consecutive runs of slots, each
    ``(counts, branches, sources, probabilities, flags)``, and its member
    count."""
    counts, branches, sources, probabilities, flags = (
        np.concatenate(column) for column in zip(*columns)
    )
    offsets = np.concatenate(([0], np.cumsum(counts)))
    data = _pack(lo, hi, offsets, branches, sources, probabilities, flags)
    return data, int(sources.size)


def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def pack_shard(
    lo: int, hi: int, entries: Mapping[int, PropagationEntry]
) -> bytes:
    """Serialize the entries of node range ``[lo, hi)`` to shard bytes.

    Nodes absent from *entries* are stored as empty slots (zero-length Γ
    slices). Entries are deterministic given the graph and build
    parameters, so identical entry sets pack to byte-identical shards -
    the property that lets an interrupted-and-resumed sharded build be
    compared digest-for-digest against an uninterrupted one.
    """
    count = hi - lo
    offsets = np.zeros(count + 1, dtype=np.int64)
    branches = np.zeros(count, dtype=np.int64)
    packed: List[PropagationEntry] = []
    for i, node in enumerate(range(lo, hi)):
        entry = entries.get(node)
        if entry is None:
            offsets[i + 1] = offsets[i]
            continue
        offsets[i + 1] = offsets[i] + entry.size
        branches[i] = entry.branches
        packed.append(entry)
    return _pack(
        lo, hi, offsets, branches,
        _concat([e.sources for e in packed], np.int64),
        _concat([e.probabilities for e in packed], np.float64),
        _concat([e.marked_flags for e in packed], np.bool_),
    )


def _expected_nbytes(count: int, n_members: int) -> int:
    return (
        _HEADER_BYTES + 8 * (2 * count + 1) + 16 * n_members
        + n_members + (-n_members % 8)
    )


# ---------------------------------------------------------------------------
# Mapping (serve side)
# ---------------------------------------------------------------------------


class _MappedShard:
    """One memory-mapped shard segment with typed zero-copy views.

    The sections are plain ``np.frombuffer`` views of one read-only
    ``mmap``; each view (and each entry slice of it) keeps the mapping
    alive, so the segment is unmapped once it has left the paging cache
    and the last entry served from it is dropped.

    Entry objects are memoized per shard, so the Γ* arrays each entry
    selects from its flags live exactly as long as the shard is resident
    in the paging cache and are dropped with it on eviction.
    """

    __slots__ = (
        "lo", "hi", "nbytes", "_offsets", "_branches", "_sources",
        "_probabilities", "_flags", "_entries",
    )

    def __init__(self, mapping: mmap.mmap, lo: int, hi: int, n_members: int):
        self.lo = lo
        self.hi = hi
        self.nbytes = len(mapping)
        count = hi - lo
        pos = _HEADER_BYTES

        def take(n_items: int, dtype) -> np.ndarray:
            # An ACCESS_READ mapping exports a read-only buffer, so every
            # view is non-writeable: an accidental store raises
            # ValueError instead of corrupting the artifact.
            nonlocal pos
            view = np.frombuffer(mapping, dtype, n_items, pos)
            pos += view.nbytes
            return view

        self._offsets = take(count + 1, np.int64)
        self._branches = take(count, np.int64)
        self._sources = take(n_members, np.int64)
        self._probabilities = take(n_members, np.float64)
        self._flags = take(n_members, np.bool_)
        self._entries: Dict[int, PropagationEntry] = {}

    def entry(self, node: int) -> PropagationEntry:
        cached = self._entries.get(node)
        if cached is None:
            i = node - self.lo
            lo, hi = int(self._offsets[i]), int(self._offsets[i + 1])
            cached = PropagationEntry.from_arrays(
                node,
                self._sources[lo:hi],
                self._probabilities[lo:hi],
                self._flags[lo:hi],
                int(self._branches[i]),
                mapped=True,
            )
            self._entries[node] = cached
        return cached

    def counts(self, lo: int, hi: int) -> np.ndarray:
        """``|Γ(v)|`` of nodes ``[lo, hi)``, read from the offset table."""
        return np.diff(self._offsets[lo - self.lo : hi - self.lo + 1])

    def sections(self, lo: int, hi: int) -> Tuple[np.ndarray, ...]:
        """Copies of nodes ``[lo, hi)``: member counts, branches, sources,
        probabilities, flags (the mapping is free to close afterwards)."""
        i, j = lo - self.lo, hi - self.lo
        a, b = int(self._offsets[i]), int(self._offsets[j])
        return (
            self.counts(lo, hi),
            self._branches[i:j].copy(),
            self._sources[a:b].copy(),
            self._probabilities[a:b].copy(),
            self._flags[a:b].copy(),
        )


def _open_shard(
    path: str, record: Mapping[str, object], *, verify: bool = False
) -> _MappedShard:
    """Map one shard segment, validating its header against the manifest.

    One descriptor serves the size check and the map; the header is
    sliced from the mapping and passes through the
    ``artifact.load_bytes`` fault hook so the corruption-injection
    harness exercises this path. ``verify`` additionally re-reads the
    whole file and checks its SHA-256 digest.
    """
    what = "propagation shard"
    if verify:
        verify_shard_file(os.path.dirname(path), record, what)
    manifest_nbytes = int(record["nbytes"])
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if size < _HEADER_BYTES:  # mmap cannot map an empty file
                raise ArtifactCorruptedError(
                    path,
                    reason=(
                        f"truncated shard: {size} bytes on disk, manifest "
                        f"records {manifest_nbytes}"
                    ),
                )
            mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
    except FileNotFoundError:
        raise ArtifactError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ArtifactCorruptedError(
            path, reason=f"unreadable shard ({exc})"
        ) from exc
    try:
        header = _faults.transform(
            "artifact.load_bytes", mapping[:_HEADER_BYTES], path=path
        )
        if len(header) < _HEADER_BYTES or header[:8] != SHARD_MAGIC:
            raise ArtifactCorruptedError(
                path, reason="bad shard magic (not a propagation shard?)"
            )
        version, lo, hi, n_members, _, _, _ = _HEADER.unpack(
            header[8 : 8 + _HEADER.size]
        )
        if hi <= lo or n_members < 0:
            raise ArtifactCorruptedError(
                path,
                reason=(
                    f"corrupt shard header (lo={lo}, hi={hi}, "
                    f"n_members={n_members})"
                ),
            )
        if version != SHARD_FORMAT_VERSION:
            raise ArtifactCorruptedError(path, reason=_format_refusal(version))
        if lo != int(record["lo"]) or hi != int(record["hi"]):
            raise ArtifactCorruptedError(
                path,
                reason=(
                    f"shard header covers nodes [{lo}, {hi}) but the "
                    f"manifest records [{int(record['lo'])}, "
                    f"{int(record['hi'])})"
                ),
            )
        expected = _expected_nbytes(hi - lo, n_members)
        if size != expected or size != manifest_nbytes:
            raise ArtifactCorruptedError(
                path,
                reason=(
                    f"truncated shard: {size} bytes on disk, layout "
                    f"requires {expected}, manifest records {manifest_nbytes}"
                ),
            )
    except BaseException:
        mapping.close()  # no view exports the buffer yet
        raise
    return _MappedShard(mapping, lo, hi, n_members)


class MmapShardBackend:
    """Bounded-memory entry store over a sharded on-disk index.

    Segments are mapped on demand and paged through a
    :class:`~repro.core.serving.ByteLRUCache` charged at each segment's
    file size, so the bytes the backend keeps *charged* never exceed
    ``cache_bytes`` regardless of index size. (A single segment larger
    than the whole budget is served unpaged: mapped per access and
    dropped, never cached.)

    Parameters
    ----------
    directory:
        A completed :meth:`PropagationIndex.build_sharded` /
        :func:`save_sharded_index` artifact directory.
    graph:
        The graph the index was built from; the manifest's recorded
        node/edge counts must match.
    cache_bytes:
        Paging budget for resident segments.
    verify:
        Re-read and SHA-256-verify a segment on every page-in, including
        each re-map after eviction (slow; integrity spot-checks and
        post-transfer validation).
    metrics:
        Registry receiving ``index.shard.*`` metrics (``None`` = process
        default).
    """

    def __init__(
        self,
        directory: PathLike,
        graph: SocialGraph,
        *,
        cache_bytes: int = DEFAULT_SHARD_CACHE_BYTES,
        verify: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ):
        require_in_range("cache_bytes", cache_bytes, 1)
        self._dir = Path(directory)
        manifest_path = self._dir / MANIFEST_NAME
        manifest = load_shard_manifest(
            self._dir, kind=SHARD_KIND, what="sharded propagation index"
        )
        if not manifest["complete"]:
            raise ArtifactCorruptedError(
                manifest_path,
                reason=(
                    "incomplete sharded index (the build was interrupted; "
                    "rerun build_sharded on the same directory to finish it)"
                ),
            )
        meta = manifest["meta"]
        # Manifests written before the format moved carry no version.
        version = int(meta.get("shard_format", 1))
        if version != SHARD_FORMAT_VERSION:
            raise ArtifactCorruptedError(
                manifest_path, reason=_format_refusal(version)
            )
        for key in ("n_nodes", "n_edges", "theta", "max_branches",
                    "strict", "shard_nodes"):
            if key not in meta:
                raise ArtifactCorruptedError(
                    manifest_path, reason=f"manifest meta is missing {key!r}"
                )
        if (int(meta["n_nodes"]) != graph.n_nodes
                or int(meta["n_edges"]) != graph.n_edges):
            raise ConfigurationError(
                f"{self._dir}: sharded index was built for a graph with "
                f"{int(meta['n_nodes'])} nodes/{int(meta['n_edges'])} edges, "
                f"but the supplied graph has {graph.n_nodes} nodes/"
                f"{graph.n_edges} edges"
            )
        records = sorted(manifest["shards"], key=lambda r: int(r["lo"]))
        expected_lo = 0
        for record in records:
            lo, hi = int(record["lo"]), int(record["hi"])
            if lo != expected_lo:
                raise ArtifactCorruptedError(
                    manifest_path,
                    reason=(
                        f"shard coverage gap: expected a shard starting at "
                        f"node {expected_lo}, found {lo}"
                    ),
                )
            # shard_of() bisects the records' lo, so no range may be empty.
            if hi <= lo:
                raise ArtifactCorruptedError(
                    manifest_path, reason=f"empty shard range [{lo}, {hi})"
                )
            expected_lo = hi
        if expected_lo != graph.n_nodes:
            raise ArtifactCorruptedError(
                manifest_path,
                reason=(
                    f"shards cover nodes [0, {expected_lo}) but the graph "
                    f"has {graph.n_nodes} nodes"
                ),
            )
        self._graph = graph
        self._records = records
        self._los = [int(r["lo"]) for r in records]
        self._paths = [str(self._dir / str(r["name"])) for r in records]
        self._shard_nodes = int(meta["shard_nodes"])
        self._theta = float(meta["theta"])
        self._max_branches = int(meta["max_branches"])
        self._strict = bool(meta["strict"])
        self._failed_nodes = tuple(
            int(n) for n in manifest.get("failed_nodes", ())
        )
        self._verify = bool(verify)
        self._cache: ByteLRUCache = ByteLRUCache(
            cache_bytes, name="index-shards"
        )
        self._metrics = metrics
        self._mapped_bytes = sum(int(r["nbytes"]) for r in records)

    def _registry(self) -> MetricsRegistry:
        metrics = self._metrics
        return metrics if metrics is not None else get_registry()

    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The artifact directory."""
        return self._dir

    @property
    def theta(self) -> float:
        """The ``θ`` the shards were built with."""
        return self._theta

    @property
    def max_branches(self) -> int:
        """The branch budget the shards were built with."""
        return self._max_branches

    @property
    def strict(self) -> bool:
        """The strictness flag the shards were built with."""
        return self._strict

    @property
    def shard_nodes(self) -> int:
        """The build's range width (the mean nodes per shard)."""
        return self._shard_nodes

    @property
    def ranges(self) -> List[Tuple[int, int]]:
        """``(lo, hi)`` node range of every shard, in node order."""
        return [(int(r["lo"]), int(r["hi"])) for r in self._records]

    @property
    def cache_bytes(self) -> int:
        """The paging budget this backend was opened with."""
        return int(self._cache.stats().max_bytes)

    @property
    def n_shards(self) -> int:
        """Number of shard segments."""
        return len(self._records)

    @property
    def n_entries(self) -> int:
        """Entries the shards cover (every node of the graph)."""
        return self._graph.n_nodes

    @property
    def failed_nodes(self) -> Tuple[int, ...]:
        """Nodes a keep-going build stored as empty slots after retries."""
        return self._failed_nodes

    def set_metrics(self, registry: Optional[MetricsRegistry]) -> None:
        """Route shard metrics to *registry* (None = process default)."""
        self._metrics = registry

    # ------------------------------------------------------------------
    def shard_of(self, node: int) -> int:
        """Index of the shard whose range holds *node*."""
        return bisect_right(self._los, node) - 1

    def get(self, node: int) -> PropagationEntry:
        """The mapped entry of *node* (pages its shard in if needed)."""
        return self._shard(self.shard_of(node)).entry(node)

    def _shard(self, shard_id: int) -> _MappedShard:
        """The mapped segment of shard *shard_id*, paged in if needed."""
        shard = self._cache.get(shard_id)
        if shard is None:
            shard = _open_shard(
                self._paths[shard_id], self._records[shard_id],
                verify=self._verify,
            )
            self._cache.put(shard_id, shard, shard.nbytes)
            self._registry().inc("index.shard.loads")
        return shard

    def resident_bytes(self) -> int:
        """Mapped-segment bytes currently charged to the paging cache."""
        return self._cache.memory_bytes()

    def mapped_bytes(self) -> int:
        """Total on-disk bytes of all segments (virtual, not resident)."""
        return self._mapped_bytes

    def cache_stats(self):
        """:class:`~repro.core.diagnostics.CacheStats` of the paging cache."""
        return self._cache.stats()

    def publish_gauges(self, registry: MetricsRegistry) -> None:
        """Publish the ``index.shard.*`` point-in-time gauges."""
        stats = self._cache.stats()
        registry.set_gauge("index.shard.total", len(self._records))
        registry.set_gauge("index.shard.resident", stats.n_items)
        registry.set_gauge("index.shard.resident_bytes", stats.current_bytes)
        registry.set_gauge("index.shard.mapped_bytes", self._mapped_bytes)
        registry.set_gauge("index.shard.cache_bytes", stats.max_bytes)
        registry.set_gauge("index.shard.hits", stats.hits)
        registry.set_gauge("index.shard.misses", stats.misses)
        registry.set_gauge("index.shard.evictions", stats.evictions)


# ---------------------------------------------------------------------------
# Writer + module-level save/load
# ---------------------------------------------------------------------------


class PropagationShardWriter:
    """Streaming writer for a sharded propagation index.

    A thin propagation-specific wrapper over the generic
    :class:`repro._artifacts.ShardWriter`: it fixes the manifest kind and
    ``meta`` (graph signature, build parameters and segment format),
    names segments canonically, packs entries with :func:`pack_shard`,
    and re-cuts the written segments at byte-balanced boundaries.
    """

    def __init__(
        self, directory: PathLike, index: PropagationIndex, shard_nodes: int
    ):
        require_in_range("shard_nodes", shard_nodes, 1)
        self._index = index
        self._shard_nodes = int(shard_nodes)
        self._los: List[int] = []
        self._reach: List[dict] = []
        self._writer = ShardWriter(directory, SHARD_KIND, {
            "n_nodes": index.graph.n_nodes,
            "n_edges": index.graph.n_edges,
            "theta": index.theta,
            "max_branches": index.max_branches,
            "strict": bool(index.strict),
            "shard_nodes": int(shard_nodes),
            "shard_format": SHARD_FORMAT_VERSION,
        })

    @property
    def directory(self) -> Path:
        """The artifact directory."""
        return self._writer.directory

    def begin(self) -> None:
        """Mark the directory incomplete before replacing any segment
        (see :meth:`repro._artifacts.ShardWriter.begin`)."""
        self._writer.begin()

    def resume(self) -> None:
        """Load the verified records of already-written shards for
        :meth:`covering`.

        A shard holding the empty slot of a node that failed to build is
        left out, so the resumed build retries it. Raises
        :class:`~repro.exceptions.ConfigurationError` when the directory
        holds shards built under different parameters, and
        :class:`~repro.exceptions.ArtifactCorruptedError` when a listed
        shard fails size/digest verification.
        """
        records = self._writer.resume("sharded propagation index")
        clean = sorted(
            (r for r in records if not r.get("failed_nodes")),
            key=lambda r: int(r["lo"]),
        )
        # _reach[i]: of clean[: i + 1], the record whose range ends last.
        self._los = [int(r["lo"]) for r in clean]
        self._reach = []
        for record in clean:
            last = self._reach[-1] if self._reach else record
            self._reach.append(max(last, record, key=lambda r: int(r["hi"])))

    def covering(self, lo: int, hi: int) -> Optional[List[dict]]:
        """The resumed records that hold every node of ``[lo, hi)``.

        ``None`` when some node of the range is in none of them (or
        nothing was resumed). The records may be cut at other boundaries
        than the range: a finished directory is byte-balanced, build
        ranges are uniform. Each step is one ``bisect`` over the resumed
        records' ``lo``.
        """
        chosen: List[dict] = []
        pos = lo
        while pos < hi:
            i = bisect_right(self._los, pos) - 1
            if i < 0 or int(self._reach[i]["hi"]) <= pos:
                return None
            chosen.append(self._reach[i])
            pos = int(self._reach[i]["hi"])
        return chosen

    def write_range(
        self,
        lo: int,
        hi: int,
        entries: Mapping[int, PropagationEntry],
        failed: Sequence[int] = (),
    ) -> dict:
        """Pack and atomically publish the shard of nodes ``[lo, hi)``.

        *failed* lists the range's nodes stored as empty slots after
        their build failed; the shard's record keeps them for a resumed
        build to retry and for :meth:`finalize`.
        """
        data = pack_shard(lo, hi, entries)
        extra = {"failed_nodes": sorted(map(int, failed))} if failed else {}
        n_members = sum(
            entries[n].size for n in range(lo, hi) if n in entries
        )
        return self._writer.write_shard(
            shard_filename(lo, hi), data,
            lo=int(lo), hi=int(hi), n_members=int(n_members),
            **extra,
        )

    def splice_range(
        self,
        shard: _MappedShard,
        entries: Mapping[int, PropagationEntry],
        failed: Sequence[int] = (),
    ) -> dict:
        """Publish *shard*'s range with the slots of *entries* replaced.

        The delta-refresh path: every other node's slot is copied section
        by section out of the mapped segment, so the unchanged entries
        are never materialized. *failed* lists the range's nodes that
        stay empty slots (see :meth:`write_range`). The segment file is
        replaced atomically, but the manifest is not rewritten: the shard
        is published by :meth:`finalize`.
        """
        lo, hi = shard.lo, shard.hi
        columns = []
        pos = lo
        for node in sorted(entries):
            if pos < node:
                columns.append(shard.sections(pos, node))
            entry = entries[node]
            columns.append((
                [entry.size], [entry.branches],
                entry.sources, entry.probabilities, entry.marked_flags,
            ))
            pos = node + 1
        if pos < hi:
            columns.append(shard.sections(pos, hi))
        data, n_members = _pack_columns(lo, hi, columns)
        extra = {"failed_nodes": sorted(map(int, failed))} if failed else {}
        record = self._writer.write_file(
            shard_filename(lo, hi), data,
            lo=lo, hi=hi, n_members=n_members, **extra,
        )
        return self._writer.adopt_shard(record, verify=False)

    def adopt(self, record: Mapping[str, object], *, verify: bool = True) -> dict:
        """Carry a clean shard's record into this writer's manifest.

        The delta-refresh path: a graph edit changes the manifest meta
        (``n_edges``), so :meth:`resume` refuses the old manifest - but
        shards untouched by the delta keep byte-identical files. Adopting
        re-verifies the file against the record (size + SHA-256) and
        lists it for the next manifest write without rewriting it.
        """
        return self._writer.adopt_shard(record, verify=verify)

    def finalize(self) -> dict:
        """Publish the completed manifest, listing every failed node."""
        return self._writer.finalize(failed_nodes=sorted(
            n for r in self._writer.shards for n in r.get("failed_nodes", ())
        ))

    def publish(self, n_nodes: int, *, balanced: bool = True) -> dict:
        """Re-cut the written shards and publish the completed manifest.

        The written records must cover ``[0, n_nodes)``; where two overlap
        (a resumed directory), the later one serves. The new boundaries
        are :func:`balanced_bounds` over ``ceil(n_nodes / shard_nodes)``
        shards, or the uniform build ranges when *balanced* is false (a
        keep-going build with empty slots keeps them, so a rerun retries
        exactly the ranges that failed). Member counts come from each
        written segment's offset table, and each new segment is copied
        section by section with one written segment mapped at a time; a
        segment whose range is unchanged is kept as it is.

        When the written records tile the node range, their complete
        manifest is published first, so a crash before the swap leaves a
        loadable directory. The new records then replace it in one
        manifest write, and segment files it does not list are deleted.
        """
        inputs = self._writer.shards
        owner = np.full(n_nodes, -1, dtype=np.int64)
        for i, record in enumerate(inputs):
            owner[int(record["lo"]) : int(record["hi"])] = i
        starts = np.flatnonzero(np.diff(owner, prepend=-2)).tolist()
        pieces = [
            (inputs[int(owner[a])], a, b)
            for a, b in zip(starts, starts[1:] + [n_nodes])
        ]
        if balanced:
            counts = np.empty(n_nodes, dtype=np.int64)
            for record, a, b in pieces:
                counts[a:b] = self._open(record).counts(a, b)
            cuts = balanced_bounds(counts, -(-n_nodes // self._shard_nodes))
        else:
            cuts = list(range(0, n_nodes, self._shard_nodes)) + [n_nodes]
        bounds = list(zip(cuts, cuts[1:]))
        ranges = [(int(r["lo"]), int(r["hi"])) for r in inputs]
        if ranges != bounds:
            if ranges == [(a, b) for _, a, b in pieces]:
                self.finalize()  # the loadable pre-swap checkpoint
            kept = dict(zip(ranges, inputs))
            failed = sorted(
                n for i, r in enumerate(inputs)
                for n in r.get("failed_nodes", ()) if owner[n] == i
            )
            self._writer.replace([
                kept.get((lo, hi)) or self._repack(lo, hi, pieces, failed)
                for lo, hi in bounds
            ])
        manifest = self.finalize()
        listed = {r["name"] for r in manifest["shards"]}
        for path in self.directory.glob("shard-*.bin"):
            if path.name not in listed:
                path.unlink()
        return manifest

    def _open(self, record: Mapping[str, object]) -> _MappedShard:
        return _open_shard(str(self.directory / str(record["name"])), record)

    def _repack(
        self,
        lo: int,
        hi: int,
        pieces: Sequence[Tuple[dict, int, int]],
        failed: Sequence[int],
    ) -> dict:
        columns = [
            self._open(record).sections(max(a, lo), min(b, hi))
            for record, a, b in pieces if a < hi and lo < b
        ]
        data, n_members = _pack_columns(lo, hi, columns)
        range_failed = [n for n in failed if lo <= n < hi]
        extra = {"failed_nodes": range_failed} if range_failed else {}
        return self._writer.write_file(
            shard_filename(lo, hi), data,
            lo=lo, hi=hi, n_members=n_members, **extra,
        )


def save_sharded_index(
    index: PropagationIndex,
    directory: PathLike,
    *,
    shard_nodes: int = DEFAULT_SHARD_NODES,
) -> Path:
    """Write a fully built in-memory index as a sharded artifact.

    For an index already materialized by :meth:`PropagationIndex.build_all`
    (or every entry touched lazily); :meth:`PropagationIndex.build_sharded`
    builds and writes in one bounded-memory pass instead. Both cut the
    same :func:`balanced_bounds`, so they write byte-identical
    directories. Requires every node's entry to be cached - a shard slot
    cannot distinguish "never built" from "empty Γ", so persisting a
    partial index would silently change query results.
    """
    n_nodes = index.graph.n_nodes
    missing = n_nodes - sum(
        1 for node in index._entries if 0 <= node < n_nodes
    )
    if missing:
        raise ConfigurationError(
            f"cannot shard a partial index: {missing} of {n_nodes} entries "
            f"were never materialized (run build_all or build_sharded)"
        )
    writer = PropagationShardWriter(directory, index, shard_nodes)
    cuts = balanced_bounds(
        [index._entries[node].size for node in range(n_nodes)],
        -(-n_nodes // int(shard_nodes)),
    )
    for lo, hi in zip(cuts, cuts[1:]):
        writer.write_range(lo, hi, index._entries)
    writer.finalize()
    return writer.directory


def load_sharded_index(
    directory: PathLike,
    graph: SocialGraph,
    *,
    cache_bytes: int = DEFAULT_SHARD_CACHE_BYTES,
    verify: bool = False,
    metrics: Optional[MetricsRegistry] = None,
) -> PropagationIndex:
    """Open a sharded index as a :class:`PropagationIndex` (zero-copy).

    The returned index serves every entry from the mapped shards (paged
    under *cache_bytes*) and is bit-exact with the in-memory index the
    shards were built from; ``theta``/``max_branches``/``strict`` come
    from the manifest. Cold open reads only the manifest - no segment is
    touched until its first entry is requested.
    """
    backend = MmapShardBackend(
        directory, graph,
        cache_bytes=cache_bytes, verify=verify, metrics=metrics,
    )
    index = PropagationIndex(
        graph, backend.theta,
        max_branches=backend.max_branches,
        strict=backend.strict,
        metrics=metrics,
    )
    index.attach_shards(backend)
    return index


def refresh_sharded_index(
    backend: MmapShardBackend,
    graph: SocialGraph,
    affected,
    *,
    cache_bytes: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> PropagationIndex:
    """Rewrite only the dirty shards of a sharded index for an edited graph.

    The sharded arm of the delta engine (:mod:`repro.core.dynamics`):
    *affected* is the node set whose Γ can change (see
    :func:`~repro.core.dynamics.affected_nodes`), *graph* is the
    post-delta graph over the same node set. Shards containing an
    affected node (a bisection of the sorted affected set per shard
    range) are repacked - affected entries rebuilt against the new graph's CSR,
    the other slots copied section by section out of the old segment
    (:meth:`PropagationShardWriter.splice_range`) - and atomically
    replaced in the same directory; clean shards are
    carried into the new manifest byte-untouched (the manifest must be
    rewritten regardless, because its ``meta`` records the edge count).
    The shard boundaries stay fixed across deltas. Affected nodes drop
    off the ``failed_nodes`` list: their slots are rebuilt for real.

    Returns a fresh shard-served :class:`PropagationIndex` (same shape
    as :func:`load_sharded_index`) with
    ``{"shards_rewritten", "shards_carried", "entries_rebuilt",
    "entries_copied"}`` in ``last_refresh_stats``. The *old* backend's
    mapped segments keep serving their pre-delta bytes until dropped -
    discard it after the swap.

    Every affected entry of a dirty shard is rebuilt in one
    :meth:`~repro.core.propagation.PropagationIndex.build_entries` batch
    (bit-exact with the per-node DFS), timed as
    ``dynamics.refresh_build_seconds``; the rest of the refresh is
    splicing and writing the dirty segments, verifying the carried ones,
    and the two manifest writes.

    The manifest is written twice: before any segment is replaced, as
    incomplete under the new ``meta`` and listing no shard, and at the
    end, complete. A crash mid-refresh therefore leaves a directory
    every loader refuses as incomplete - never a complete manifest over
    a mix of pre- and post-delta segments - and one that lists no shard,
    so :meth:`~repro.core.propagation.PropagationIndex.build_sharded`
    with ``resume=True`` rebuilds every shard from whichever graph it is
    given (a reweight-only delta keeps the ``meta``, so a resume over the
    pre-delta graph would otherwise accept post-delta shards; see
    ``docs/dynamics.md``).
    """
    if graph.n_nodes != backend._graph.n_nodes:
        raise ConfigurationError(
            f"delta graphs must keep the node set: got {graph.n_nodes} "
            f"nodes, shards cover {backend._graph.n_nodes}"
        )
    affected = np.unique(np.asarray(affected, dtype=np.int64))
    builder = PropagationIndex(
        graph, backend.theta,
        max_branches=backend.max_branches,
        strict=backend.strict,
        metrics=metrics,
    )
    registry = metrics if metrics is not None else get_registry()
    writer = PropagationShardWriter(
        backend.directory, builder, backend.shard_nodes
    )
    writer.begin()
    failed = backend.failed_nodes
    rewritten = carried = rebuilt = copied = 0
    for shard_id, record in enumerate(backend._records):
        lo, hi = int(record["lo"]), int(record["hi"])
        stale = affected[
            np.searchsorted(affected, lo) : np.searchsorted(affected, hi)
        ].tolist()
        if not stale:
            writer.adopt(record)
            carried += 1
            continue
        with registry.timer("dynamics.refresh_build_seconds"):
            entries = dict(zip(stale, builder.build_entries(stale)))
        still_failed = [
            node for node in failed if lo <= node < hi and node not in entries
        ]
        writer.splice_range(
            backend._shard(shard_id), entries, failed=still_failed
        )
        rewritten += 1
        rebuilt += len(stale)
        copied += hi - lo - len(stale) - len(still_failed)
    writer.finalize()
    registry.inc("dynamics.shards_rewritten", rewritten)
    registry.inc("dynamics.shards_carried", carried)
    registry.inc("dynamics.entries_rebuilt", rebuilt)
    registry.inc("dynamics.entries_copied", copied)
    index = load_sharded_index(
        backend.directory, graph,
        cache_bytes=(
            backend.cache_bytes if cache_bytes is None else cache_bytes
        ),
        metrics=metrics,
    )
    index.last_refresh_stats = {
        "shards_rewritten": rewritten,
        "shards_carried": carried,
        "entries_rebuilt": rebuilt,
        "entries_copied": copied,
    }
    return index
