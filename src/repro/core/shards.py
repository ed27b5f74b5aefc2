"""Memory-mapped, sharded propagation-index storage (scale extension).

The paper's offline propagation index (``Γ(v)`` per node, §5.1) is the
system's largest artifact. The single-NPZ persistence in
:mod:`repro.core.persistence` round-trips the *whole* index through RAM,
which caps graph size at memory and makes cold start O(index size). This
module stores the same entries as a **sharded flat binary artifact**:

* entries are grouped by contiguous node range (``shard_nodes`` per
  shard) into independent segment files;
* each segment is a fixed-layout flat binary blob - a 64-byte header
  followed by CSR-style offset tables and the concatenated sorted
  ``sources``/``probabilities``/``marked`` arrays (the existing compact
  :class:`~repro.core.propagation.PropagationEntry` layout, which is
  already mmap-friendly);
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

Shard layout (version 1), all sections 8-byte aligned::

    bytes [0, 8)    magic  b"PITSHRD1"
    bytes [8, 64)   little-endian int64 x 7:
                    version, lo, hi, n_members, n_marked, 0, 0
    offsets         int64[(hi - lo) + 1]   Γ slice bounds per node
    marked_offsets  int64[(hi - lo) + 1]   Γ* slice bounds per node
    branches        int64[hi - lo]         branch counts per node
    sources         int64[n_members]       concatenated sorted Γ members
    probabilities   float64[n_members]     parallel Γ probabilities
    marked          int64[n_marked]        concatenated sorted Γ* members

Node ``v`` (``lo <= v < hi``) owns ``sources[offsets[v-lo]:
offsets[v-lo+1]]`` and the parallel probability slice; an empty slice is
a legitimate entry (a node no qualifying path reaches).
"""

from __future__ import annotations

import mmap
import os
import struct
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

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
SHARD_FORMAT_VERSION = 1

#: Nodes per shard segment when the caller does not choose.
DEFAULT_SHARD_NODES = 4096

#: Shard-paging byte budget when the caller does not choose (256 MiB).
DEFAULT_SHARD_CACHE_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct("<7q")
_HEADER_BYTES = 64


def shard_filename(lo: int, hi: int) -> str:
    """Canonical segment file name for node range ``[lo, hi)``."""
    return f"shard-{lo:010d}-{hi:010d}.bin"


# ---------------------------------------------------------------------------
# Packing (build side)
# ---------------------------------------------------------------------------


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
    marked_offsets = np.zeros(count + 1, dtype=np.int64)
    branches = np.zeros(count, dtype=np.int64)
    source_parts: List[np.ndarray] = []
    probability_parts: List[np.ndarray] = []
    marked_parts: List[np.ndarray] = []
    for i, node in enumerate(range(lo, hi)):
        entry = entries.get(node)
        if entry is None:
            offsets[i + 1] = offsets[i]
            marked_offsets[i + 1] = marked_offsets[i]
            continue
        offsets[i + 1] = offsets[i] + entry.size
        marked_offsets[i + 1] = marked_offsets[i] + entry.marked_array.size
        branches[i] = entry.branches
        source_parts.append(entry.sources)
        probability_parts.append(entry.probabilities)
        marked_parts.append(entry.marked_array)
    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0, dtype=np.float64)
    sources = np.concatenate(source_parts or [empty_i])
    probabilities = np.concatenate(probability_parts or [empty_f])
    marked = np.concatenate(marked_parts or [empty_i])
    header = SHARD_MAGIC + _HEADER.pack(
        SHARD_FORMAT_VERSION, lo, hi, sources.size, marked.size, 0, 0
    )
    header = header.ljust(_HEADER_BYTES, b"\0")
    return b"".join((
        header,
        offsets.tobytes(),
        marked_offsets.tobytes(),
        branches.tobytes(),
        np.ascontiguousarray(sources, dtype=np.int64).tobytes(),
        np.ascontiguousarray(probabilities, dtype=np.float64).tobytes(),
        np.ascontiguousarray(marked, dtype=np.int64).tobytes(),
    ))


def _expected_nbytes(count: int, n_members: int, n_marked: int) -> int:
    return _HEADER_BYTES + 8 * (2 * (count + 1) + count + 2 * n_members + n_marked)


# ---------------------------------------------------------------------------
# Mapping (serve side)
# ---------------------------------------------------------------------------


class _MappedShard:
    """One memory-mapped shard segment with typed zero-copy views.

    The sections are plain ``np.frombuffer`` views of one read-only
    ``mmap``; each view (and each entry slice of it) keeps the mapping
    alive, so the segment is unmapped once it has left the paging cache
    and the last entry served from it is dropped.

    Entry objects are memoized per shard, so the per-entry caches (the
    ``marked_pairs`` resolution the Expand step reuses) live exactly as
    long as the shard is resident in the paging cache and are dropped
    with it on eviction.
    """

    __slots__ = (
        "lo", "hi", "nbytes", "_offsets", "_marked_offsets",
        "_branches", "_sources", "_probabilities", "_marked", "_entries",
    )

    def __init__(self, mapping: mmap.mmap, lo: int, hi: int,
                 n_members: int, n_marked: int):
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
            pos += 8 * n_items
            return view

        self._offsets = take(count + 1, np.int64)
        self._marked_offsets = take(count + 1, np.int64)
        self._branches = take(count, np.int64)
        self._sources = take(n_members, np.int64)
        self._probabilities = take(n_members, np.float64)
        self._marked = take(n_marked, np.int64)
        self._entries: Dict[int, PropagationEntry] = {}

    def entry(self, node: int) -> PropagationEntry:
        cached = self._entries.get(node)
        if cached is None:
            i = node - self.lo
            lo, hi = int(self._offsets[i]), int(self._offsets[i + 1])
            mlo = int(self._marked_offsets[i])
            mhi = int(self._marked_offsets[i + 1])
            cached = PropagationEntry.from_arrays(
                node,
                self._sources[lo:hi],
                self._probabilities[lo:hi],
                self._marked[mlo:mhi],
                int(self._branches[i]),
                mapped=True,
            )
            self._entries[node] = cached
        return cached


def _open_shard(
    directory: Path, record: Mapping[str, object], *, verify: bool = False
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
        verify_shard_file(directory, record, what)
    path = directory / str(record["name"])
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
        version, lo, hi, n_members, n_marked, _, _ = _HEADER.unpack(
            header[8 : 8 + _HEADER.size]
        )
        if hi <= lo or n_members < 0 or n_marked < 0:
            raise ArtifactCorruptedError(
                path,
                reason=(
                    f"corrupt shard header (lo={lo}, hi={hi}, "
                    f"n_members={n_members}, n_marked={n_marked})"
                ),
            )
        if version > SHARD_FORMAT_VERSION:
            raise ArtifactCorruptedError(
                path,
                reason=(
                    f"shard format version {version} is newer than the "
                    f"supported version {SHARD_FORMAT_VERSION}"
                ),
            )
        if lo != int(record["lo"]) or hi != int(record["hi"]):
            raise ArtifactCorruptedError(
                path,
                reason=(
                    f"shard header covers nodes [{lo}, {hi}) but the "
                    f"manifest records [{int(record['lo'])}, "
                    f"{int(record['hi'])})"
                ),
            )
        expected = _expected_nbytes(hi - lo, n_members, n_marked)
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
    return _MappedShard(mapping, lo, hi, n_members, n_marked)


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
        manifest = load_shard_manifest(
            self._dir, kind=SHARD_KIND, what="sharded propagation index"
        )
        if not manifest["complete"]:
            raise ArtifactCorruptedError(
                self._dir / MANIFEST_NAME,
                reason=(
                    "incomplete sharded index (the build was interrupted; "
                    "rerun build_sharded on the same directory to finish it)"
                ),
            )
        meta = manifest["meta"]
        for key in ("n_nodes", "n_edges", "theta", "max_branches",
                    "strict", "shard_nodes"):
            if key not in meta:
                raise ArtifactCorruptedError(
                    self._dir / MANIFEST_NAME,
                    reason=f"manifest meta is missing {key!r}",
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
            if int(record["lo"]) != expected_lo:
                raise ArtifactCorruptedError(
                    self._dir / MANIFEST_NAME,
                    reason=(
                        f"shard coverage gap: expected a shard starting at "
                        f"node {expected_lo}, found {int(record['lo'])}"
                    ),
                )
            expected_lo = int(record["hi"])
        if expected_lo != graph.n_nodes:
            raise ArtifactCorruptedError(
                self._dir / MANIFEST_NAME,
                reason=(
                    f"shards cover nodes [0, {expected_lo}) but the graph "
                    f"has {graph.n_nodes} nodes"
                ),
            )
        self._graph = graph
        self._records = records
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
        """Nodes per shard segment."""
        return self._shard_nodes

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
    def get(self, node: int) -> PropagationEntry:
        """The mapped entry of *node* (pages its shard in if needed)."""
        shard_id = node // self._shard_nodes
        shard = self._cache.get(shard_id)
        if shard is None:
            shard = _open_shard(
                self._dir, self._records[shard_id], verify=self._verify
            )
            self._cache.put(shard_id, shard, shard.nbytes)
            self._registry().inc("index.shard.loads")
        return shard.entry(node)

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
    ``meta`` (graph signature + build parameters), names segments
    canonically, and packs entries with :func:`pack_shard`.
    """

    def __init__(
        self, directory: PathLike, index: PropagationIndex, shard_nodes: int
    ):
        require_in_range("shard_nodes", shard_nodes, 1)
        self._index = index
        self._shard_nodes = int(shard_nodes)
        self._writer = ShardWriter(directory, SHARD_KIND, {
            "n_nodes": index.graph.n_nodes,
            "n_edges": index.graph.n_edges,
            "theta": index.theta,
            "max_branches": index.max_branches,
            "strict": bool(index.strict),
            "shard_nodes": int(shard_nodes),
        })

    @property
    def directory(self) -> Path:
        """The artifact directory."""
        return self._writer.directory

    def resume(self) -> Dict[Tuple[int, int], dict]:
        """Verified ``(lo, hi) -> record`` map of already-written shards.

        Raises :class:`~repro.exceptions.ConfigurationError` when the
        directory holds shards built under different parameters, and
        :class:`~repro.exceptions.ArtifactCorruptedError` when a listed
        shard fails size/digest verification.
        """
        records = self._writer.resume("sharded propagation index")
        return {
            (int(r["lo"]), int(r["hi"])): r for r in records
        }

    def write_range(
        self, lo: int, hi: int, entries: Mapping[int, PropagationEntry]
    ) -> dict:
        """Pack and atomically publish the shard of nodes ``[lo, hi)``."""
        data = pack_shard(lo, hi, entries)
        n_members = sum(
            entries[n].size for n in range(lo, hi) if n in entries
        )
        n_marked = sum(
            entries[n].marked_array.size for n in range(lo, hi) if n in entries
        )
        return self._writer.write_shard(
            shard_filename(lo, hi), data,
            lo=int(lo), hi=int(hi),
            n_members=int(n_members), n_marked=int(n_marked),
        )

    def adopt(self, record: Mapping[str, object], *, verify: bool = True) -> dict:
        """Carry a clean shard's record into this writer's manifest.

        The delta-refresh path: a graph edit changes the manifest meta
        (``n_edges``), so :meth:`resume` refuses the old manifest - but
        shards untouched by the delta keep byte-identical files. Adopting
        re-verifies the file against the record (size + SHA-256) and
        lists it in the new manifest without rewriting it.
        """
        return self._writer.adopt_shard(record, verify=verify)

    def finalize(self, failed_nodes: Tuple[int, ...] = ()) -> dict:
        """Publish the completed manifest."""
        return self._writer.finalize(
            failed_nodes=sorted(int(n) for n in failed_nodes)
        )


def save_sharded_index(
    index: PropagationIndex,
    directory: PathLike,
    *,
    shard_nodes: int = DEFAULT_SHARD_NODES,
) -> Path:
    """Write a fully materialized in-memory index as a sharded artifact.

    The migration path from the legacy single-NPZ format: load the NPZ
    with :func:`~repro.core.persistence.load_propagation_index`, then
    save it sharded. Requires every node's entry to be cached - a shard
    slot cannot distinguish "never built" from "empty Γ", so persisting a
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
    for lo in range(0, n_nodes, int(shard_nodes)):
        hi = min(lo + int(shard_nodes), n_nodes)
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
    affected node are repacked - affected entries rebuilt against the
    new graph's CSR, unaffected entries copied zero-copy out of the old
    mapped segment - and atomically replaced in the same directory;
    clean shards are carried into the new manifest byte-untouched (the
    manifest must be rewritten regardless, because its ``meta`` records
    the edge count). Affected nodes drop off the ``failed_nodes`` list:
    their slots are rebuilt for real.

    Returns a fresh shard-served :class:`PropagationIndex` (same shape
    as :func:`load_sharded_index`) with
    ``{"shards_rewritten", "shards_carried", "entries_rebuilt",
    "entries_copied"}`` in ``last_refresh_stats``. The *old* backend's
    mapped segments keep serving their pre-delta bytes until dropped -
    discard it after the swap.

    The directory is momentarily incomplete while shards are replaced;
    a crash mid-refresh leaves a manifest that loaders refuse, and the
    recovery is a full ``build_sharded`` (see ``docs/dynamics.md``).
    """
    if graph.n_nodes != backend._graph.n_nodes:
        raise ConfigurationError(
            f"delta graphs must keep the node set: got {graph.n_nodes} "
            f"nodes, shards cover {backend._graph.n_nodes}"
        )
    affected = np.asarray(affected, dtype=np.int64)
    mask = np.zeros(graph.n_nodes, dtype=bool)
    mask[affected] = True
    builder = PropagationIndex(
        graph, backend.theta,
        max_branches=backend.max_branches,
        strict=backend.strict,
        metrics=metrics,
    )
    writer = PropagationShardWriter(
        backend.directory, builder, backend.shard_nodes
    )
    dirty = set((affected // backend.shard_nodes).tolist())
    failed = set(backend.failed_nodes)
    rewritten = carried = rebuilt = copied = 0
    for shard_id, record in enumerate(backend._records):
        lo, hi = int(record["lo"]), int(record["hi"])
        if shard_id not in dirty:
            writer.adopt(record)
            carried += 1
            continue
        entries: Dict[int, PropagationEntry] = {}
        for node in range(lo, hi):
            if mask[node]:
                entries[node] = builder.build_entry(node)
                rebuilt += 1
            elif node not in failed:
                entries[node] = backend.get(node)
                copied += 1
        writer.write_range(lo, hi, entries)
        rewritten += 1
    writer.finalize(
        failed_nodes=tuple(n for n in failed if not mask[n])
    )
    registry = metrics if metrics is not None else get_registry()
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
