"""Memory-mapped postings shards.

An index shard is one uncompressed ``.npz`` archive holding the postings
of a contiguous codeword range in CSR layout:

* ``codeword_ids`` — the codewords present in the shard, sorted ascending
  (``int32``);
* ``offsets`` — CSR offsets into the postings arrays, one entry per
  codeword id plus a trailing sentinel (``int64``);
* ``series`` — series indices of the postings (``int32``);
* ``weights`` — TF-IDF posting weights (``float32``);
* ``counts`` — raw term frequencies (``float64``, format version 2 on).

Legacy ``pq_*`` members of version-2 and -3 archives are ignored.

``.npz`` archives are ZIP files; :func:`numpy.savez` stores members
*uncompressed* (``ZIP_STORED``), so each member is a plain ``.npy`` byte
range at a fixed offset inside the file.  :func:`mmap_npz` exploits that:
it parses the ZIP local headers and the ``.npy`` headers to recover each
member's dtype/shape/offset and returns :class:`numpy.memmap` views — the
OS pages postings in on demand and an index larger than RAM still serves
queries.  Compressed members (or anything else unexpected) fall back to a
normal in-memory load, so the reader works on any valid ``.npz``.
"""

from __future__ import annotations

import os
import struct
import zipfile
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..exceptions import ValidationError

# Fixed part of a ZIP local file header: signature, version, flags,
# compression, mod time, mod date, crc32, compressed size, uncompressed
# size, file name length, extra field length.
_LOCAL_HEADER = struct.Struct("<4s5H3I2H")
_LOCAL_MAGIC = b"PK\x03\x04"

SHARD_MEMBERS = ("codeword_ids", "offsets", "series", "weights")
# ``counts`` (format version 2) holds the raw (pre-IDF, unnormalised)
# term frequencies, so a compaction recomputes TF-IDF weights
# bit-identically to a fresh build.
OPTIONAL_SHARD_MEMBERS = ("counts",)


def _member_data_offset(handle, info: zipfile.ZipInfo) -> int:
    """Absolute file offset of a STORED member's data bytes.

    The local header's name/extra lengths may differ from the central
    directory's, so the local header is parsed directly.
    """
    handle.seek(info.header_offset)
    raw = handle.read(_LOCAL_HEADER.size)
    if len(raw) != _LOCAL_HEADER.size:
        raise ValidationError(f"truncated ZIP local header in shard member {info.filename!r}")
    fields = _LOCAL_HEADER.unpack(raw)
    if fields[0] != _LOCAL_MAGIC:
        raise ValidationError(f"bad ZIP local header magic for member {info.filename!r}")
    name_length, extra_length = fields[9], fields[10]
    return info.header_offset + _LOCAL_HEADER.size + name_length + extra_length


def _mmap_npy_member(path: str, handle, info: zipfile.ZipInfo) -> np.ndarray:
    """Memory-map one STORED ``.npy`` member of a ``.npz`` archive."""
    data_offset = _member_data_offset(handle, info)
    handle.seek(data_offset)
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
    else:  # pragma: no cover - future .npy versions
        raise ValidationError(f"unsupported .npy version {version} in {info.filename!r}")
    if fortran:  # pragma: no cover - we only ever write C-order arrays
        raise ValidationError("fortran-order shard members cannot be memory-mapped")
    if dtype.hasobject:
        raise ValidationError("object arrays cannot be memory-mapped")
    return np.memmap(path, dtype=dtype, mode="r", offset=handle.tell(), shape=shape)


def mmap_npz(path: Union[str, os.PathLike]) -> Dict[str, np.ndarray]:
    """Open an uncompressed ``.npz`` archive as memory-mapped arrays.

    Members that cannot be mapped (compressed, object dtype, exotic
    format) are loaded into memory instead, so the result is always a
    complete ``{member name: array}`` mapping.
    """
    path = os.fspath(path)
    arrays: Dict[str, np.ndarray] = {}
    fallbacks = []
    with zipfile.ZipFile(path, "r") as archive:
        with open(path, "rb") as handle:
            for info in archive.infolist():
                name = info.filename
                key = name[:-4] if name.endswith(".npy") else name
                if info.compress_type != zipfile.ZIP_STORED:
                    fallbacks.append(key)
                    continue
                try:
                    arrays[key] = _mmap_npy_member(path, handle, info)
                except ValidationError:
                    fallbacks.append(key)
    if fallbacks:
        with np.load(path, allow_pickle=False) as archive:
            for key in fallbacks:
                arrays[key] = archive[key]
    return arrays


def load_npz(path: Union[str, os.PathLike]) -> Dict[str, np.ndarray]:
    """Load every member of a ``.npz`` archive fully into memory."""
    with np.load(os.fspath(path), allow_pickle=False) as archive:
        return {key: np.ascontiguousarray(archive[key]) for key in archive.files}


@dataclass
class IndexShard:
    """Postings for one contiguous codeword range ``[first, last)``.

    The arrays may be ordinary in-memory ``ndarray`` objects (while an
    index is being built) or :class:`numpy.memmap` views (after a shard is
    reopened from disk); queries treat both identically.

    Version-2 shards additionally carry ``counts`` (raw term
    frequencies, ``float64``; the input a compaction recomputes TF-IDF
    weights from), optional so version-1 shards keep loading.
    """

    first_codeword: int
    last_codeword: int
    codeword_ids: np.ndarray
    offsets: np.ndarray
    series: np.ndarray
    weights: np.ndarray
    counts: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # Optional decoded-postings cache (see enable_postings_cache);
        # plain instance state, never persisted with the shard.
        self._postings_cache: Optional[Dict[int, Tuple[np.ndarray, np.ndarray]]] = None
        self._postings_cache_capacity = 0
        # Lifetime hit/miss tallies while the cache is enabled.  Plain
        # unguarded ints: a lost increment under concurrent readers only
        # undercounts — the scoring path stays lock-free.
        self.postings_cache_hits = 0
        self.postings_cache_misses = 0
        if self.last_codeword < self.first_codeword:
            raise ValidationError("shard codeword range is inverted")
        if self.offsets.size != self.codeword_ids.size + 1:
            raise ValidationError("shard offsets must have one entry per codeword plus a sentinel")
        if self.series.size != self.weights.size:
            raise ValidationError("shard series/weights arrays must have equal length")
        if self.counts is not None and self.counts.size != self.series.size:
            raise ValidationError("shard counts must parallel the postings arrays")

    @property
    def num_postings(self) -> int:
        return int(self.series.size)

    @property
    def has_counts(self) -> bool:
        return self.counts is not None

    @property
    def is_memory_mapped(self) -> bool:
        return isinstance(self.series, np.memmap)

    def covers(self, codeword: int) -> bool:
        return self.first_codeword <= codeword < self.last_codeword

    def postings_of(self, codeword: int):
        """``(series, weights)`` slices for one codeword (empty if absent)."""
        position = int(np.searchsorted(self.codeword_ids, codeword))
        if (
            position >= self.codeword_ids.size
            or int(self.codeword_ids[position]) != codeword
        ):
            empty = np.empty(0, dtype=self.series.dtype)
            return empty, np.empty(0, dtype=self.weights.dtype)
        start = int(self.offsets[position])
        stop = int(self.offsets[position + 1])
        return self.series[start:stop], self.weights[start:stop]

    def enable_postings_cache(self, capacity: int) -> None:
        """Keep up to *capacity* decoded postings pages hot in memory.

        A cached page is the ``(series, weights)`` pair of one codeword
        with the series indices materialised from the (possibly
        memory-mapped) backing arrays and the weights already widened to
        ``float64`` — exactly the form the scoring loop needs, so a hot
        codeword skips both the page fault and the ``astype`` copy.
        Shard payloads are immutable, so cached pages can never go
        stale; the cache itself rides along when a shard object is
        shared across index clones and serving snapshots.
        ``capacity <= 0`` disables caching.
        """
        capacity = int(capacity)
        if capacity <= 0:
            self._postings_cache = None
            self._postings_cache_capacity = 0
            return
        self._postings_cache_capacity = capacity
        if self._postings_cache is None:
            self._postings_cache = {}

    def scored_postings_of(self, codeword: int):
        """``(series, float64 weights)`` for one codeword, cached when hot.

        The uncached result is bit-identical to
        ``postings_of(codeword)`` followed by ``weights.astype(float)``
        — the cache only memoises that conversion, it never changes it.
        """
        cache = self._postings_cache
        if cache is not None:
            page = cache.get(codeword)
            if page is not None:
                self.postings_cache_hits += 1
                return page
            self.postings_cache_misses += 1
        series, weights = self.postings_of(codeword)
        page = (
            np.array(series, dtype=np.intp, copy=True),
            weights.astype(float),
        )
        if cache is not None and series.size:
            if len(cache) >= self._postings_cache_capacity:
                # FIFO eviction; dicts iterate in insertion order.  A
                # rare concurrent eviction race just clears the cache —
                # correctness never depends on what is cached.
                try:
                    del cache[next(iter(cache))]
                except (KeyError, RuntimeError, StopIteration):
                    cache.clear()
            cache[codeword] = page
        return page

    def counts_of(self, codeword: int) -> np.ndarray:
        """Raw term frequencies for one codeword (requires ``counts``)."""
        if self.counts is None:
            raise ValidationError(
                "this shard was written without raw counts (format version 1); "
                "rebuild the index to enable incremental maintenance"
            )
        position = int(np.searchsorted(self.codeword_ids, codeword))
        if (
            position >= self.codeword_ids.size
            or int(self.codeword_ids[position]) != codeword
        ):
            return np.empty(0, dtype=self.counts.dtype)
        start = int(self.offsets[position])
        stop = int(self.offsets[position + 1])
        return self.counts[start:stop]

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the shard as an uncompressed (mappable) ``.npz`` archive.

        The archive is assembled in a sibling temp file and moved into
        place with :func:`os.replace`, so a reader (or a crashed writer)
        never observes a half-written shard — overwriting a live index
        directory is safe on POSIX even while the previous shard files
        are still memory-mapped (the old inodes stay alive under the
        existing mappings).
        """
        payload = {
            "codeword_ids": np.asarray(self.codeword_ids, dtype=np.int32),
            "offsets": np.asarray(self.offsets, dtype=np.int64),
            "series": np.asarray(self.series, dtype=np.int32),
            "weights": np.asarray(self.weights, dtype=np.float32),
        }
        if self.counts is not None:
            payload["counts"] = np.asarray(self.counts, dtype=np.float64)
        path = os.fspath(path)
        temp_path = path + ".tmp"
        try:
            with open(temp_path, "wb") as handle:
                np.savez(handle, **payload)
            os.replace(temp_path, path)
        finally:
            if os.path.exists(temp_path):  # pragma: no cover - error path
                os.remove(temp_path)

    @classmethod
    def open(
        cls,
        path: Union[str, os.PathLike],
        first_codeword: int,
        last_codeword: int,
        *,
        mmap: bool = True,
    ) -> "IndexShard":
        """Reopen a shard written by :meth:`save`.

        With ``mmap=True`` (the default) the postings arrays are
        memory-mapped; ``mmap=False`` loads them fully into RAM (the
        baseline the memory benchmark compares against).
        """
        arrays = mmap_npz(path) if mmap else load_npz(path)
        missing = [name for name in SHARD_MEMBERS if name not in arrays]
        if missing:
            raise ValidationError(
                f"shard archive {os.fspath(path)!r} is missing members: {missing}"
            )
        return cls(
            first_codeword=first_codeword,
            last_codeword=last_codeword,
            codeword_ids=arrays["codeword_ids"],
            offsets=arrays["offsets"],
            series=arrays["series"],
            weights=arrays["weights"],
            counts=arrays.get("counts"),
        )
