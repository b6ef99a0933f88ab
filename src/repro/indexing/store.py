"""Index persistence: directory layout, manifest, writer and reader.

An index lives in one directory, the ``index/`` directory of a
:class:`repro.service.Workspace`::

    index-dir/
        manifest.json     # routing table + identifiers + fingerprints
        codebook.npz      # fitted k-means quantizer
        stats.npz         # per-codeword IDF
        shard-0000.npz    # base postings shards (uncompressed, mappable)
        shard-0001.npz
        delta-0000.npz    # incremental delta shards (same format, full
        delta-0001.npz    # codeword range each)

The directory holds no feature store: the raw series and their salient
features live once, in the workspace's own ``store.npz``, and their labels
and extraction config in the workspace manifest.  The index manifest keeps
its ``store_file``, ``labels`` and ``extraction_config`` keys, written as
``null``; the ``store.npz`` that older releases bundled here is never read
and is deleted by the next write.

The manifest records which codeword range each shard file covers, so a
reader routes a codeword to its shard without opening the others; shard
payloads are memory-mapped on open (see :mod:`repro.indexing.shards`),
so opening an index reads only the manifest, codebook and IDF table —
postings pages fault in as queries touch them.

Format version 2 adds incremental state: delta shard entries, the
tombstoned slot list and per-posting raw counts inside the shards;
version 3 keeps that layout.  Version-1 directories still open but
cannot be compacted until rebuilt.  Legacy ``pq_*`` members (the
manifest's ``pq_file``, ``pq.npz``, shard arrays) are ignored.

:meth:`repro.service.Workspace.save` is the only code that writes index
directories.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

import numpy as np

from ..exceptions import DatasetError, ValidationError
from .codebook import Codebook
from .postings import InvertedIndex
from .shards import IndexShard

MANIFEST_NAME = "manifest.json"
CODEBOOK_NAME = "codebook.npz"
STATS_NAME = "stats.npz"
# Written by older releases (a bundled feature store and a
# product-quantizer codec); never read, deleted by the next write.
LEGACY_NAMES = ("store.npz", "pq.npz")
FORMAT_NAME = "repro-salient-index"
FORMAT_VERSION = 3


def _shard_entry(filename: str, shard: IndexShard) -> Dict[str, object]:
    return {
        "file": filename,
        "first_codeword": shard.first_codeword,
        "last_codeword": shard.last_codeword,
        "num_postings": shard.num_postings,
        "num_codewords_present": int(shard.codeword_ids.size),
    }


@dataclass
class IndexWriter:
    """Writes a built index (and its codebook) to a directory.

    Parameters
    ----------
    directory:
        Target directory; created if missing.  Existing index files are
        overwritten — building is idempotent.
    """

    directory: Union[str, os.PathLike]

    def write(
        self,
        index: InvertedIndex,
        codebook: Codebook,
        identifiers: Sequence[str],
    ) -> str:
        """Persist everything; returns the manifest path.

        Parameters
        ----------
        index, codebook:
            The built inverted index and its fitted quantizer.  Delta
            shards and tombstones are persisted as-is, so an
            incrementally updated index round-trips without compaction.
        identifiers:
            Series identifiers, one per index *slot* (live identifiers
            must be unique; tombstoned slots keep their historical name
            so slot numbering survives the round trip).
        """
        if len(identifiers) != index.num_series:
            raise ValidationError(
                "identifiers must have one entry per indexed series"
            )
        live_identifiers = [
            identifier
            for slot, identifier in enumerate(identifiers)
            if not index.tombstones[slot]
        ]
        if len(set(live_identifiers)) != len(live_identifiers):
            # The on-disk format keys series by identifier; duplicates
            # would silently collapse on reopen.
            raise ValidationError(
                "index identifiers must be unique; the collection repeats "
                "at least one identifier"
            )
        directory = os.fspath(self.directory)
        os.makedirs(directory, exist_ok=True)

        codebook.save(os.path.join(directory, CODEBOOK_NAME))
        np.savez(os.path.join(directory, STATS_NAME), idf=index.idf)

        shard_entries: List[Dict[str, object]] = []
        for number, shard in enumerate(index.shards):
            filename = f"shard-{number:04d}.npz"
            shard.save(os.path.join(directory, filename))
            shard_entries.append(_shard_entry(filename, shard))
        delta_entries: List[Dict[str, object]] = []
        for number, shard in enumerate(index.delta_shards):
            filename = f"delta-{number:04d}.npz"
            shard.save(os.path.join(directory, filename))
            delta_entries.append(_shard_entry(filename, shard))

        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "num_series": index.num_series,
            "num_live": index.num_live,
            "num_codewords": index.num_codewords,
            "num_postings": index.num_postings,
            "descriptor_bins": codebook.config.descriptor_bins,
            "identifiers": list(identifiers),
            "labels": None,
            "shards": shard_entries,
            "delta_shards": delta_entries,
            "tombstones": [
                int(slot) for slot in np.nonzero(index.tombstones)[0]
            ],
            "codebook_file": CODEBOOK_NAME,
            "stats_file": STATS_NAME,
            "store_file": None,
            "extraction_config": None,
        }
        # Atomic manifest swap: until the new manifest is in place the
        # old one keeps referencing only files that still exist (nothing
        # has been deleted yet), so a crash or concurrent IndexReader.open
        # never sees a manifest pointing at missing shards.  It is not a
        # crash-safe commit, though: the shards above were already
        # replaced in place, so a crash between those writes and this
        # swap leaves the old manifest describing new shard contents.
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        temp_path = manifest_path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
        os.replace(temp_path, manifest_path)
        # Only now prune files a previous (larger or older) build left
        # behind — nothing references them anymore.
        written = {str(entry["file"]) for entry in shard_entries}
        written.update(str(entry["file"]) for entry in delta_entries)
        for name in os.listdir(directory):
            if name in LEGACY_NAMES or (
                name.startswith(("shard-", "delta-"))
                and name.endswith(".npz")
                and name not in written
            ):
                os.remove(os.path.join(directory, name))
        return manifest_path


@dataclass
class IndexReader:
    """A reopened on-disk index.

    Attributes
    ----------
    codebook:
        The fitted quantizer.
    index:
        The inverted index (base + delta shards, tombstones applied),
        with shard postings memory-mapped unless the reader was opened
        with ``mmap=False``.
    identifiers:
        Series identifiers in slot order (including tombstoned slots; see
        :meth:`live_identifiers`).
    """

    codebook: Codebook
    index: InvertedIndex
    identifiers: List[str]

    @classmethod
    def open(
        cls, directory: Union[str, os.PathLike], *, mmap: bool = True
    ) -> "IndexReader":
        """Open an index directory written by :class:`IndexWriter`.

        With ``mmap=True`` (the default) shard postings are served from
        memory-mapped files; ``mmap=False`` loads them fully into RAM.
        """
        directory = os.fspath(directory)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise DatasetError(f"no index manifest found at {manifest_path}")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != FORMAT_NAME:
            raise ValidationError(
                f"{manifest_path} is not a {FORMAT_NAME} manifest"
            )
        if int(manifest.get("version", 0)) > FORMAT_VERSION:
            raise ValidationError(
                f"index format version {manifest.get('version')} is newer than "
                f"this reader (supports <= {FORMAT_VERSION})"
            )

        codebook = Codebook.load(
            os.path.join(directory, str(manifest["codebook_file"]))
        )
        with np.load(
            os.path.join(directory, str(manifest["stats_file"])),
            allow_pickle=False,
        ) as stats:
            idf = np.asarray(stats["idf"], dtype=float)

        shards = [
            IndexShard.open(
                os.path.join(directory, str(entry["file"])),
                int(entry["first_codeword"]),
                int(entry["last_codeword"]),
                mmap=mmap,
            )
            for entry in manifest["shards"]
        ]
        delta_shards = [
            IndexShard.open(
                os.path.join(directory, str(entry["file"])),
                int(entry["first_codeword"]),
                int(entry["last_codeword"]),
                mmap=mmap,
            )
            for entry in manifest.get("delta_shards", [])
        ]
        num_series = int(manifest["num_series"])
        tombstones = np.zeros(num_series, dtype=bool)
        for slot in manifest.get("tombstones", []):
            tombstones[int(slot)] = True
        index = InvertedIndex(
            num_series=num_series,
            num_codewords=int(manifest["num_codewords"]),
            shards=shards,
            idf=idf,
            delta_shards=delta_shards,
            tombstones=tombstones,
        )
        return cls(
            codebook=codebook,
            index=index,
            identifiers=[str(name) for name in manifest["identifiers"]],
        )

    def live_identifiers(self) -> List[str]:
        """Identifiers of the non-tombstoned slots, in slot order."""
        return [
            identifier
            for slot, identifier in enumerate(self.identifiers)
            if not self.index.tombstones[slot]
        ]


__all__ = ["IndexReader", "IndexWriter"]
