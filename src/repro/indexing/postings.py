"""The sharded inverted index: codeword -> (series, weight) postings.

Candidate generation works like text retrieval: every stored series is a
sparse TF-IDF-weighted bag of codewords (L2-normalised), a query becomes
the same kind of bag, and candidates are ranked by the dot product of
the two — accumulated codeword-by-codeword over the postings lists, so
query cost scales with the postings the query's codewords touch rather
than with the collection size.

Postings are grouped into :class:`~repro.indexing.shards.IndexShard`
objects, each covering a contiguous codeword range with roughly equal
postings mass.  Shards are the persistence unit: on disk each one is an
uncompressed ``.npz`` that reopens as memory-mapped arrays, so the
scoring loop below works identically on a freshly built in-memory index
and on an index paged in from disk.

Incremental maintenance (format version 2) follows the classic
LSM/tombstone recipe over *immutable* shard sets:

* :meth:`InvertedIndex.add_series` appends one small **delta shard**
  covering the whole codeword space — O(new features), no refit, no
  rebuild.  Delta postings are weighted with the index's frozen IDF
  table (the usual, documented drift until the next compaction).
* :meth:`InvertedIndex.remove_series` **tombstones** a series slot;
  tombstoned slots are masked out of every score and candidate list but
  their postings stay on disk until compaction.
* :meth:`InvertedIndex.compact` folds base + delta shards minus
  tombstones into a fresh base shard set, recomputing document
  frequencies and TF-IDF weights from the raw per-posting ``counts`` —
  the result is bit-identical to :meth:`InvertedIndex.from_bags` over
  the surviving bags (and therefore to a from-scratch rebuild under the
  same frozen codebook).

Existing shards are never mutated in place: mutators only append to (or
replace) the shard list, so readers holding a reference to an index
snapshot keep scoring a consistent shard set without locks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_int_at_least
from ..exceptions import ValidationError
from .shards import IndexShard

Bag = Tuple[np.ndarray, np.ndarray]


def inverse_document_frequencies(
    document_frequencies: np.ndarray, num_series: int
) -> np.ndarray:
    """Smoothed IDF: ``log(1 + N / df)`` (strictly positive)."""
    df = np.asarray(document_frequencies, dtype=float)
    return np.log1p(num_series / np.maximum(df, 1.0))


def _split_codeword_ranges(
    postings_per_codeword: np.ndarray, num_shards: int
) -> List[Tuple[int, int]]:
    """Partition the codeword space into ranges of ~equal postings mass."""
    num_codewords = postings_per_codeword.size
    num_shards = max(1, min(num_shards, num_codewords))
    cumulative = np.concatenate([[0], np.cumsum(postings_per_codeword)])
    total = float(cumulative[-1])
    boundaries = [0]
    for shard in range(1, num_shards):
        target = total * shard / num_shards
        cut = int(np.searchsorted(cumulative, target, side="left"))
        boundaries.append(min(max(cut, boundaries[-1] + 1), num_codewords))
    boundaries.append(num_codewords)
    ranges = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        if hi > lo:
            ranges.append((lo, hi))
    return ranges or [(0, num_codewords)]


def _csr_for_range(
    codeword_column: np.ndarray, lo: int, hi: int
) -> Tuple[int, int, np.ndarray, np.ndarray]:
    """CSR pieces for one codeword range of a sorted codeword column."""
    start = int(np.searchsorted(codeword_column, lo, side="left"))
    stop = int(np.searchsorted(codeword_column, hi, side="left"))
    local = codeword_column[start:stop]
    unique, first_positions = np.unique(local, return_index=True)
    offsets = np.concatenate([first_positions, [local.size]]).astype(np.int64)
    return start, stop, unique.astype(np.int32), offsets


def _sorted_columns(
    per_series_codewords: Sequence[np.ndarray],
    per_series_payloads: Sequence[Sequence[np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Scatter per-series columns into codeword-major, series-minor order.

    The lexsort is stable, so entries sharing a ``(codeword, series)``
    pair keep their per-series input order — this is what makes a
    compaction's output bit-identical to a fresh build.
    """
    codeword_parts: List[np.ndarray] = []
    series_parts: List[np.ndarray] = []
    payload_parts: List[List[np.ndarray]] = [[] for _ in per_series_payloads[0]] if (
        per_series_codewords and per_series_payloads
    ) else []
    for series_index, codewords in enumerate(per_series_codewords):
        codewords = np.asarray(codewords, dtype=np.int64)
        if not codewords.size:
            continue
        codeword_parts.append(codewords)
        series_parts.append(np.full(codewords.size, series_index, dtype=np.int64))
        for column, payload in enumerate(per_series_payloads[series_index]):
            payload_parts[column].append(payload)
    if not codeword_parts:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            [np.zeros(0) for _ in payload_parts],
        )
    codeword_column = np.concatenate(codeword_parts)
    series_column = np.concatenate(series_parts)
    order = np.lexsort((series_column, codeword_column))
    payloads = [np.concatenate(parts)[order] for parts in payload_parts]
    return codeword_column[order], series_column[order], payloads


class InvertedIndex:
    """TF-IDF scored candidate generation over sharded postings.

    Parameters
    ----------
    num_series:
        Number of series *slots* the index covers (live plus
        tombstoned).  Slots are assigned in insertion order and are
        never reused until :meth:`compact` renumbers them.
    num_codewords:
        Size of the codeword space (the codebook's effective k).
    shards:
        Base postings shards in ascending codeword order.
    idf:
        Inverse document frequency per codeword, ``(num_codewords,)``.
    delta_shards:
        Incremental shards appended by :meth:`add_series`; each covers
        the whole codeword space.
    tombstones:
        Boolean mask of removed slots, ``(num_series,)``.
    """

    def __init__(
        self,
        num_series: int,
        num_codewords: int,
        shards: Sequence[IndexShard],
        idf: np.ndarray,
        *,
        delta_shards: Optional[Sequence[IndexShard]] = None,
        tombstones: Optional[np.ndarray] = None,
    ) -> None:
        self.num_series = check_int_at_least(num_series, 1, "num_series")
        self.num_codewords = check_int_at_least(num_codewords, 1, "num_codewords")
        self.shards = list(shards)
        self.idf = np.asarray(idf, dtype=float)
        if self.idf.shape != (self.num_codewords,):
            raise ValidationError("idf must have one entry per codeword")
        if not self.shards:
            raise ValidationError("an inverted index needs at least one shard")
        covered = self.shards[0].first_codeword
        for shard in self.shards:
            if shard.first_codeword != covered:
                raise ValidationError("shards must cover contiguous codeword ranges")
            covered = shard.last_codeword
        if self.shards[0].first_codeword != 0 or covered != self.num_codewords:
            raise ValidationError("shards must cover the whole codeword space")
        self.delta_shards = list(delta_shards) if delta_shards is not None else []
        for shard in self.delta_shards:
            if shard.first_codeword != 0 or shard.last_codeword != self.num_codewords:
                raise ValidationError(
                    "delta shards must cover the whole codeword space"
                )
        if tombstones is None:
            self.tombstones = np.zeros(self.num_series, dtype=bool)
        else:
            self.tombstones = np.asarray(tombstones, dtype=bool).copy()
            if self.tombstones.shape != (self.num_series,):
                raise ValidationError("tombstones must have one entry per slot")
        self._shard_starts = np.array(
            [shard.first_codeword for shard in self.shards], dtype=int
        )
        # Decoded-postings page cache capacity (per shard); propagated to
        # clones so delta shards appended after a clone inherit it.
        self._postings_cache_capacity = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_bags(
        cls,
        bags: Sequence[Bag],
        num_codewords: int,
        *,
        num_shards: int = 1,
    ) -> "InvertedIndex":
        """Build an in-memory index from per-series bags of codewords.

        Each bag is ``(codewords, counts)`` as produced by
        :meth:`repro.indexing.codebook.Codebook.bag`.  Term frequencies
        are IDF-weighted and L2-normalised per series before being
        scattered into the postings lists, so posting weights can be
        dot-producted directly; the raw counts are stored alongside so a
        later compaction can recompute the weights exactly.
        """
        num_series = len(bags)
        if num_series == 0:
            raise ValidationError("cannot build an index over zero series")
        num_codewords = check_int_at_least(num_codewords, 1, "num_codewords")
        document_frequency = np.zeros(num_codewords)
        for codewords, counts in bags:
            codewords = np.asarray(codewords)
            if codewords.size and (
                codewords.min() < 0 or codewords.max() >= num_codewords
            ):
                raise ValidationError("bag codeword id outside the codebook range")
            document_frequency[codewords] += 1.0
        idf = inverse_document_frequencies(document_frequency, num_series)

        # Normalised per-series weights, scattered codeword-major.
        per_series_codewords: List[np.ndarray] = []
        per_series_payloads: List[List[np.ndarray]] = []
        for codewords, counts in bags:
            codewords = np.asarray(codewords, dtype=np.int64)
            counts = np.asarray(counts, dtype=np.float64)
            weights = counts * idf[codewords]
            norm = float(np.linalg.norm(weights))
            if norm > 0.0:
                weights = weights / norm
            per_series_codewords.append(codewords)
            per_series_payloads.append([weights.astype(np.float32), counts])
        codeword_column, series_column, (weight_column, count_column) = (
            _sorted_columns(per_series_codewords, per_series_payloads)
        )

        postings_per_codeword = np.bincount(
            codeword_column, minlength=num_codewords
        )
        shards = []
        for lo, hi in _split_codeword_ranges(postings_per_codeword, num_shards):
            start, stop, unique, offsets = _csr_for_range(codeword_column, lo, hi)
            shards.append(
                IndexShard(
                    first_codeword=int(lo),
                    last_codeword=int(hi),
                    codeword_ids=unique,
                    offsets=offsets,
                    series=series_column[start:stop].astype(np.int32),
                    weights=weight_column[start:stop],
                    counts=count_column[start:stop],
                )
            )
        return cls(
            num_series=num_series,
            num_codewords=num_codewords,
            shards=shards,
            idf=idf,
        )

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    @property
    def num_live(self) -> int:
        """Series slots that have not been tombstoned."""
        return int(self.num_series - self.tombstones.sum())

    @property
    def num_delta_shards(self) -> int:
        return len(self.delta_shards)

    @property
    def num_tombstones(self) -> int:
        return int(self.tombstones.sum())

    @property
    def supports_incremental(self) -> bool:
        """Whether every shard carries the raw counts compaction needs."""
        return all(s.has_counts for s in self.shards) and all(
            s.has_counts for s in self.delta_shards
        )

    def clone(self) -> "InvertedIndex":
        """A copy sharing the (immutable) shard objects.

        Mutating the clone via :meth:`add_series` / :meth:`remove_series`
        never affects the original: shard payload arrays are never
        written in place, only the clone's shard list and tombstone mask
        change.  This is how serving snapshots stay lock-free while a
        writer prepares the next index state.
        """
        clone = InvertedIndex(
            num_series=self.num_series,
            num_codewords=self.num_codewords,
            shards=self.shards,
            idf=self.idf,
            delta_shards=self.delta_shards,
            tombstones=self.tombstones,
        )
        clone._postings_cache_capacity = self._postings_cache_capacity
        return clone

    def enable_postings_cache(self, capacity: int) -> None:
        """Enable the decoded-postings page cache on every shard.

        *capacity* is the number of hot codeword pages each shard keeps
        (``<= 0`` disables).  Shards are shared structurally across
        :meth:`clone` copies and serving snapshots, so pages warmed by
        one snapshot stay hot for the next — the payload arrays are
        immutable, which is what makes the sharing safe.  Delta shards
        appended later by :meth:`add_series` inherit the capacity.
        """
        self._postings_cache_capacity = max(0, int(capacity))
        for shard in list(self.shards) + list(self.delta_shards):
            shard.enable_postings_cache(self._postings_cache_capacity)

    def postings_cache_stats(self) -> dict:
        """Aggregate postings-page cache hit/miss tallies across shards.

        Counts accumulate over shard-object lifetime; because shards are
        shared structurally across clones and serving snapshots, the
        tallies survive snapshot derivations.  Read by the telemetry
        export (``repro_postings_cache_*`` gauges) and by per-query
        traces as a before/after delta.
        """
        hits = 0
        misses = 0
        for shard in list(self.shards) + list(self.delta_shards):
            hits += shard.postings_cache_hits
            misses += shard.postings_cache_misses
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else 0.0,
        }

    def add_series(self, bag: Bag) -> int:
        """Append one series as a delta shard; returns its new slot id.

        Cost is O(bag size): the new postings are weighted with the
        index's *frozen* IDF table (document frequencies drift until the
        next :meth:`compact`) and wrapped into one immutable delta shard
        covering the whole codeword space.  Existing shards are not
        touched.
        """
        slot = self.num_series
        codewords = np.asarray(bag[0], dtype=np.int64)
        counts = np.asarray(bag[1], dtype=np.float64)
        if codewords.size and (
            codewords.min() < 0 or codewords.max() >= self.num_codewords
        ):
            raise ValidationError("bag codeword id outside the codebook range")
        if codewords.size and np.any(np.diff(codewords) <= 0):
            raise ValidationError("bag codewords must be sorted and unique")
        weights = counts * self.idf[codewords]
        norm = float(np.linalg.norm(weights))
        if norm > 0.0:
            weights = weights / norm
        if codewords.size:
            delta = IndexShard(
                first_codeword=0,
                last_codeword=self.num_codewords,
                codeword_ids=codewords.astype(np.int32),
                offsets=np.arange(codewords.size + 1, dtype=np.int64),
                series=np.full(codewords.size, slot, dtype=np.int32),
                weights=weights.astype(np.float32),
                counts=counts,
            )
            if self._postings_cache_capacity:
                delta.enable_postings_cache(self._postings_cache_capacity)
            self.delta_shards.append(delta)
        self.num_series = slot + 1
        self.tombstones = np.append(self.tombstones, False)
        return slot

    def remove_series(self, slot: int) -> None:
        """Tombstone one series slot (postings removed at compaction)."""
        slot = int(slot)
        if not 0 <= slot < self.num_series:
            raise ValidationError(
                f"slot {slot} is outside this index's {self.num_series} slots"
            )
        tombstones = self.tombstones.copy()
        tombstones[slot] = True
        self.tombstones = tombstones

    def _gather_columns(self):
        """All postings columns (codeword, series, raw count) across base
        + delta shards, in shard order."""
        codeword_parts: List[np.ndarray] = []
        series_parts: List[np.ndarray] = []
        count_parts: List[np.ndarray] = []
        for shard in list(self.shards) + list(self.delta_shards):
            if not shard.has_counts:
                raise ValidationError(
                    "cannot compact an index whose shards were written "
                    "without raw counts (format version 1); rebuild it"
                )
            lengths = np.diff(np.asarray(shard.offsets, dtype=np.int64))
            codeword_parts.append(
                np.repeat(np.asarray(shard.codeword_ids, dtype=np.int64), lengths)
            )
            series_parts.append(np.asarray(shard.series, dtype=np.int64))
            count_parts.append(np.asarray(shard.counts, dtype=np.float64))
        return (
            np.concatenate(codeword_parts),
            np.concatenate(series_parts),
            np.concatenate(count_parts),
        )

    def compact(self, *, num_shards: int = 1) -> Tuple["InvertedIndex", np.ndarray]:
        """Merge base + delta shards, dropping tombstoned series.

        Returns ``(compacted, slot_map)``: a fresh index over the live
        series renumbered ``0..num_live-1`` in slot order, and the
        old-slot -> new-slot mapping (``-1`` for tombstoned slots).
        Document frequencies and TF-IDF weights are recomputed from the
        stored raw counts, so the result is **bit-identical** to
        :meth:`from_bags` over the surviving bags — i.e. to a
        from-scratch rebuild with the same codebook.
        """
        live = ~self.tombstones
        if not live.any():
            raise ValidationError("cannot compact an index with every slot removed")
        slot_map = np.full(self.num_series, -1, dtype=np.int64)
        slot_map[live] = np.arange(int(live.sum()), dtype=np.int64)

        codewords, series, counts = self._gather_columns()
        keep = live[series] if series.size else np.zeros(0, dtype=bool)
        codewords, series, counts = codewords[keep], series[keep], counts[keep]
        # Per-series bags, codewords ascending — exactly what the
        # original builds passed to from_bags.
        order = np.lexsort((codewords, series))
        codewords, series, counts = (
            codewords[order], slot_map[series[order]], counts[order],
        )
        num_live = int(live.sum())
        bags: List[Bag] = [
            (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
            for _ in range(num_live)
        ]
        if series.size:
            boundaries = np.flatnonzero(np.diff(series)) + 1
            for block_series, block_codewords, block_counts in zip(
                np.split(series, boundaries),
                np.split(codewords, boundaries),
                np.split(counts, boundaries),
            ):
                bags[int(block_series[0])] = (block_codewords, block_counts)

        compacted = InvertedIndex.from_bags(
            bags, self.num_codewords, num_shards=num_shards
        )
        return compacted, slot_map

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #
    @property
    def num_postings(self) -> int:
        return sum(shard.num_postings for shard in self.shards) + sum(
            shard.num_postings for shard in self.delta_shards
        )

    @property
    def is_memory_mapped(self) -> bool:
        return all(shard.is_memory_mapped for shard in self.shards)

    def query_weights(self, bag: Bag) -> Tuple[np.ndarray, np.ndarray]:
        """IDF-weighted, L2-normalised query bag ``(codewords, weights)``."""
        codewords = np.asarray(bag[0], dtype=np.int64)
        counts = np.asarray(bag[1], dtype=float)
        if codewords.size and (
            codewords.min() < 0 or codewords.max() >= self.num_codewords
        ):
            raise ValidationError("query codeword id outside the codebook range")
        weights = counts * self.idf[codewords]
        norm = float(np.linalg.norm(weights))
        if norm > 0.0:
            weights = weights / norm
        return codewords, weights

    def scores(self, bag: Bag) -> Tuple[np.ndarray, np.ndarray]:
        """Cosine scores of every stored series against a query bag.

        Returns ``(scores, touched)``: the score vector and a boolean
        mask of series that share at least one codeword with the query
        (series outside the mask were never visited — that is the
        sublinear part).  Tombstoned slots always score zero and are
        never marked touched.
        """
        codewords, weights = self.query_weights(bag)
        scores = np.zeros(self.num_series)
        touched = np.zeros(self.num_series, dtype=bool)
        if not codewords.size:
            return scores, touched
        shard_of = np.searchsorted(self._shard_starts, codewords, side="right") - 1
        for position in range(codewords.size):
            shard = self.shards[int(shard_of[position])]
            series, posting_weights = shard.scored_postings_of(
                int(codewords[position])
            )
            if not series.size:
                continue
            # Series indices are unique within one codeword's postings
            # list (one posting per (codeword, series)), so plain fancy
            # indexing accumulates correctly — and avoids np.add.at's
            # slow unbuffered path on the hot stage-1 loop.  float64
            # accumulation over float32 postings, in stored order, keeps
            # in-memory and reopened indexes scoring bit-identically
            # (scored_postings_of memoises exactly the float64 widening
            # this loop used to do inline).
            scores[series] += weights[position] * posting_weights
            touched[series] = True
        for shard in self.delta_shards:
            for position in range(codewords.size):
                series, posting_weights = shard.scored_postings_of(
                    int(codewords[position])
                )
                if not series.size:
                    continue
                scores[series] += weights[position] * posting_weights
                touched[series] = True
        if self.num_tombstones:
            scores[self.tombstones] = 0.0
            touched[self.tombstones] = False
        return scores, touched

    def candidates(self, bag: Bag, limit: Optional[int] = None) -> np.ndarray:
        """Ranked candidate series indices for a query bag.

        Series sharing codewords with the query come first, by descending
        score with ascending index as the deterministic tie-break; when
        *limit* exceeds the number of scored series the remaining *live*
        indices follow in ascending order, so ``limit >= num_live``
        always degrades to the full live collection (the exactness
        escape hatch).  Tombstoned slots are never returned.
        """
        if limit is None:
            limit = self.num_series
        limit = check_int_at_least(limit, 1, "limit")
        scores, touched = self.scores(bag)
        scored = np.nonzero(touched)[0]
        ranked = scored[np.lexsort((scored, -scores[scored]))]
        if ranked.size >= limit:
            return ranked[:limit]
        rest = np.nonzero(~touched & ~self.tombstones)[0]
        return np.concatenate([ranked, rest[: limit - ranked.size]])


__all__ = ["InvertedIndex", "inverse_document_frequencies"]
