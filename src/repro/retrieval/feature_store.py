"""Persistent storage for extracted salient features.

Section 3.4 of the paper points out that salient-feature extraction is a
one-time cost: once the features of a series are extracted they can be
stored and indexed along with the series and reused across every retrieval
or classification task that touches it.  :class:`FeatureStore` implements
that idea: it maps series identifiers to their features, persists them to
a single ``.npz`` archive, and hands pre-extracted features to the
:class:`repro.core.sdtw.SDTW` engine's cache so repeated comparisons skip
extraction entirely.  Each series' features are one
:class:`~repro.core.features.FeatureSet`, the object the cache holds too,
so no comparison stacks them again.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.config import SDTWConfig
from ..core.features import FeatureSet, SalientFeature, extract_salient_features
from ..core.sdtw import SDTW
from ..datasets.base import Dataset
from ..exceptions import DatasetError, ValidationError

# One feature row in the packed matrix:
# position, sigma, scope_start, scope_end, octave, level, amplitude,
# mean_amplitude, dog_value, scale_class_code, descriptor_length,
# descriptor... (rows are zero-padded to the longest descriptor; the
# recorded per-row length restores exact sizes on load).
_FIXED_COLUMNS = 11
_DESC_LENGTH_COLUMN = 10
# Version-1 archives predate the descriptor-length column.
_FIXED_COLUMNS_V1 = 10
_SCALE_CODES = {"fine": 0.0, "medium": 1.0, "rough": 2.0}
_SCALE_NAMES = {0: "fine", 1: "medium", 2: "rough"}

# On-disk archive format written by FeatureStore.save (v2 added the
# per-row descriptor-length column); load() still reads v1 archives.
STORE_FORMAT_VERSION = 2


def _features_to_matrix(features: Sequence[SalientFeature]) -> np.ndarray:
    """Pack a feature list into a dense float matrix (one row per feature).

    Descriptors of mixed lengths are zero-padded to the longest one, but
    each row records its true descriptor length so the round trip is
    exact (zero padding is otherwise indistinguishable from genuine
    trailing-zero descriptor bins).
    """
    if not features:
        return np.zeros((0, _FIXED_COLUMNS))
    descriptor_length = max(f.descriptor.size for f in features)
    matrix = np.zeros((len(features), _FIXED_COLUMNS + descriptor_length))
    for row, feature in enumerate(features):
        matrix[row, 0] = feature.position
        matrix[row, 1] = feature.sigma
        matrix[row, 2] = feature.scope_start
        matrix[row, 3] = feature.scope_end
        matrix[row, 4] = feature.octave
        matrix[row, 5] = feature.level
        matrix[row, 6] = feature.amplitude
        matrix[row, 7] = feature.mean_amplitude
        matrix[row, 8] = feature.dog_value
        matrix[row, 9] = _SCALE_CODES.get(feature.scale_class, 0.0)
        matrix[row, _DESC_LENGTH_COLUMN] = feature.descriptor.size
        matrix[row, _FIXED_COLUMNS: _FIXED_COLUMNS + feature.descriptor.size] = (
            feature.descriptor
        )
    return matrix


def _matrix_to_features(matrix: np.ndarray, version: int = 2) -> List[SalientFeature]:
    """Unpack a dense matrix back into a feature list.

    Version-1 archives did not record per-row descriptor lengths; their
    descriptors are restored padded (the historical behaviour).
    """
    fixed = _FIXED_COLUMNS if version >= 2 else _FIXED_COLUMNS_V1
    features: List[SalientFeature] = []
    for row in np.atleast_2d(matrix):
        if row.size < fixed:
            raise ValidationError("packed feature row is too short")
        descriptor = np.asarray(row[fixed:], dtype=float)
        if version >= 2:
            length = int(row[_DESC_LENGTH_COLUMN])
            if not 0 <= length <= descriptor.size:
                raise ValidationError(
                    f"packed descriptor length {length} is inconsistent with "
                    f"a row of {descriptor.size} descriptor columns"
                )
            descriptor = descriptor[:length]
        features.append(
            SalientFeature(
                position=float(row[0]),
                sigma=float(row[1]),
                scope_start=float(row[2]),
                scope_end=float(row[3]),
                octave=int(row[4]),
                level=int(row[5]),
                amplitude=float(row[6]),
                mean_amplitude=float(row[7]),
                dog_value=float(row[8]),
                scale_class=_SCALE_NAMES.get(int(row[9]), "fine"),
                descriptor=descriptor,
            )
        )
    return features


@dataclass
class FeatureStore:
    """A persistent map from series identifiers to their salient features.

    Attributes
    ----------
    config:
        The extraction configuration the stored features were produced
        with.  Loading a store and querying it with a different descriptor
        length would silently mix incompatible descriptors, so the store
        records the configuration fingerprint and refuses mismatched merges.
    """

    config: SDTWConfig = field(default_factory=SDTWConfig)
    _features: Dict[str, FeatureSet] = field(default_factory=dict)
    _series: Dict[str, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #
    def add_series(
        self,
        identifier: str,
        values: Union[Sequence[float], np.ndarray],
        features: Optional[Sequence[SalientFeature]] = None,
        *,
        extract: bool = True,
    ) -> Sequence[SalientFeature]:
        """Add one series (extracting its features unless they are supplied).

        With ``extract=False`` (and no explicit *features*) only the raw
        series is stored and extraction is deferred until
        :meth:`ensure_features` — consumers whose constraint families
        never read salient features (fixed bands, no index) then skip the
        extraction cost entirely.  :meth:`save` materialises any deferred
        features so persisted archives are always complete.
        """
        if not identifier:
            raise ValidationError("series identifier must be a non-empty string")
        array = np.asarray(values, dtype=float)
        if features is None and not extract:
            self._series[identifier] = array
            self._features.pop(identifier, None)
            return ()
        if features is None:
            features = extract_salient_features(array, self.config)
        stored = FeatureSet.of(features)
        self._features[identifier] = stored
        self._series[identifier] = array
        return stored

    def add_dataset(self, dataset: Dataset) -> None:
        """Add every series of a data set, keyed by its identifier."""
        for index, ts in enumerate(dataset):
            identifier = ts.identifier or f"{dataset.name}-{index:04d}"
            self.add_series(identifier, ts.values)

    def remove_series(self, identifier: str) -> None:
        """Drop one series (and its features) from the store."""
        if identifier not in self._series:
            raise DatasetError(f"no series stored for {identifier!r}")
        del self._series[identifier]
        self._features.pop(identifier, None)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._series

    def identifiers(self) -> List[str]:
        """All stored series identifiers, sorted."""
        return sorted(self._series)

    def has_features(self, identifier: str) -> bool:
        """Whether this series' features have been extracted already."""
        return identifier in self._features

    def ensure_features(self, identifier: str) -> FeatureSet:
        """The features of one series, extracting them if still deferred."""
        if identifier not in self._features:
            values = self.series_of(identifier)
            self._features[identifier] = extract_salient_features(values, self.config)
        return self._features[identifier]

    def features_of(self, identifier: str) -> FeatureSet:
        """The stored features of one series."""
        try:
            return self._features[identifier]
        except KeyError as exc:
            raise DatasetError(f"no features stored for {identifier!r}") from exc

    def series_of(self, identifier: str) -> np.ndarray:
        """The stored raw values of one series."""
        try:
            return self._series[identifier]
        except KeyError as exc:
            raise DatasetError(f"no series stored for {identifier!r}") from exc

    def descriptor_matrix(self, identifier: Optional[str] = None) -> np.ndarray:
        """Batch descriptor export feeding the indexing codebook.

        Returns the stored descriptors stacked into one dense matrix of
        ``config.descriptor.num_bins`` columns — all series (in
        :meth:`identifiers` order) when *identifier* is ``None``, one
        series otherwise.  This is the training input of
        :class:`repro.indexing.Codebook`.
        """
        from ..core.descriptors import descriptor_matrix

        num_bins = self.config.descriptor.num_bins
        if identifier is not None:
            return descriptor_matrix(self.features_of(identifier), num_bins)
        blocks = [
            descriptor_matrix(self._features[name], num_bins)
            for name in self.identifiers()
        ]
        if not blocks:
            return np.zeros((0, num_bins))
        return np.vstack(blocks)

    def warm_engine(self, engine: Optional[SDTW] = None) -> SDTW:
        """Return an :class:`SDTW` engine whose feature cache is pre-seeded.

        The engine will never re-extract features for stored series, which
        reproduces the paper's amortisation argument exactly.
        """
        if engine is None:
            engine = SDTW(self.config)
        for identifier, values in self._series.items():
            if identifier not in self._features:
                continue  # deferred extraction: nothing to seed yet
            key = engine._cache_key(np.ascontiguousarray(values, dtype=float))
            engine._feature_cache[key] = self._features[identifier]
        return engine

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, os.PathLike]) -> None:
        """Persist the store to a single ``.npz`` archive.

        Features whose extraction was deferred (``add_series(...,
        extract=False)``) are materialised here, so archives always hold
        the complete series + features mapping.
        """
        path = os.fspath(path)
        payload: Dict[str, np.ndarray] = {}
        manifest = {
            "identifiers": self.identifiers(),
            "descriptor_bins": self.config.descriptor.num_bins,
            "version": STORE_FORMAT_VERSION,
        }
        for index, identifier in enumerate(manifest["identifiers"]):
            payload[f"series_{index}"] = self._series[identifier]
            payload[f"features_{index}"] = _features_to_matrix(
                self.ensure_features(identifier)
            )
        payload["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(path, **payload)

    @classmethod
    def load(
        cls, path: Union[str, os.PathLike], config: Optional[SDTWConfig] = None
    ) -> "FeatureStore":
        """Load a store previously written by :meth:`save`."""
        path = os.fspath(path)
        if not os.path.exists(path):
            raise DatasetError(f"feature store not found: {path}")
        archive = np.load(path, allow_pickle=False)
        manifest = json.loads(bytes(archive["manifest"]).decode("utf-8"))
        store = cls(config=config if config is not None else SDTWConfig())
        if manifest.get("descriptor_bins") != store.config.descriptor.num_bins:
            raise ValidationError(
                "stored descriptors were extracted with "
                f"{manifest.get('descriptor_bins')} bins but the supplied "
                f"configuration expects {store.config.descriptor.num_bins}"
            )
        version = int(manifest.get("version", 1))
        for index, identifier in enumerate(manifest["identifiers"]):
            values = np.asarray(archive[f"series_{index}"], dtype=float)
            matrix = np.asarray(archive[f"features_{index}"], dtype=float)
            features = _matrix_to_features(matrix, version) if matrix.size else []
            store._series[identifier] = values
            store._features[identifier] = FeatureSet(features)
        return store
