"""Configuration objects for the sDTW pipeline.

All defaults follow Section 4.3 of the paper:

* feature descriptors with 64 bins,
* ``o = floor(log2(N)) - 6`` octaves (at least one), each with ``s = 2``
  levels,
* ε = 0.96 for the relaxed extrema acceptance,
* scope radius of 3σ,
* a 20% lower bound on the adaptive width,
* Sakoe–Chiba baseline widths of 6%, 10% and 20%.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from ..exceptions import ConfigurationError


class _DictRoundTrip:
    """``to_dict`` / ``from_dict`` persistence shared by flat config dataclasses.

    Every configuration object in this module can be serialised to a plain
    JSON-compatible dict and reconstructed exactly; persistent artefacts
    (the index manifest, the Workspace manifest) rely on this round trip to
    record the configuration they were built with.  Nested configurations
    (:class:`SDTWConfig`) override :meth:`from_dict` to rebuild their
    sections.
    """

    def to_dict(self) -> dict:
        """Plain-dict form of the configuration (JSON-serialisable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild a configuration written by :meth:`to_dict`."""
        return cls(**dict(data))


@dataclass(frozen=True)
class ScaleSpaceConfig(_DictRoundTrip):
    """Parameters of the 1-D Gaussian scale-space construction.

    Attributes
    ----------
    num_octaves:
        Number of octaves.  ``None`` (default) selects
        ``max(1, floor(log2(N)) - 6)`` per series, the paper's rule.
    levels_per_octave:
        Number of difference-of-Gaussian levels per octave (paper: 2).
    base_sigma:
        Smoothing σ of the first level of the first octave.
    epsilon:
        Relaxation used when accepting extrema: a point is kept if its
        difference-of-Gaussian magnitude exceeds ``(1 - epsilon')`` times
        each neighbour, where ``epsilon'`` is this value expressed as a
        fraction (the paper quotes 0.96%, i.e. 0.0096).
    scope_radius_sigmas:
        Scope radius in units of σ (paper: 3, covering ~99.73% of the mass
        that contributed to the keypoint).
    contrast_threshold:
        Minimum |DoG| magnitude for a keypoint, as a fraction of the DoG
        value range at that level; filters low-contrast, noise-sensitive
        candidates (SIFT Step 2).
    min_series_length:
        Series shorter than this produce no octaves beyond the first.
    """

    num_octaves: Optional[int] = None
    levels_per_octave: int = 2
    base_sigma: float = 1.0
    epsilon: float = 0.0096
    scope_radius_sigmas: float = 3.0
    contrast_threshold: float = 0.01
    min_series_length: int = 8

    def __post_init__(self) -> None:
        if self.num_octaves is not None and self.num_octaves < 1:
            raise ConfigurationError("num_octaves must be >= 1 when given")
        if self.levels_per_octave < 1:
            raise ConfigurationError("levels_per_octave must be >= 1")
        if self.base_sigma <= 0:
            raise ConfigurationError("base_sigma must be positive")
        if not 0 <= self.epsilon < 1:
            raise ConfigurationError("epsilon must lie in [0, 1)")
        if self.scope_radius_sigmas <= 0:
            raise ConfigurationError("scope_radius_sigmas must be positive")
        if self.contrast_threshold < 0:
            raise ConfigurationError("contrast_threshold must be non-negative")
        if self.min_series_length < 2:
            raise ConfigurationError("min_series_length must be >= 2")

    @property
    def kappa(self) -> float:
        """Multiplicative scale factor between levels, with κ^s = 2."""
        return 2.0 ** (1.0 / self.levels_per_octave)

    def octaves_for_length(self, length: int) -> int:
        """Number of octaves for a series of the given length.

        Follows the paper's ``o = floor(log2(N)) - 6`` rule when
        ``num_octaves`` is not set explicitly, never dropping below 1 and
        never exceeding what the series length can support (each octave
        halves the series; we stop before a series would fall below 4
        samples).
        """
        if length < 2:
            return 1
        supported = max(1, int(math.floor(math.log2(max(length, 2)))) - 1)
        if self.num_octaves is not None:
            requested = self.num_octaves
        else:
            requested = max(1, int(math.floor(math.log2(length))) - 6)
        return max(1, min(requested, supported))


@dataclass(frozen=True)
class DescriptorConfig(_DictRoundTrip):
    """Parameters of the salient-feature descriptor (Section 3.1.2, Step 2).

    A descriptor has ``num_bins = 2a * 2`` entries: ``2a`` temporal cells
    around the keypoint, each holding a 2-bin gradient-magnitude histogram
    (increasing vs. decreasing gradients — the only two "orientations" that
    exist in 1-D).

    Attributes
    ----------
    num_bins:
        Total descriptor length (paper default 64; the descriptor-length
        study sweeps 4 … 128).  Must be an even number >= 4.
    samples_per_cell:
        How many gradient samples each temporal cell aggregates.
    gaussian_weight_factor:
        Width of the Gaussian weighting window, as a multiple of the
        descriptor half-width (SIFT uses 0.5 × the window size).
    normalize:
        Whether to L2-normalise the descriptor (and clip + renormalise),
        which gives the amplitude invariance discussed in Section 3.1.2.
    clip_value:
        Clipping threshold applied after the first normalisation (the SIFT
        0.2 rule) to damp the influence of single large gradients.
    """

    num_bins: int = 64
    samples_per_cell: int = 2
    gaussian_weight_factor: float = 0.5
    normalize: bool = True
    clip_value: float = 0.2

    def __post_init__(self) -> None:
        if self.num_bins < 4 or self.num_bins % 2 != 0:
            raise ConfigurationError("num_bins must be an even integer >= 4")
        if self.samples_per_cell < 1:
            raise ConfigurationError("samples_per_cell must be >= 1")
        if self.gaussian_weight_factor <= 0:
            raise ConfigurationError("gaussian_weight_factor must be positive")
        if not 0 < self.clip_value <= 1:
            raise ConfigurationError("clip_value must lie in (0, 1]")

    @property
    def num_cells(self) -> int:
        """Number of temporal cells (2a in the paper's notation)."""
        return self.num_bins // 2


@dataclass(frozen=True)
class MatchingConfig(_DictRoundTrip):
    """Thresholds for dominant-pair matching and inconsistency pruning.

    Attributes
    ----------
    max_amplitude_difference:
        τ_a — maximum allowed difference between the amplitudes of two
        salient points (measured on z-normalised series).
    max_scale_ratio:
        τ_s — maximum allowed ratio between the scales (σ) of the two
        salient points (always >= 1; the ratio is taken larger/smaller).
    distinctiveness_ratio:
        τ_d (> 1) — the best descriptor match must be at least this factor
        better (smaller distance) than any competing match for the pair to
        be accepted as dominant.
    require_distinctive:
        If False the distinctiveness test is skipped and every nearest
        neighbour satisfying the τ_a / τ_s gates is kept.
    prune_inconsistencies:
        Whether to run the scope-boundary-order pruning of Section 3.2.2.
    """

    max_amplitude_difference: float = 1.0
    max_scale_ratio: float = 4.0
    distinctiveness_ratio: float = 1.2
    require_distinctive: bool = True
    prune_inconsistencies: bool = True

    def __post_init__(self) -> None:
        if self.max_amplitude_difference <= 0:
            raise ConfigurationError("max_amplitude_difference must be positive")
        if self.max_scale_ratio < 1:
            raise ConfigurationError("max_scale_ratio must be >= 1")
        if self.distinctiveness_ratio <= 1:
            raise ConfigurationError("distinctiveness_ratio must be > 1")


@dataclass(frozen=True)
class SDTWConfig(_DictRoundTrip):
    """Top-level configuration of the sDTW pipeline.

    Attributes
    ----------
    scale_space:
        Scale-space construction parameters.
    descriptor:
        Descriptor parameters.
    matching:
        Matching / pruning thresholds.
    width_fraction:
        Fixed band width (fraction of the second series length) used by the
        fixed-width constraints and as the adaptive-width lower bound
        fall-back when no features are found.
    adaptive_width_lower_bound:
        Lower bound on the adaptive width, as a fraction of the second
        series length (paper: 20%).
    adaptive_width_upper_bound:
        Optional upper bound on the adaptive width (fraction); ``None``
        disables the cap.
    symmetric_band:
        If True, the band is the union of the X-driven and Y-driven bands,
        making the constrained distance symmetric (Section 3.3.3).
    pointwise_distance:
        Name of the pointwise element distance (see
        :mod:`repro.dtw.distances`).
    """

    scale_space: ScaleSpaceConfig = field(default_factory=ScaleSpaceConfig)
    descriptor: DescriptorConfig = field(default_factory=DescriptorConfig)
    matching: MatchingConfig = field(default_factory=MatchingConfig)
    width_fraction: float = 0.10
    adaptive_width_lower_bound: float = 0.20
    adaptive_width_upper_bound: Optional[float] = None
    symmetric_band: bool = False
    pointwise_distance: str = "absolute"

    def __post_init__(self) -> None:
        if not 0 < self.width_fraction <= 1:
            raise ConfigurationError("width_fraction must lie in (0, 1]")
        if not 0 <= self.adaptive_width_lower_bound <= 1:
            raise ConfigurationError(
                "adaptive_width_lower_bound must lie in [0, 1]"
            )
        if self.adaptive_width_upper_bound is not None:
            if not 0 < self.adaptive_width_upper_bound <= 1:
                raise ConfigurationError(
                    "adaptive_width_upper_bound must lie in (0, 1]"
                )
            if self.adaptive_width_upper_bound < self.adaptive_width_lower_bound:
                raise ConfigurationError(
                    "adaptive_width_upper_bound must be >= the lower bound"
                )

    def to_dict(self) -> dict:
        """Plain-dict form of the full configuration (JSON-serialisable).

        Used by persistent artefacts (e.g. the indexing manifest) so a
        reader can reconstruct — and verify — the exact extraction
        configuration an index was built with.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SDTWConfig":
        """Rebuild a configuration written by :meth:`to_dict`.

        ``neighbor_radius``, which configurations written before it was
        retired carry, is dropped: the ``ac2,aw`` averaging radius is part
        of the constraint label (:func:`repro.core.bands.parse_constraint_spec`).
        """
        payload = dict(data)
        payload.pop("neighbor_radius", None)
        return cls(
            scale_space=ScaleSpaceConfig(**payload.pop("scale_space", {})),
            descriptor=DescriptorConfig(**payload.pop("descriptor", {})),
            matching=MatchingConfig(**payload.pop("matching", {})),
            **payload,
        )

    def with_descriptor_bins(self, num_bins: int) -> "SDTWConfig":
        """Return a copy with a different descriptor length (Figure 18 sweep)."""
        return replace(self, descriptor=replace(self.descriptor, num_bins=num_bins))

    def with_width_fraction(self, width_fraction: float) -> "SDTWConfig":
        """Return a copy with a different fixed band width."""
        return replace(self, width_fraction=width_fraction)


DEFAULT_CONFIG = SDTWConfig()
"""Module-level default configuration mirroring the paper's settings."""
