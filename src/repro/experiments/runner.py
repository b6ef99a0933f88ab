"""Shared experiment infrastructure.

The evaluation experiments all follow the same pattern: pick a data set
(or a subset of it, to keep runtimes manageable), build the full-DTW
reference distance index and one constrained index per algorithm, and then
derive accuracy/error/time-gain figures.  This module provides that shared
machinery plus the canonical algorithm roster of Section 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..core.config import SDTWConfig
from ..core.sdtw import SDTW
from ..datasets.base import Dataset
from ..datasets.registry import load_dataset
from ..exceptions import ExperimentError
from ..retrieval.evaluation import EvaluationResult, evaluate_constraint
from ..retrieval.index import PairwiseDistanceMatrix, compute_distance_index
from ..utils.rng import rng_from_seed
from ..utils.tables import format_table, table_to_csv


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm configuration evaluated by the experiments.

    Attributes
    ----------
    label:
        Display label used in tables (matches the paper's legend, e.g.
        ``"(ac,fw) 10%"``).
    constraint:
        Constraint family passed to the sDTW engine (``"full"``,
        ``"fc,fw"``, ``"fc,aw"``, ``"ac,fw"``, ``"ac,aw"``, ``"ac2,aw"``).
    width_fraction:
        Fixed band width (fraction of the series length) for the
        fixed-width variants; ignored by the adaptive-width variants.
    """

    label: str
    constraint: str
    width_fraction: float = 0.10

    def make_config(self, base: Optional[SDTWConfig] = None) -> SDTWConfig:
        """Derive the :class:`SDTWConfig` for this algorithm from a base config."""
        config = base if base is not None else SDTWConfig()
        return replace(config, width_fraction=self.width_fraction)


def default_algorithms(include_full: bool = False) -> List[AlgorithmSpec]:
    """The algorithm roster of Section 4.3.

    Parameters
    ----------
    include_full:
        Whether to prepend the full (optimal) DTW; the evaluation functions
        treat the full DTW as the reference, so it is usually excluded from
        the per-algorithm list.
    """
    algorithms = [
        AlgorithmSpec("(fc,fw) 6%", "fc,fw", 0.06),
        AlgorithmSpec("(fc,fw) 10%", "fc,fw", 0.10),
        AlgorithmSpec("(fc,fw) 20%", "fc,fw", 0.20),
        AlgorithmSpec("(fc,aw)", "fc,aw", 0.20),
        AlgorithmSpec("(ac,fw) 6%", "ac,fw", 0.06),
        AlgorithmSpec("(ac,fw) 10%", "ac,fw", 0.10),
        AlgorithmSpec("(ac,fw) 20%", "ac,fw", 0.20),
        AlgorithmSpec("(ac,aw)", "ac,aw", 0.10),
        AlgorithmSpec("(ac2,aw)", "ac2,aw", 0.10),
    ]
    if include_full:
        algorithms.insert(0, AlgorithmSpec("dtw", "full", 1.0))
    return algorithms


@dataclass
class DatasetEvaluation:
    """All distance indexes and evaluations for one data set.

    Attributes
    ----------
    dataset:
        The (possibly subsampled) data set the evaluation ran on.
    reference:
        The full-DTW distance index.
    indexes:
        Constrained distance index per algorithm label.
    evaluations:
        :class:`EvaluationResult` per algorithm label.
    """

    dataset: Dataset
    reference: PairwiseDistanceMatrix
    indexes: Dict[str, PairwiseDistanceMatrix] = field(default_factory=dict)
    evaluations: Dict[str, EvaluationResult] = field(default_factory=dict)

    @property
    def labels(self) -> List[Optional[int]]:
        """Class labels of the evaluated series."""
        return self.dataset.labels


@dataclass
class ExperimentResult:
    """A reproduced table/figure: headers + rows + provenance.

    Attributes
    ----------
    experiment:
        Experiment identifier (e.g. ``"fig13"``).
    title:
        Human-readable title including the paper artefact it reproduces.
    headers:
        Column headers.
    rows:
        Table rows (lists of strings/numbers).
    metadata:
        Parameters the experiment ran with (data-set sizes, seed, k, …).
    """

    experiment: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    metadata: Dict[str, object] = field(default_factory=dict)

    def to_text(self, float_format: str = ".4f") -> str:
        """Render the result as an aligned monospaced table."""
        return format_table(self.headers, self.rows, float_format=float_format,
                            title=self.title)

    def to_csv(self, float_format: str = ".6f") -> str:
        """Render the result as CSV."""
        return table_to_csv(self.headers, self.rows, float_format=float_format)

    def row_dict(self, key_column: int = 0) -> Dict[object, List[object]]:
        """Index the rows by the value of one column (default: the first)."""
        return {row[key_column]: row for row in self.rows}


def load_experiment_dataset(
    name: str,
    num_series: Optional[int] = None,
    seed: int = 7,
) -> Dataset:
    """Load a data set for an experiment, optionally subsampling it.

    Subsampling is stratified implicitly by taking a random subset, which
    for the synthetic collections (balanced classes, deterministic seeds)
    preserves the class structure well enough for relative comparisons.
    """
    dataset = load_dataset(name, seed=seed)
    if num_series is not None and num_series < len(dataset):
        rng = rng_from_seed(seed)
        dataset = dataset.sample(num_series, rng, name=f"{dataset.name}-n{num_series}")
    dataset.validate()
    return dataset


def evaluate_dataset(
    dataset: Dataset,
    algorithms: Optional[Sequence[AlgorithmSpec]] = None,
    *,
    base_config: Optional[SDTWConfig] = None,
    ks: Sequence[int] = (5, 10),
    symmetrize: bool = False,
) -> DatasetEvaluation:
    """Build the reference and constrained indexes and evaluate every algorithm.

    Parameters
    ----------
    dataset:
        The data set (use :func:`load_experiment_dataset` to subsample).
    algorithms:
        Algorithm roster; defaults to :func:`default_algorithms`.
    base_config:
        Base sDTW configuration shared by all algorithms (each algorithm
        only overrides its width fraction).
    ks:
        k values for the retrieval/classification criteria.
    symmetrize:
        Whether constrained distances are averaged over both orientations.
    """
    if len(dataset) < 2:
        raise ExperimentError("experiments need at least two series")
    if algorithms is None:
        algorithms = default_algorithms()
    values = dataset.values_list()

    reference = compute_distance_index(values, "full")
    evaluation = DatasetEvaluation(dataset=dataset, reference=reference)

    for spec in algorithms:
        config = spec.make_config(base_config)
        engine = SDTW(config)
        index = compute_distance_index(
            values, spec.constraint, engine, symmetrize=symmetrize
        )
        index = replace_label(index, spec.label)
        evaluation.indexes[spec.label] = index
        evaluation.evaluations[spec.label] = evaluate_constraint(
            reference, index, labels=dataset.labels, ks=ks
        )
    return evaluation


def replace_label(index: PairwiseDistanceMatrix, label: str) -> PairwiseDistanceMatrix:
    """Return a copy of a distance index relabelled with an algorithm label."""
    return PairwiseDistanceMatrix(
        constraint=label,
        distances=index.distances,
        matching_seconds=index.matching_seconds,
        dp_seconds=index.dp_seconds,
        extract_seconds=index.extract_seconds,
        cells_filled=index.cells_filled,
        total_cells=index.total_cells,
    )
