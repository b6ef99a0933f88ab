"""Per-query and aggregate accounting for the batch distance engine.

:class:`EngineStats` records, for one query (or merged across many), how
much work each stage of the pruning cascade performed and how much it
avoided.  The counters map directly onto the paper's cost model:

* ``cells_filled`` / ``total_cells`` is the paper's hardware-independent
  time-gain measure (Section 4.2): the fraction of DTW grid cells the
  engine actually evaluated.  Pruned candidates contribute their whole
  ``N*M`` grid to ``total_cells`` and nothing to ``cells_filled``, so the
  lower-bound cascade and the locally relevant bands compose in one number.
* ``extract_seconds`` / ``matching_seconds`` / ``dp_seconds`` reproduce the
  Figure 17 execution-time split (tasks (a), (b), (c) of Section 3.4);
  ``bound_seconds`` adds the engine's new stage-0 cost (computing LB_Kim /
  LB_Keogh bounds), which plays the same amortisable role as feature
  extraction.
* :meth:`time_gain` is the paper's relative time-gain criterion evaluated
  against a reference (e.g. the sequential full-DTW scan).

The telemetry layer (:mod:`repro.telemetry`) builds per-query traces and
aggregate Prometheus/JSON metrics directly from these records — stages
are accounted here once and never re-timed upstream.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List


@dataclass(slots=True)
class EngineStats:
    """Work accounting for a batch distance computation.

    Attributes
    ----------
    queries:
        Number of queries covered (1 for per-query stats; merged stats sum).
    candidates:
        Candidate pairs considered after exclusions.
    lb_kim_computed, lb_keogh_computed:
        How many constant-time LB_Kim and O(L) LB_Keogh bounds were
        evaluated.
    pruned_lb_kim, pruned_lb_keogh:
        Candidates discarded by each bound stage without running any DTW.
    dtw_abandoned:
        Refinements started but stopped early because the running row
        minimum exceeded the best-so-far k-th distance.
    dtw_computed:
        Refinements run to completion.
    cells_filled:
        DTW grid cells actually evaluated (including the partial rows of
        abandoned computations).
    total_cells:
        Grid cells a full-DTW scan over every candidate pair would have
        evaluated (``sum of N*M``).
    bound_seconds, extract_seconds, matching_seconds, dp_seconds:
        Wall-clock phase breakdown: lower-bound stage, salient-feature
        extraction (task (a)), feature matching + inconsistency pruning
        (task (b)), and dynamic programming (task (c)).
    elapsed_seconds:
        End-to-end wall-clock time of the batch call.
    """

    queries: int = 0
    candidates: int = 0
    lb_kim_computed: int = 0
    lb_keogh_computed: int = 0
    pruned_lb_kim: int = 0
    pruned_lb_keogh: int = 0
    dtw_abandoned: int = 0
    dtw_computed: int = 0
    cells_filled: int = 0
    total_cells: int = 0
    bound_seconds: float = 0.0
    extract_seconds: float = 0.0
    matching_seconds: float = 0.0
    dp_seconds: float = 0.0
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def pruned(self) -> int:
        """Candidates eliminated by the bound cascade (no DTW started)."""
        return self.pruned_lb_kim + self.pruned_lb_keogh

    @property
    def refined(self) -> int:
        """Candidates whose DTW refinement was started."""
        return self.dtw_computed + self.dtw_abandoned

    @property
    def prune_rate(self) -> float:
        """Fraction of candidates eliminated before any DTW work."""
        if self.candidates == 0:
            return 0.0
        return self.pruned / float(self.candidates)

    @property
    def cell_fraction(self) -> float:
        """Fraction of the full-scan grid work actually performed."""
        if self.total_cells == 0:
            return 0.0
        return self.cells_filled / float(self.total_cells)

    @property
    def cell_gain(self) -> float:
        """The paper's hardware-independent time gain: cells avoided."""
        return 1.0 - self.cell_fraction

    @property
    def compute_seconds(self) -> float:
        """Per-comparison cost (tasks (b) + (c)), matching Figure 17."""
        return self.matching_seconds + self.dp_seconds

    def time_gain(self, reference_seconds: float) -> float:
        """Relative wall-clock gain over a reference scan (Section 4.2)."""
        if reference_seconds <= 0.0:
            return 0.0
        return (reference_seconds - self.elapsed_seconds) / reference_seconds

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def merge(self, other: "EngineStats") -> "EngineStats":
        """Accumulate another stats record into this one (in place)."""
        for field in fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))
        return self

    @classmethod
    def merged(cls, items: List["EngineStats"]) -> "EngineStats":
        """Sum of several stats records.

        ``merged([])`` is the **zero record**: every counter and timer
        is 0 and every derived ratio (``prune_rate``, ``cell_fraction``,
        ``time_gain``) is a well-defined 0.0 rather than a division
        error.  Callers aggregating an empty cascade (no candidates, no
        batches) therefore never need to guard the empty case.
        """
        total = cls()
        for item in items:
            total.merge(item)
        return total

    def to_dict(self) -> dict:
        """JSON-friendly snapshot: raw fields plus the derived ratios."""
        payload = {field.name: getattr(self, field.name) for field in fields(self)}
        payload["pruned"] = self.pruned
        payload["refined"] = self.refined
        payload["prune_rate"] = self.prune_rate
        payload["cell_fraction"] = self.cell_fraction
        payload["cell_gain"] = self.cell_gain
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineStats":
        """Inverse of :meth:`to_dict` (the query-result wire schema).

        Only raw dataclass fields are read back; derived ratios present
        in the payload (``prune_rate``, ``cell_gain``, ...) are ignored
        and recomputed on access, so a tampered or stale payload cannot
        make the accounting inconsistent with itself.  Missing fields
        default to the zero record's values.
        """
        kwargs = {}
        for field in fields(cls):
            if field.name in payload:
                value = payload[field.name]
                kwargs[field.name] = (
                    float(value) if field.name.endswith("_seconds")
                    else int(value)
                )
        return cls(**kwargs)

    def cascade_rows(self) -> List[List[object]]:
        """Rows for a per-stage summary table (used by the CLI)."""
        return [
            ["candidates", self.candidates, ""],
            ["pruned by LB_Kim", self.pruned_lb_kim,
             f"{self.lb_kim_computed} bounds"],
            ["pruned by LB_Keogh", self.pruned_lb_keogh,
             f"{self.lb_keogh_computed} bounds"],
            ["DTW abandoned early", self.dtw_abandoned, ""],
            ["DTW completed", self.dtw_computed, ""],
            ["cells filled", self.cells_filled,
             f"{self.cell_fraction:.1%} of full scan"],
        ]
