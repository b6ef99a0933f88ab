"""Helpers shared by the benchmark modules (result saving, summarising,
merging metrics into a shared JSON artifact)."""

from __future__ import annotations

import json
import os
from typing import Dict

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_result(results_dir: str, name: str, result) -> str:
    """Write an ExperimentResult's text and CSV renderings to disk."""
    text_path = os.path.join(results_dir, f"{name}.txt")
    with open(text_path, "w", encoding="utf-8") as handle:
        handle.write(result.to_text())
        handle.write("\n")
    csv_path = os.path.join(results_dir, f"{name}.csv")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(result.to_csv())
    return text_path


def summarise_rows(result, value_column: int, label_column: int = 1) -> Dict[str, float]:
    """Collapse an experiment result to {algorithm-label: value} pairs."""
    summary: Dict[str, float] = {}
    for row in result.rows:
        label = str(row[label_column])
        value = row[value_column]
        if isinstance(value, (int, float)):
            summary[label] = round(float(value), 4)
    return summary


def merge_json_section(path: str, section: str, metrics: Dict[str, object]) -> None:
    """Write *metrics* as the *section* key of the JSON object at *path*.

    Every other section already in the file is kept, so the perf guards
    can run in any order against one artifact (``BENCH_ci.json``).  A
    missing or unparsable file, or one whose top level is not an object,
    starts from an empty object.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload[section] = metrics
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
