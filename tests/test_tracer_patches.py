"""The benchmark tracer's name patches resolve against the program.

``perfbench/tracer.py`` measures the program by wrapping functions and
methods under the names the program binds them to (its ``PATCHES``).  A
rename in the program would otherwise surface only when a traced
benchmark run fails.  The tracer module is loaded from its file; nothing
in it is called or changed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np

from repro.datasets.synthetic import make_gun_like
from repro.dtw import banded
from repro.engine import DistanceEngine, engine

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def resolve(module_path: str, attribute_path: str):
    target = importlib.import_module(module_path)
    for name in attribute_path.split("."):
        target = getattr(target, name)
    return target


def test_every_patch_target_resolves_to_a_callable():
    patches = tracer_patches()
    assert patches
    broken = []
    for module_path, attribute_path, span in patches:
        try:
            target = resolve(module_path, attribute_path)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{module_path}.{attribute_path} ({span}): {exc}")
            continue
        if not callable(target):
            broken.append(f"{module_path}.{attribute_path} ({span}): not callable")
    assert not broken, broken


def test_engine_calls_the_dp_kernels_under_their_patched_names():
    targets = {(module, attribute) for module, attribute, _ in tracer_patches()}
    assert ("repro.engine.engine", "banded_dtw_batch") in targets
    assert ("repro.engine.engine", "banded_dtw") in targets
    assert engine.banded_dtw_batch is banded.banded_dtw_batch
    assert engine.banded_dtw is banded.banded_dtw

    dataset = make_gun_like(num_series=8, seed=5)
    query = np.asarray(dataset[0].values) + 0.05
    for backend, name in (("vectorized", "banded_dtw_batch"), ("serial", "banded_dtw")):
        distance_engine = DistanceEngine("fc,fw", backend=backend)
        distance_engine.add_dataset(dataset)
        with mock.patch.object(engine, name, wraps=getattr(engine, name)) as kernel:
            distance_engine.query(query, k=3)
        assert kernel.called, f"the {backend} backend never called {name}"
