"""Tests for the static-analysis framework (``repro.analysis``).

Four layers of coverage:

* fixture corpus — every checker has annotated true positives
  (``# expect[ID]`` comments assert the exact finding set) and true
  negatives (files that must come back clean);
* framework mechanics — suppression comments, baseline round trips,
  stale-baseline detection, selector resolution, parse-error handling;
* zero false positives — the real ``src``/``tests``/``benchmarks``
  tree must lint clean, which is also the merge gate CI enforces;
* acceptance — injecting an unguarded write into the real
  ``Workspace`` class or a post-``__init__`` ``_PreparedSegment``
  mutation into the real engine module must produce findings.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    CHECKER_SET_VERSION,
    PARSE_ERROR,
    all_checkers,
    apply_baseline,
    check_file,
    check_paths,
    check_source,
    doctor_counterparts,
    load_baseline,
    resolve_selection,
    write_baseline,
)
from repro.cli import main
from repro.exceptions import AnalysisError

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

_EXPECT = re.compile(r"expect\[([A-Z0-9]+)\]")

#: Fixture files checked by exact ``# expect[...]`` matching.  The
#: broken-parse fixture is handled separately (its line number varies
#: by Python version).
ANNOTATED_FIXTURES = sorted(
    path for path in FIXTURES.rglob("*.py") if path.name != "broken.py")


def _expected(path: Path) -> Counter:
    expected: Counter = Counter()
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        for match in _EXPECT.finditer(line):
            expected[(match.group(1), lineno)] += 1
    return expected


class TestFixtureCorpus:
    @pytest.mark.parametrize(
        "fixture",
        ANNOTATED_FIXTURES,
        ids=[str(p.relative_to(FIXTURES)) for p in ANNOTATED_FIXTURES])
    def test_exact_findings(self, fixture):
        found = Counter(
            (f.checker, f.line) for f in check_file(fixture))
        assert found == _expected(fixture), (
            f"{fixture.relative_to(FIXTURES)}: findings do not match "
            f"the # expect[...] annotations")

    def test_every_checker_has_a_fixture_positive(self):
        covered = set()
        for fixture in ANNOTATED_FIXTURES:
            covered |= {checker_id for checker_id, _ in _expected(fixture)}
        registered = {entry.id for entry in all_checkers()}
        assert registered <= covered, (
            f"checkers without a fixture true positive: "
            f"{sorted(registered - covered)}")

    def test_negative_fixtures_are_clean(self):
        for name in ("repro/service/locking_negative.py",
                     "repro/engine/immutable_negative.py",
                     "plain/conventions_negative.py"):
            findings = check_file(FIXTURES / name)
            assert findings == [], (name, [f.render() for f in findings])

    def test_parse_error_fixture(self):
        findings = check_file(FIXTURES / "plain" / "broken.py")
        assert len(findings) == 1
        assert findings[0].checker == PARSE_ERROR
        assert "does not parse" in findings[0].message


class TestSuppressions:
    SOURCE = (
        "import time\n"
        "a = time.time()  # repro: noqa[RPR201]\n"
        "b = time.time()  # repro: noqa\n"
        "c = time.time()  # repro: noqa[RPR206]\n"
        "d = time.time()\n"
    )

    def test_matching_and_blanket_suppressions(self):
        findings = check_source(self.SOURCE, "plain/example.py")
        assert [(f.checker, f.line) for f in findings] == [
            ("RPR201", 4),  # suppression names a different checker
            ("RPR201", 5),
        ]

    def test_hash_inside_string_is_not_a_suppression(self):
        source = (
            "import time\n"
            "label = '# repro: noqa[RPR201]'\n"
            "t = time.time()\n"
        )
        findings = check_source(source, "plain/example.py")
        assert [(f.checker, f.line) for f in findings] == [("RPR201", 3)]


class TestBaseline:
    def _findings(self):
        return check_source(
            "import time\nt = time.time()\nu = time.time()\n",
            "plain/example.py")

    def test_round_trip_masks_known_findings(self, tmp_path):
        findings = self._findings()
        assert len(findings) == 2
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        result = apply_baseline(findings, load_baseline(baseline_path))
        assert result.new == ()
        assert result.matched == 2
        assert result.unused == ()
        assert not result.stale

    def test_multiset_matching_gates_duplicates(self, tmp_path):
        findings = self._findings()
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings[:1])
        result = apply_baseline(findings, load_baseline(baseline_path))
        # One occurrence is absorbed; the duplicate still gates.
        assert result.matched == 1
        assert len(result.new) == 1

    def test_unused_entries_are_reported(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, self._findings())
        result = apply_baseline([], load_baseline(baseline_path))
        assert result.matched == 0
        assert len(result.unused) == 1  # keys are line-insensitive
        assert result.unused[0][0] == "RPR201"

    def test_stale_checker_set_detected(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        document = {
            "format": "repro-analysis-baseline",
            "checker_set": CHECKER_SET_VERSION + 1,
            "findings": [],
        }
        baseline_path.write_text(json.dumps(document))
        baseline = load_baseline(baseline_path)
        assert baseline.stale
        assert apply_baseline([], baseline).stale

    def test_malformed_baseline_raises(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text("{\"format\": \"something-else\"}")
        with pytest.raises(AnalysisError):
            load_baseline(baseline_path)

    def test_shipped_baseline_is_empty(self):
        baseline = load_baseline(REPO_ROOT / "analysis-baseline.json")
        assert not baseline.stale
        assert baseline.entries == Counter()


class TestSelection:
    def test_prefix_selects_a_family(self):
        selected = resolve_selection(["RPR1"], None)
        assert [c.id for c in selected] == ["RPR101", "RPR102", "RPR103"]

    def test_ignore_removes_checkers(self):
        remaining = {c.id for c in resolve_selection(None, ["RPR2"])}
        assert remaining == {"RPR101", "RPR102", "RPR103"}

    def test_unknown_selector_raises(self):
        with pytest.raises(AnalysisError):
            resolve_selection(["RPR9"], None)

    def test_scope_keeps_service_checkers_out_of_plain_code(self):
        source = (
            "class C:\n"
            "    def fail(self):\n"
            "        raise WorkspaceError('x')\n"
        )
        assert check_source(source, "repro/service/x.py") != []
        assert check_source(source, "repro/dtw/x.py") == []


class TestRealTree:
    def test_zero_false_positives_over_the_repository(self):
        findings = check_paths([
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tests"),
            str(REPO_ROOT / "benchmarks"),
        ])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_injected_unguarded_workspace_write_is_caught(self):
        path = REPO_ROOT / "src" / "repro" / "service" / "workspace.py"
        source = path.read_text(encoding="utf-8")
        anchor = "    def close(self) -> None:"
        assert anchor in source
        injected = source.replace(anchor, (
            "    def _racy_publish(self, snapshot):\n"
            "        self._serving = snapshot\n"
            "\n" + anchor), 1)
        findings = check_source(injected, "src/repro/service/workspace.py")
        assert any(
            f.checker == "RPR101" and "_serving" in f.message
            for f in findings), [f.render() for f in findings]

    def test_injected_prepared_segment_mutation_is_caught(self):
        path = REPO_ROOT / "src" / "repro" / "engine" / "engine.py"
        source = path.read_text(encoding="utf-8")
        injected = source + (
            "\n\ndef _patch_segment(segment_size, matrix):\n"
            "    segment = _PreparedSegment(segment_size, matrix,\n"
            "                               None, None)\n"
            "    segment.matrix = matrix\n"
            "    return segment\n")
        findings = check_source(injected, "src/repro/engine/engine.py")
        assert any(
            f.checker == "RPR102" and "_PreparedSegment" in f.message
            for f in findings), [f.render() for f in findings]


class TestDoctorCrossLink:
    #: Check names run_doctor registers (see service/doctor.py).
    DOCTOR_CHECKS = {
        "manifest", "config", "store", "index_accounting",
        "index_format", "pq_codes", "caches", "event_log",
        "serving_snapshot", "query_probe", "telemetry_overhead",
    }

    def test_counterparts_name_real_doctor_checks(self):
        for name in doctor_counterparts():
            assert name in self.DOCTOR_CHECKS, name

    def test_lock_family_maps_to_serving_snapshot(self):
        counterparts = doctor_counterparts()
        assert set(counterparts["serving_snapshot"]) == {
            "RPR101", "RPR102", "RPR103"}

    def test_invariants_doc_catalogues_every_checker(self):
        text = (REPO_ROOT / "docs" / "INVARIANTS.md").read_text(
            encoding="utf-8")
        for entry in all_checkers():
            assert entry.id in text, (
                f"{entry.id} missing from docs/INVARIANTS.md")


class TestLintCli:
    def test_clean_tree_exits_zero(self, capsys):
        code = main(["lint",
                     str(REPO_ROOT / "src"),
                     str(REPO_ROOT / "benchmarks")])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_with_text_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        code = main(["lint", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "RPR201" in out

    def test_json_format_reports_checker_set(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        code = main(["lint", str(bad), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["checker_set"] == CHECKER_SET_VERSION
        assert document["new"] == 1
        assert document["findings"][0]["checker"] == "RPR201"

    def test_baseline_masks_and_write_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(bad), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", str(bad),
                     "--baseline", str(baseline)]) == 0
        assert "matched the baseline" in capsys.readouterr().out

    def test_select_and_ignore(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(bad), "--ignore", "RPR201"]) == 0
        capsys.readouterr()
        assert main(["lint", str(bad), "--select", "RPR206"]) == 0

    def test_missing_path_is_an_error(self, capsys):
        assert main(["lint", "definitely/not/here"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_doctor_map_lists_counterparts(self, capsys):
        assert main(["lint", "--doctor-map"]) == 0
        out = capsys.readouterr().out
        assert "serving_snapshot" in out
        assert "RPR101" in out

    def test_version_reports_checker_set(self, capsys):
        assert main(["version"]) == 0
        assert f"analysis checker set v{CHECKER_SET_VERSION}" \
            in capsys.readouterr().out
