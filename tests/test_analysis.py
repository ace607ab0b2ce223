"""Tests for the Swordfish static analyzer (``repro.analysis``).

Covers every rule against good/bad fixture pairs, suppression
comments, baseline ratchet semantics, the CLI, and — most importantly
— the self-check that the repo itself stays clean against the
committed baseline, plus the two acceptance scenarios from the design:
a new ``SwordfishConfig`` field that skips ``cache_key`` and a bare
``np.random`` call must both fail the analysis.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    Baseline,
    DEFAULT_CONFIG,
    Finding,
    diff_findings,
    main,
    run_analysis,
)

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / ".swordfish-lint-baseline.json"

#: Fixture files live outside the repo's real scope patterns, so widen
#: every scope to "match anything" while keeping the rule policy.
WIDE_CONFIG = replace(
    DEFAULT_CONFIG,
    dtype_scope=("",),
    alias_scope=("",),
    numeric_scope=("",),
    numeric_exclude=(),
    swallow_scope=("",),
    perf_scope=("",),
    async_scope=("",),
    lock_scope=("",),
    lifecycle_scope=("",),
    fork_scope=("",),
)


def analyze(*paths: Path, config: AnalysisConfig = WIDE_CONFIG, **kwargs):
    return run_analysis(list(paths), root=FIXTURES, config=config, **kwargs)


def rules_of(result) -> set[str]:
    return {finding.rule for finding in result.findings}


# ----------------------------------------------------------------------
# Rule fixtures: each bad file fires exactly its rule; each good file
# is completely clean.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rule_id, stem", [
    ("SWD001", "swd001"),
    ("SWD002", "swd002"),
    ("SWD003", "swd003"),
    ("SWD004", "swd004"),
    ("SWD005", "swd005"),
    ("SWD007", "swd007"),
    ("SWD008", "swd008"),
    ("SWD009", "swd009"),
    ("SWD010", "swd010"),
    ("SWD011", "swd011"),
    ("SWD012", "swd012"),
    ("SWD013", "swd013"),
])
def test_bad_fixture_fires_rule(rule_id: str, stem: str):
    result = analyze(FIXTURES / f"{stem}_bad.py")
    assert rules_of(result) == {rule_id}
    assert result.findings, "bad fixture must produce findings"
    for finding in result.findings:
        assert finding.hint, "every finding carries a fix hint"
        assert finding.line > 0 and finding.line_text


@pytest.mark.parametrize("stem", [
    "swd001", "swd002", "swd003", "swd004", "swd005", "swd007", "swd008",
    "swd009", "swd010", "swd011", "swd012", "swd013",
])
def test_good_fixture_is_clean(stem: str):
    result = analyze(FIXTURES / f"{stem}_good.py")
    assert result.findings == []


def test_swd001_counts_every_ambient_site():
    result = analyze(FIXTURES / "swd001_bad.py")
    # np.random.normal, unseeded default_rng, stdlib random.random
    assert len(result.findings) == 3


def test_swd006_bad_package():
    result = analyze(FIXTURES / "exports_bad_pkg")
    assert rules_of(result) == {"SWD006"}
    messages = " ".join(f.message for f in result.findings)
    assert "missing_name" in messages


def test_swd006_good_package():
    result = analyze(FIXTURES / "exports_good_pkg")
    assert result.findings == []


def test_swd007_counts_every_silent_handler():
    result = analyze(FIXTURES / "swd007_bad.py")
    # bare, Exception, BaseException, tuple, loop-continue, docstring-only
    assert len(result.findings) == 6


def test_swd007_scope_is_reliability_and_runtime_only():
    # With the real config the fixture path matches neither scope
    # pattern, so the rule stays silent outside the fault-handling
    # layers it polices.
    result = analyze(FIXTURES / "swd007_bad.py", config=DEFAULT_CONFIG)
    assert "SWD007" not in rules_of(result)


# ----------------------------------------------------------------------
# Concurrency family (SWD009–SWD013): shape of the findings, not just
# presence — the call graph must name the chain, the lock, the leak.
# ----------------------------------------------------------------------

def test_swd009_reports_direct_and_transitive():
    result = analyze(FIXTURES / "swd009_bad.py")
    messages = [finding.message for finding in result.findings]
    assert len(messages) == 2
    assert any("blocks the event loop" in m for m in messages)
    assert any("synchronous call chain" in m and "_flush()" in m
               for m in messages)


def test_swd010_names_the_lock_and_the_attr():
    result = analyze(FIXTURES / "swd010_bad.py")
    assert len(result.findings) == 2
    assert all("self._lock" in finding.message
               for finding in result.findings)
    attrs = {m.split("`")[3] for m in
             (finding.message for finding in result.findings)}
    assert attrs == {"self.total", "self.note"}


def test_swd011_covers_tasks_locals_and_attrs():
    result = analyze(FIXTURES / "swd011_bad.py")
    messages = " | ".join(finding.message for finding in result.findings)
    assert len(result.findings) == 3
    assert "task handle dropped" in messages
    assert "`pool` holds a `ThreadPoolExecutor(...)`" in messages
    assert "`self._pool`" in messages


def test_swd012_covers_order_coroutine_and_thread_context():
    result = analyze(FIXTURES / "swd012_bad.py")
    messages = " | ".join(finding.message for finding in result.findings)
    assert len(result.findings) == 3
    assert "after creating a thread" in messages
    assert "from a coroutine" in messages
    assert "worker-thread context" in messages


def test_swd013_is_error_severity():
    result = analyze(FIXTURES / "swd013_bad.py")
    assert len(result.findings) == 2
    assert {finding.severity for finding in result.findings} == {"error"}
    messages = " | ".join(finding.message for finding in result.findings)
    assert "drops it" in messages and "shields a fresh coroutine" in messages


def test_concurrency_rules_respect_scopes():
    # Under the real config the fixture paths match no concurrency
    # scope, so the whole family stays silent outside src/repro et al.
    for stem in ("swd009", "swd010", "swd011", "swd012", "swd013"):
        result = analyze(FIXTURES / f"{stem}_bad.py", config=DEFAULT_CONFIG)
        assert not rules_of(result) & {
            "SWD009", "SWD010", "SWD011", "SWD012", "SWD013"}


def test_select_and_ignore_filter_rules():
    bad = FIXTURES / "swd001_bad.py"
    assert rules_of(analyze(bad, select=["SWD001"])) == {"SWD001"}
    assert analyze(bad, ignore=["SWD001"]).findings == []


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------

def _write(tmp_path: Path, text: str) -> Path:
    target = tmp_path / "snippet.py"
    target.write_text(text, encoding="utf-8")
    return target


def test_trailing_suppression(tmp_path):
    target = _write(tmp_path, (
        "def f(a, b):\n"
        "    return a / b  # swd-ok: SWD005 -- caller guarantees b != 0\n"
    ))
    result = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    assert result.findings == []
    assert result.suppressed == 1


def test_comment_line_above_suppresses_next_line(tmp_path):
    target = _write(tmp_path, (
        "def f(a, b):\n"
        "    # swd-ok: SWD005 -- caller guarantees b != 0\n"
        "    return a / b\n"
    ))
    result = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    assert result.findings == []
    assert result.suppressed == 1


def test_suppression_for_other_rule_does_not_apply(tmp_path):
    target = _write(tmp_path, (
        "def f(a, b):\n"
        "    return a / b  # swd-ok: SWD001 -- wrong rule id\n"
    ))
    result = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    assert rules_of(result) == {"SWD005"}


def test_file_level_suppression(tmp_path):
    target = _write(tmp_path, (
        "# swd-file-ok: SWD005 -- scratch module, reviewed\n"
        "def f(a, b):\n"
        "    return a / b\n"
        "def g(a, b):\n"
        "    return b / a\n"
    ))
    result = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    assert result.findings == []
    assert result.suppressed == 2


def test_all_keyword_suppresses_everything(tmp_path):
    target = _write(tmp_path, (
        "import numpy as np\n"
        "noise = np.random.normal()  # swd-ok: all -- fixture\n"
    ))
    result = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    assert result.findings == []


# ----------------------------------------------------------------------
# Unused suppressions: a `# swd-ok` that matches no finding is debt
# rot — it fails the run and blocks --write-baseline.
# ----------------------------------------------------------------------

def test_unused_suppression_is_reported(tmp_path):
    target = _write(tmp_path, (
        "def f(a, b):\n"
        "    return a + b  # swd-ok: SWD005 -- no division here anymore\n"
    ))
    result = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    assert result.findings == []
    assert len(result.unused_suppressions) == 1
    entry = result.unused_suppressions[0]
    assert entry.rules == ("SWD005",)
    assert entry.line == 2
    assert "no division" in entry.reason


def test_used_suppression_is_not_reported(tmp_path):
    target = _write(tmp_path, (
        "def f(a, b):\n"
        "    return a / b  # swd-ok: SWD005 -- caller checks b\n"
    ))
    result = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    assert result.suppressed == 1
    assert result.unused_suppressions == []


def test_unused_suppression_fails_cli(tmp_path, capsys):
    target = _write(tmp_path, "VALUE = 1  # swd-ok: SWD008 -- stale\n")
    code = main([str(target), "--no-baseline", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "unused suppressions" in out
    assert "FAILED" in out


def test_write_baseline_refuses_unused_suppressions(tmp_path, capsys):
    target = _write(tmp_path, (
        "import numpy as np\n"
        "x = np.random.normal()\n"
        "y = 1  # swd-ok: SWD005 -- stale excuse\n"
    ))
    code = main([str(target), "--write-baseline", "--root", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "refusing to write baseline" in err
    assert not (tmp_path / ".swordfish-lint-baseline.json").exists()


def test_docstring_swd_ok_text_is_not_a_suppression(tmp_path):
    # Only real COMMENT tokens count: documenting the syntax inside a
    # string literal must neither suppress nor show up as unused.
    target = _write(tmp_path, (
        'DOC = """use `# swd-ok: SWD005 -- like this` to suppress"""\n'
        "def f(a, b):\n"
        "    return a / b\n"
    ))
    result = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    assert rules_of(result) == {"SWD005"}
    assert result.unused_suppressions == []


# ----------------------------------------------------------------------
# Baseline ratchet
# ----------------------------------------------------------------------

def test_fingerprint_ignores_line_numbers():
    a = Finding(rule="SWD005", severity="warning", path="m.py", line=10,
                col=4, message="x", line_text="    return a / b")
    b = Finding(rule="SWD005", severity="warning", path="m.py", line=99,
                col=4, message="x", line_text="    return a / b")
    assert a.fingerprint == b.fingerprint


def test_baseline_roundtrip_and_ratchet(tmp_path):
    target = _write(tmp_path, "def f(a, b):\n    return a / b\n")
    first = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(first.findings, baseline_path).write()

    # Same findings against the baseline: nothing new.
    reloaded = Baseline.load(baseline_path)
    diff = diff_findings(first.findings, reloaded)
    assert not diff.failed
    assert len(diff.baselined) == 1 and not diff.stale

    # A new violation is NOT absorbed by the baseline.
    target.write_text(
        "def f(a, b):\n    return a / b\n"
        "def g(p, q):\n    return p / q\n", encoding="utf-8")
    second = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    diff = diff_findings(second.findings, reloaded)
    assert diff.failed
    assert len(diff.new) == 1 and len(diff.baselined) == 1

    # Fixing the old violation leaves a stale entry to garbage-collect.
    target.write_text(
        "def f(a, b):\n"
        "    if b == 0:\n"
        "        raise ValueError('b')\n"
        "    return a / b\n", encoding="utf-8")
    third = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    diff = diff_findings(third.findings, reloaded)
    assert not diff.failed
    assert len(diff.stale) == 1


def test_identical_lines_get_distinct_fingerprints(tmp_path):
    target = _write(tmp_path, (
        "def f(a, b):\n"
        "    return a / b\n"
        "def g(a, b):\n"
        "    return a / b\n"
    ))
    result = run_analysis([target], root=tmp_path, config=WIDE_CONFIG)
    prints = [finding.fingerprint for finding in result.findings]
    assert len(prints) == 2 and len(set(prints)) == 2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "import numpy as np\nx = np.random.normal()\n")
    assert main([str(bad), "--no-baseline", "--root", str(tmp_path)]) == 1

    assert main([str(bad), "--write-baseline",
                 "--root", str(tmp_path)]) == 0
    assert main([str(bad), "--root", str(tmp_path)]) == 0

    assert main([str(tmp_path / "nope.py"), "--root", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_json_report(tmp_path, capsys):
    bad = _write(tmp_path, "import numpy as np\nx = np.random.normal()\n")
    code = main([str(bad), "--no-baseline", "--format", "json",
                 "--root", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["summary"]["ok"] is False
    assert payload["findings"][0]["rule"] == "SWD001"
    assert payload["findings"][0]["fingerprint"]


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SWD001", "SWD002", "SWD003", "SWD004", "SWD005",
                    "SWD006", "SWD007", "SWD008", "SWD009", "SWD010",
                    "SWD011", "SWD012", "SWD013"):
        assert rule_id in out


def test_cli_sarif_report(tmp_path, capsys):
    bad = _write(tmp_path, "import numpy as np\nx = np.random.normal()\n")
    code = main([str(bad), "--no-baseline", "--format", "sarif",
                 "--root", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "swordfish-analysis"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"SWD001", "SWD009", "SWD013"} <= rule_ids
    entry = run["results"][0]
    assert entry["ruleId"] == "SWD001"
    assert entry["baselineState"] == "new"
    assert entry["partialFingerprints"]["swordfish/v1"]
    region = entry["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2


def test_cli_sarif_baselined_findings_are_unchanged(tmp_path, capsys):
    bad = _write(tmp_path, "import numpy as np\nx = np.random.normal()\n")
    assert main([str(bad), "--write-baseline", "--root", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main([str(bad), "--format", "sarif", "--root", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    states = [entry["baselineState"]
              for entry in payload["runs"][0]["results"]]
    assert states == ["unchanged"]


def test_cli_output_writes_report_to_file(tmp_path, capsys):
    bad = _write(tmp_path, "import numpy as np\nx = np.random.normal()\n")
    out_path = tmp_path / "analysis.sarif"
    code = main([str(bad), "--no-baseline", "--format", "sarif",
                 "--output", str(out_path), "--root", str(tmp_path)])
    summary = capsys.readouterr().out
    assert code == 1
    assert "wrote sarif report" in summary
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["runs"][0]["results"]


def test_cli_strict_stale(tmp_path, capsys):
    clean = _write(tmp_path, "VALUE = 1\n")
    baseline_path = tmp_path / "base.json"
    stale_entry = Finding(rule="SWD005", severity="warning", path="gone.py",
                          line=1, col=0, message="old", line_text="x / y")
    Baseline.from_findings([stale_entry], baseline_path).write()
    args = [str(clean), "--root", str(tmp_path),
            "--baseline", "base.json"]
    assert main(args) == 0
    assert main(args + ["--strict-stale"]) == 1
    capsys.readouterr()


def test_cli_syntax_error_is_a_finding(tmp_path, capsys):
    broken = _write(tmp_path, "def f(:\n")
    code = main([str(broken), "--no-baseline", "--format", "json",
                 "--root", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["findings"][0]["rule"] == "SWD000"


# ----------------------------------------------------------------------
# Self-check: the repo itself stays clean against the committed
# baseline, and the determinism rule holds with no debt at all.
# ----------------------------------------------------------------------

def test_repo_clean_against_committed_baseline(capsys):
    code = main([str(REPO / "src"), str(REPO / "examples"),
                 str(REPO / "benchmarks"), "--root", str(REPO)])
    out = capsys.readouterr().out
    assert code == 0, f"repo has new analyzer violations:\n{out}"


def test_baseline_contains_no_error_severity_debt():
    data = json.loads(BASELINE.read_text(encoding="utf-8"))
    rules = {entry["rule"] for entry in data["findings"]}
    # Determinism (SWD001), config coherence (SWD002), export
    # coherence (SWD006) and coroutine misuse (SWD013) are errors: they
    # must be fixed, never baselined.  examples/ and benchmarks/ are
    # already fully seeded.
    assert not rules & {"SWD000", "SWD001", "SWD002", "SWD006", "SWD013"}


def test_examples_and_benchmarks_have_no_ambient_randomness():
    result = run_analysis([REPO / "examples", REPO / "benchmarks"],
                          root=REPO, select=["SWD001"])
    assert result.findings == []


# ----------------------------------------------------------------------
# Acceptance scenarios
# ----------------------------------------------------------------------

def test_new_config_field_without_cache_key_fails(tmp_path):
    source = (REPO / "src/repro/core/framework.py").read_text("utf-8")
    needle = "    seed: int = 0\n"
    assert needle in source
    mutated = source.replace(
        needle, needle + "    surprise_knob: float = 1.0\n", 1)
    target = tmp_path / "framework.py"
    target.write_text(mutated, encoding="utf-8")
    result = run_analysis([target], root=tmp_path)
    assert any(finding.rule == "SWD002" and "surprise_knob" in finding.message
               for finding in result.findings)


def test_bare_np_random_in_src_fails(tmp_path):
    target = _write(tmp_path, (
        "import numpy as np\n"
        "noise = np.random.normal(0.0, 1.0, 4)\n"
    ))
    assert main([str(target), "--no-baseline", "--root", str(tmp_path)]) == 1
