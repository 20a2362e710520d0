import json
import sys

import pytest

import interdomain.cli as cli
from interdomain.bench import CSV_HEADER
from interdomain.config import BACKENDS, VARIANTS
from interdomain.cli import CaseResult, SuiteReport, run


def read_report(out_dir, suite):
    path = out_dir / f"{suite}.json"
    assert path.exists(), f"missing {path}"
    return json.loads(path.read_text())


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["meditate"])
    assert exc.value.code == 2


# A repeated prefix length ran a failing equivalence check whose error was
# within its tolerance, and a repeated batch size reported its cells twice.
@pytest.mark.parametrize("argv, message", [
    (["--batch", "1,zebra"], "not an integer: 'zebra'"),
    (["--batch", "0"], "must be >= 1, got 0"),
    (["--prefix-lens", "-5"], "must be >= 0, got -5"),
    (["--steps", "0"], "must be >= 1, got 0"),
    (["--prefix-lens", "512,512"], "repeated value 512"),
    (["--batch", "1,1"], "repeated value 1"),
    (["--prefix-lens", "8,32,16,32,8"], "repeated value 32"),
], ids=["non-int", "batch-0", "prefix-negative", "steps-0", "prefix-repeated",
        "batch-repeated", "prefix-two-repeats"])
def test_malformed_batch_list_is_a_usage_error(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(["bench", *argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and message in err


@pytest.mark.parametrize("case", ["seed-negative", "config-missing", "config-not-json",
                                  "config-invalid"])
def test_bad_seed_or_config_is_a_usage_error(tmp_path, capsys, case):
    bad_json, invalid = tmp_path / "bad.json", tmp_path / "invalid.json"
    bad_json.write_text("not json")
    invalid.write_text('{"heads": 3}')
    argv = {
        "seed-negative": ["--seed", "-1"],
        "config-missing": ["--config", str(tmp_path / "missing.json")],
        "config-not-json": ["--config", str(bad_json)],
        "config-invalid": ["--config", str(invalid)],
    }[case]
    with pytest.raises(SystemExit) as exc:
        run(["budget", *argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


# An --out naming a file ran the whole suite, printed its table and then
# died with a FileExistsError traceback.
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("suite", ["budget", "bench"])
def test_out_that_is_not_a_directory_is_a_usage_error(tmp_path, capsys, suite, below):
    blocker = tmp_path / "report.txt"
    blocker.write_text("kept")
    out = blocker / "sub" if below else blocker
    with pytest.raises(SystemExit) as exc:
        run([suite, "--out", str(out)])
    assert exc.value.code == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert "usage:" in printed.err and f"--out {out}: " in printed.err
    assert blocker.read_text() == "kept"


def test_budget_passes_and_writes_report(tmp_path, capsys):
    assert run(["budget", "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path, "budget")
    assert report["suite"] == "budget"
    assert report["passed"] is True
    names = [c["name"] for c in report["cases"]]
    assert len(names) == len(set(names))
    out = capsys.readouterr().out
    assert "total_dof" in out
    assert " pass" in out and " fail" not in out


def test_budget_with_config_file(tmp_path, capsys):
    assert run(["budget", "--config", "configs/cfg1p3b.json", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "524,288" in out or "524288" in out


@pytest.mark.parametrize("suite", ["equiv", "gradcheck", "budget", "basis", "bench"])
def test_reports_are_byte_identical(tmp_path, suite):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run([suite, "--seed", "7", "--out", str(a)]) == 0
    assert run([suite, "--seed", "7", "--out", str(b)]) == 0
    outputs = [f"{suite}.json"] + (["bench.csv"] if suite == "bench" else [])
    for name in outputs:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert read_report(a, suite)["seed"] == 7


def test_equiv_checks_query_scans_on_every_backend(tmp_path):
    assert run(["equiv", "--out", str(tmp_path)]) == 0
    cases = {c["name"]: c for c in read_report(tmp_path, "equiv")["cases"]}
    for backend in BACKENDS:
        for name in (f"query_scan_{backend}", f"query_scan_{backend}_x0"):
            assert cases[name]["passed"] and cases[name]["tolerance"] == 1e-8, name


def test_equiv_checks_decode_leaves_its_input_state(tmp_path):
    assert run(["equiv", "--out", str(tmp_path)]) == 0
    cases = {c["name"]: c for c in read_report(tmp_path, "equiv")["cases"]}
    for variant in VARIANTS:
        case = cases[f"prefill_decode_{variant}_input_state"]
        assert case["passed"] and case["error"] == case["tolerance"] == 0.0, variant


def test_gradcheck_passes(tmp_path):
    assert run(["gradcheck", "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path, "gradcheck")
    assert report["passed"] is True
    for case in report["cases"]:
        assert case["error"] <= case["tolerance"]


def test_basis_passes(tmp_path):
    assert run(["basis", "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path, "basis")["passed"] is True


def test_basis_checks_every_scan_against_its_ssm_basis(tmp_path):
    assert run(["basis", "--out", str(tmp_path)]) == 0
    cases = {c["name"]: c for c in read_report(tmp_path, "basis")["cases"]}
    for backend in BACKENDS:
        case = cases[f"ssm_basis_{backend}"]
        assert case["passed"] and case["tolerance"] == 1e-10, backend
    assert not [name for name in cases if name.startswith("legendre_causal")]


def test_bench_writes_grid_and_report(tmp_path):
    code = run(["bench", "--out", str(tmp_path),
                "--batch", "1,2", "--prefix-lens", "8,32", "--steps", "2"])
    assert code == 0
    assert read_report(tmp_path, "bench")["passed"] is True
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert tuple(lines[0].split(",")) == CSV_HEADER
    assert len(lines) == 1 + 3 * 2 * 2  # header + paths x batches x prefixes


def test_failing_suite_exits_one(tmp_path, monkeypatch):
    bad = SuiteReport("equiv", 0, (CaseResult("boom", 1.0, 0.5, False),))
    monkeypatch.setattr(cli, "equiv_suite", lambda config, seed: bad)
    assert run(["equiv", "--out", str(tmp_path)]) == 1
    assert read_report(tmp_path, "equiv")["passed"] is False


def test_suites_refuse_to_report_nothing():
    with pytest.raises(ValueError, match="at least one case"):
        SuiteReport("empty", 0, ())


def test_main_exits_with_status(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["interdomain", "budget", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
