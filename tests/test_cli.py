import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from detkit.cli import main
from detkit.harness import CaseSpec, run_case

ROOT = Path(__file__).resolve().parent.parent


def test_verify_minors_human(capsys):
    code = main(["verify", "minors", "--m", "3", "--n", "3", "--t", "2",
                 "--R", "1", "--r", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "EQUAL" in out
    assert "component minors(2)" in out
    assert "ms]" in out


def test_verify_minors_json(capsys):
    code = main(["verify", "minors", "--m", "3", "--n", "3", "--t", "2",
                 "--R", "1", "--r", "1", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "minors-m3-n3-t2-R1-r1"
    assert doc["verdict"] == "EQUAL"
    assert doc["params"]["R"] == [1]
    assert "millis" in doc


def test_case_id_override(capsys):
    code = main(["verify", "minors", "--m", "2", "--n", "2", "--t", "2",
                 "--case", "tiny", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["case"] == "tiny"


def test_verify_failure_exit_code(capsys):
    code = main(["verify", "pfaffian", "--n", "5", "--t", "4",
                 "--R", "2", "--r", "2"])
    assert code == 1
    assert "NOT_EQUAL" in capsys.readouterr().out


def test_config_error_exit_code(capsys):
    code = main(["heights", "--n", "4", "--t", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_bad_int_list_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "minors", "--m", "2", "--n", "2", "--t", "1",
              "--R", "one"])
    assert exc.value.code == 2


def test_truncation_command(capsys):
    code = main(["truncation", "--kind", "generic", "--m", "2", "--n", "3",
                 "--t", "2", "--C", "1", "--p", "1", "--q", "2", "--d", "3"])
    assert code == 0
    assert "EQUAL" in capsys.readouterr().out


def test_irredundancy_command(capsys):
    code = main(["irredundancy", "--kind", "minors", "--m", "4", "--n", "3",
                 "--t", "2", "--R", "2", "--r", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "irredundant" in out
    assert "witness" in out


def test_heights_command(capsys):
    code = main(["heights", "--n", "5", "--t", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "height 3" in out
    code = main(["heights", "--n", "8", "--t", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "EQUAL" in out and "height 15" in out


def test_asl_command(capsys):
    code = main(["asl-check", "--m", "2", "--n", "2", "--d", "2"])
    assert code == 0
    assert "EQUAL" in capsys.readouterr().out


def test_suite_roundtrip(tmp_path, capsys):
    config = tmp_path / "cases.json"
    config.write_text(json.dumps({"cases": [
        {"case": "a", "m": 2, "n": 2, "t": 2},
        {"case": "b", "check": "heights", "kind": "skew", "n": 4, "t": 4},
    ]}))
    out_path = tmp_path / "report.json"
    code = main(["suite", str(config), "--out", str(out_path), "--no-timing"])
    assert code == 0
    assert "suite: 2 cases, 2 equal" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["ok"] is True
    assert "millis" not in doc["cases"][0]

    first = out_path.read_text()
    code = main(["suite", str(config), "--out", str(out_path), "--no-timing"])
    assert code == 0
    capsys.readouterr()
    assert out_path.read_text() == first


def test_suite_stdout_and_failure(tmp_path, capsys):
    config = tmp_path / "cases.json"
    config.write_text(json.dumps({"cases": [
        {"case": "bad", "m": 2, "n": 2, "t": 2, "R": [1], "r": [1],
         "mutate": "drop-generator"},
    ]}))
    code = main(["suite", str(config)])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["summary"]["not_equal"] == 1


def test_suite_bad_config(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{oops")
    code = main(["suite", str(config)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_suite_budget_override(tmp_path, capsys):
    config = tmp_path / "cases.json"
    config.write_text(json.dumps({"cases": [
        {"case": "slow", "m": 3, "n": 4, "t": 2, "R": [2], "r": [1]},
    ]}))
    code = main(["suite", str(config), "--budget-sec", "0.000001"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["cases"][0]["verdict"] == "SKIPPED"
    assert doc["cases"][0]["reason"] == "budget exceeded"

def test_suite_output_matches_golden(capsys):
    # the golden file is the recorded report of the shipped suite; re-record
    # it only together with an intended report change
    code = main(["suite", str(ROOT / "suites" / "acceptance.json"), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    golden = ROOT / "tests" / "golden" / "acceptance-no-timing.json"
    assert out.encode("utf-8") == golden.read_bytes()


def test_suite_output_matches_golden_under_optimize():
    # python -O strips asserts; no check the reports rely on may be one
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "detkit.cli", "suite",
         str(ROOT / "suites" / "acceptance.json"), "--no-timing"],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "golden" / "acceptance-no-timing.json"
    assert proc.stdout == golden.read_bytes()


@pytest.mark.parametrize("argv, expected", [
    (["heights", "--n", "4", "--t", "2"], 0),
    (["verify", "pfaffian", "--n", "5", "--t", "4", "--R", "2", "--r", "2"], 1),
])
def test_closed_stdout_keeps_exit_code(argv, expected):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "detkit.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == expected
    assert proc.stderr == b""


@pytest.mark.parametrize("doc", [
    {"cases": [{"case": "a", "m": "3", "n": 3, "t": 2}]},
    {"cases": [{"case": "a", "m": 3, "n": 3, "t": 2, "field": 5}]},
    {"budget_sec": "x", "cases": [{"case": "a", "m": 3, "n": 3, "t": 2}]},
    {"cases": [{"case": "a", "m": 3, "n": 3, "t": 2, "budget_sec": "1"}]},
    {"cases": [{"case": "a", "m": 3, "n": 3, "t": True}]},
    {"cases": [{"case": "a", "m": 3, "n": 3, "t": 2, "R": [True], "r": [1]}]},
    {"cases": [{"case": "a", "m": 3, "n": 3, "t": 2, "R": 1, "r": 1}]},
    {"cases": [{"case": "a", "check": ["asl"], "m": 2, "n": 2, "d": 2}]},
    {"cases": [{"case": "a", "m": 2, "n": 2, "t": 2, "mutate": ["drop-generator"]}]},
    {"cases": [{"case": "a", "kind": 5, "n": 3, "t": 2}]},
    {"cases": [{"case": "a", "m": 3, "n": 3, "t": 2, "budget_sec": float("nan")}]},
    {"cases": [{"case": "a", "m": 3, "n": 3, "t": 2, "budget_sec": float("inf")}]},
    {"cases": [{"case": "a", "m": 3, "n": 3, "t": 2, "budget_sec": 10 ** 400}]},
    {"cases": [{"m": 3, "n": 3, "t": 2}]},
    {"cases": [{"case": "a", "kind": "skew", "n": 1, "t": 2}]},
    {"cases": [{"case": "a", "kind": "skew", "m": 7, "n": 4, "t": 2}]},
])
def test_suite_rejects_mistyped_fields(tmp_path, capsys, doc):
    # json writes NaN and Infinity literals, which json.load reads back
    config = tmp_path / "cases.json"
    config.write_text(json.dumps(doc))
    code = main(["suite", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cases[0].")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_non_finite_budget_is_config_error(tmp_path, capsys, budget):
    assert main(["heights", "--n", "4", "--t", "2", "--budget-sec", budget]) == 2
    assert "budget_sec" in capsys.readouterr().err
    config = tmp_path / "cases.json"
    config.write_text(json.dumps({"cases": [{"case": "a", "m": 2, "n": 2, "t": 2}]}))
    assert main(["suite", str(config), "--budget-sec", budget]) == 2
    captured = capsys.readouterr()
    assert "budget_sec" in captured.err
    assert captured.out == ""


def test_square_shape_rejects_m(capsys):
    # a square shape has n rows; an m that disagrees would mislabel the case
    assert main(["verify", "symmetric", "--m", "3", "--n", "4", "--t", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: symmetric-m3-n4-t2.m:")
    assert captured.out == ""


def test_suite_unwritable_out_fails_before_any_run(tmp_path, capsys, monkeypatch):
    from detkit import harness

    runs = []
    monkeypatch.setattr(harness, "run_case", lambda spec: runs.append(spec))
    config = tmp_path / "cases.json"
    config.write_text(json.dumps({"cases": [{"case": "a", "m": 2, "n": 2, "t": 2}]}))
    out = tmp_path / "missing" / "report.json"
    assert main(["suite", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {out}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert runs == []


@pytest.mark.parametrize("argv, entry", [
    (["verify", "minors", "--m", "3", "--n", "3", "--t", "2", "--R", "1", "--r", "1"],
     {"case": "minors-m3-n3-t2-R1-r1", "m": 3, "n": 3, "t": 2, "R": [1], "r": [1]}),
    (["verify", "symmetric", "--n", "4", "--t", "2", "--R", "2", "--r", "1"],
     {"case": "symmetric-n4-t2-R2-r1", "kind": "symmetric", "n": 4, "t": 2,
      "R": [2], "r": [1]}),
    (["verify", "pfaffian", "--n", "5", "--t", "4", "--R", "2", "--r", "2"],
     {"case": "pfaffian-n5-t4-R2-r2", "kind": "skew", "n": 5, "t": 4,
      "R": [2], "r": [2]}),
    (["truncation", "--kind", "generic", "--m", "2", "--n", "3", "--t", "2",
      "--C", "1", "--p", "1", "--q", "2", "--d", "3"],
     {"case": "truncation-generic-m2-n3-t2-C1-p1-q2-d3", "check": "truncation",
      "m": 2, "n": 3, "t": 2, "C": [1], "p": 1, "q": 2, "d": 3}),
    (["truncation", "--kind", "skew", "--n", "4", "--t", "2", "--R", "2",
      "--p", "1", "--q", "2", "--d", "3"],
     {"case": "truncation-skew-n4-t2-R2-p1-q2-d3", "check": "truncation",
      "kind": "skew", "n": 4, "t": 2, "R": [2], "p": 1, "q": 2, "d": 3}),
    (["irredundancy", "--m", "4", "--n", "3", "--t", "2", "--R", "2", "--r", "1"],
     {"case": "irredundancy-minors-m4-n3-t2-R2-r1", "check": "irredundancy",
      "m": 4, "n": 3, "t": 2, "R": [2], "r": [1]}),
    (["heights", "--n", "5", "--t", "4"],
     {"case": "heights-n5-t4", "check": "heights", "kind": "skew", "n": 5, "t": 4}),
    (["asl-check", "--m", "2", "--n", "2", "--d", "2", "--order", "lex",
      "--field", "qq", "--case", "x"],
     {"case": "x", "check": "asl", "m": 2, "n": 2, "d": 2, "order": "lex",
      "field": "qq"}),
])
def test_subcommand_is_a_suite_of_one(capsys, argv, entry):
    code = main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    del doc["millis"]
    report = run_case(CaseSpec.from_dict(entry))
    assert doc == report.to_dict(include_timing=False)
    assert code == (1 if report.failed else 0)
