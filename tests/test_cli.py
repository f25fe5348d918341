"""Tests for the command-line driver and the SVG renderer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pentacheck.arrangement import build_arrangement
from pentacheck.cli import main
from pentacheck.svg import render_svg

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_list_prints_sorted_check_ids(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == sorted(out)
    assert "counterexample.lojasiewicz" in out
    assert "galois.cprime.rational" in out


def test_verify_single_check(capsys):
    assert main(["verify", "field.minimal-polynomial"]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_unknown_check_exits_2(capsys):
    assert main(["verify", "no.such.check"]) == 2
    assert "known ids" in capsys.readouterr().err


def test_verify_writes_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "field.galois-group", "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert set(doc) == {"version", "entries"}
    (entry,) = doc["entries"]
    assert entry["status"] == "pass"
    assert set(entry) == {"check_id", "status", "claim", "witnesses", "duration_ms"}


def test_verify_report_determinism(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    main(["verify", "counterexample.milnor", "--report", str(r1)])
    main(["verify", "counterexample.milnor", "--report", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_seed_flag_is_retired(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_does_not_import_svg():
    code = (
        "import sys\n"
        "from pentacheck import cli\n"
        "assert cli.main(['verify', 'field.galois-group']) == 0\n"
        "assert 'pentacheck.svg' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_truncation_four_breaks_gradient_limits(capsys):
    code = main(["verify", "counterexample.gradient-limits", "--truncation", "4"])
    assert code == 1
    assert "error" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_truncation_exits_2(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "counterexample.lojasiewicz", "--truncation", value])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_low_truncation_lojasiewicz_errors_instead_of_failing(tmp_path, capsys):
    report = tmp_path / "report.json"
    args = ["verify", "counterexample.lojasiewicz", "--report", str(report)]
    assert main(args + ["--truncation", "4"]) == 1
    (entry,) = json.loads(report.read_text())["entries"]
    assert entry["status"] == "error"
    assert "increase truncation" in entry["witnesses"]["error"]
    assert main(args) == 0


def test_unwritable_report_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    code = main(["verify", "field.minimal-polynomial", "--report", str(target)])
    assert code == 2


def test_render_aprime_counts(tmp_path, capsys):
    out = tmp_path / "aprime.svg"
    assert main(["render", "--variant", "APRIME", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("<line") == 10
    assert text.count("<circle") == 17  # affine markers; one point is at infinity


def test_render_cprime_counts(tmp_path):
    out = tmp_path / "cprime.svg"
    assert main(["render", "--variant", "CPRIME", "--out", str(out)]) == 0
    assert out.read_text().count("<line") == 9


def test_render_unknown_variant_exits_2(capsys):
    assert main(["render", "--variant", "NOPE", "--out", "/tmp/x.svg"]) == 2


def test_svg_marker_colors_follow_weights():
    text = render_svg(build_arrangement("APRIME"))
    assert '#000000"' in text  # weight-4 markers black
    assert '#cc2222"' in text  # weight-3 markers red
    assert '#ffffff"' in text  # weight-2 markers white


def test_svg_deterministic():
    arr = build_arrangement("RATIONAL10")
    assert render_svg(arr) == render_svg(arr)
