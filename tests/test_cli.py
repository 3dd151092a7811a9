"""Command-line surface: wiring, schemas, exit codes."""

import json

import pytest

from matsuo.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_space_stats(capsys):
    code, data = run_cli(capsys, "space", "stats", "W2A:3")
    assert code == 0
    assert data["points"] == 6 and data["lines"] == 4
    assert data["line_count_note"]["four_lines_per_position_triple"] == 4


def test_space_export(capsys):
    code, data = run_cli(capsys, "space", "export", "A:4")
    assert code == 0
    assert len(data["points"]) == 6 and len(data["lines"]) == 4


def test_gram_critical(capsys):
    code, data = run_cli(capsys, "gram", "A:3", "--critical")
    assert code == 0
    assert data["rational_roots"] == ["-1", "2"]


def test_gram_det(capsys):
    code, data = run_cli(capsys, "gram", "A:3")
    assert code == 0
    assert data["det_degree"] == 3


def test_close_line(capsys):
    code, data = run_cli(
        capsys, "close", "--ambient", "A:3", "--gens", "b(1,2);b(1,3)"
    )
    assert code == 0
    assert data["dimension"] == 3


def test_close_unsafe_eta_refused(capsys):
    code = main(["close", "--ambient", "A:3", "--gens", "b(1,2)", "--mode", "2"])
    capsys.readouterr()
    assert code == 2


def test_close_unsafe_eta_allowed(capsys):
    code, data = run_cli(
        capsys, "close", "--ambient", "A:3", "--gens", "b(1,2)",
        "--mode", "2", "--allow-critical",
    )
    assert code == 0 and data["dimension"] == 1


def test_close_double_axis_generator(capsys):
    code, data = run_cli(
        capsys, "close", "--ambient", "A:10", "--gens", "b(1,2)+b(3,4)"
    )
    assert code == 0 and data["dimension"] == 1
    assert data["generators"][0]["vector"] == {"b(1,2)": "1", "b(3,4)": "1"}


def test_fusion_single_axis(capsys):
    code, data = run_cli(
        capsys, "fusion", "--ambient", "A:3", "--axis", "b(1,2)", "--law", "J"
    )
    assert code == 0
    assert data["violations"] == []


def test_fusion_double_axis_monster(capsys):
    code, data = run_cli(
        capsys, "fusion", "--ambient", "A:4",
        "--axis", "b(1,2)+b(3,4)", "--law", "M",
    )
    assert code == 0 and data["violations"] == []


def test_fusion_monster_at_half_refused(capsys):
    # 2*eta = 1 at eta = 1/2, so the Monster-type spectrum is not distinct
    code = main([
        "fusion", "--ambient", "A:4", "--axis", "b(1,2)+b(3,4)", "--law", "M", "--mode", "1/2",
    ])
    assert code == 2
    assert "outside {0, 1, 1/2}" in capsys.readouterr().err


def test_flip_report(capsys):
    code, data = run_cli(capsys, "flip", "--family", "W3A", "--k", "2")
    assert code == 0
    assert data["fixed_dim"] == 10 and data["flip_dim_symbolic"] == 9


def test_flip_with_eta(capsys):
    code, data = run_cli(
        capsys, "flip", "--family", "Wr3x3", "--k", "2", "--eta", "2"
    )
    assert code == 0
    assert data["flip_dims_at"] == {"2": 29}


def test_classify_small(capsys):
    code, data = run_cli(capsys, "classify", "--ambient", "WrA4:2")
    assert code == 0
    assert data["buckets"]


def test_classify_sampled(capsys):
    code, data = run_cli(
        capsys, "classify", "--ambient", "Wr3x3:4",
        "--sample", "10", "--seed", "3", "--no-recertify",
    )
    assert code == 0
    assert sum(b["examined"] for b in data["buckets"]) == 10


@pytest.mark.parametrize("count", ["0", "-3"])
def test_classify_sample_below_one_refused(capsys, count):
    code = main(["classify", "--ambient", "A:5", "--sample", count])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "sample count must be at least 1" in captured.err


def test_classify_seed_needs_sample(capsys):
    code = main(["classify", "--ambient", "A:5", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--seed needs --sample" in captured.err
    code, data = run_cli(capsys, "classify", "--ambient", "A:5", "--sample", "2", "--no-recertify")
    assert code == 0
    assert data["seed"] == 0


@pytest.mark.parametrize("workers", ["abc", "0", "-2"])
def test_bad_worker_count_refused(capsys, monkeypatch, workers):
    monkeypatch.setenv("MATSUO_WORKERS", workers)
    code = main(["classify", "--ambient", "A:5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "MATSUO_WORKERS" in captured.err


def test_bad_generator_label(capsys):
    code = main(["close", "--ambient", "A:3", "--gens", "z(1,2)"])
    capsys.readouterr()
    assert code == 2


def test_bad_space_spec(capsys):
    code = main(["space", "stats", "QQ-7"])
    capsys.readouterr()
    assert code == 2


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--out", str(out), "gram", "A:3", "--critical"])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["rational_roots"] == ["-1", "2"]
