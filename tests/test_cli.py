import os
import re

import pytest

from matmi import (get_preset, interpolate_nodal, save_functional_data,
                   synthesize)
from matmi.cli import EXIT_CONFIG, EXIT_OK, main
from matmi.mesh import build_unit_square


def _run(tmp_path, *extra):
    out = str(tmp_path / "artifacts")
    code = main(["run", "--preset", "example1", "--out", out,
                 "--n", "10", "--iterations", "3", *extra])
    return code, os.path.join(out, "example1")


def test_run_writes_artifacts(tmp_path, capsys):
    code, outdir = _run(tmp_path)
    assert code == EXIT_OK
    for name in ("config.txt", "trace.csv", "picard.csv",
                 "final.vtk", "final.csv"):
        assert os.path.getsize(os.path.join(outdir, name)) > 0
    assert "final relative L2 error" in capsys.readouterr().out


def test_run_reports_a_stall(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    assert main(["run", "--preset", "example1", "--out", out,
                 "--n", "6", "--iterations", "4"]) == EXIT_OK
    assert ("stalled: iteration 3 of 4 rejected every candidate step"
            in capsys.readouterr().out)
    code, _ = _run(tmp_path)
    assert code == EXIT_OK
    assert "stalled" not in capsys.readouterr().out


def test_run_dump_fields_writes_iterates(tmp_path):
    code, outdir = _run(tmp_path, "--dump-fields")
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(outdir, "iterate_01.vtk"))
    assert os.path.exists(os.path.join(outdir, "iterate_03.vtk"))


def test_run_overrides_are_recorded(tmp_path):
    code, outdir = _run(tmp_path, "picard.alpha=2e-2")
    assert code == EXIT_OK
    text = open(os.path.join(outdir, "config.txt")).read()
    assert "n = 10" in text
    assert "picard.alpha = 0.02" in text


def test_unknown_config_key_exits_2(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    code = main(["run", "--preset", "example1", "--out", out, "nonsense=1"])
    assert code == EXIT_CONFIG
    assert "nonsense" in capsys.readouterr().err


def test_missing_preset_and_config_exits_2(tmp_path, capsys):
    code = main(["run", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "case.txt"
    cfg.write_text("preset = example1\nn = 8\niterations = 2\n")
    out = str(tmp_path / "artifacts")
    code = main(["run", "--config", str(cfg), "--out", out])
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(out, "case", "trace.csv"))


def test_trace_is_byte_identical_across_runs(tmp_path):
    _, out1 = _run(tmp_path / "one")
    _, out2 = _run(tmp_path / "two")
    a = open(os.path.join(out1, "trace.csv"), "rb").read()
    b = open(os.path.join(out2, "trace.csv"), "rb").read()
    assert a == b


def test_sweep_writes_reports(tmp_path, capsys):
    out = str(tmp_path / "sweeps")
    code = main(["sweep", "--family", "D1", "--t-lo", "0.25", "--t-hi",
                 "4.0", "--n", "8", "--n", "12", "--count", "3",
                 "--out", out])
    assert code == EXIT_OK
    for n in (8, 12):
        assert os.path.getsize(os.path.join(
            out, "stability_D1_n%d.csv" % n)) > 0
        assert os.path.getsize(os.path.join(out, "field_D1_n%d.csv" % n)) > 0
    assert "ratio drift" in capsys.readouterr().out


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("MATMI_OUT_DIR", str(tmp_path / "envout"))
    code = main(["run", "--preset", "example1", "--n", "8",
                 "--iterations", "2"])
    assert code == EXIT_OK
    assert os.path.exists(str(tmp_path / "envout" / "example1" / "trace.csv"))


def test_custom_data_run_lowers_residual(tmp_path, capsys):
    # a D1 config without a preset, on data loaded from a file: the run
    # must not raise the data residual it is meant to reduce
    preset = get_preset("example1")
    mesh = build_unit_square(12)
    data = synthesize(preset.family(),
                      interpolate_nodal(mesh, preset.gamma_star), mesh)
    save_functional_data(data, str(tmp_path / "data.bin"))
    cfg = tmp_path / "custom.txt"
    cfg.write_text("family = D1\ndata = %s\nn = 12\nt_lo = 0.5\n"
                   "t_hi = 2.5\niterations = 3\n" % (tmp_path / "data.bin"))
    out = str(tmp_path / "artifacts")
    code = main(["run", "--config", str(cfg), "--out", out])
    assert code == EXIT_OK
    initial = float(re.search(r"final data residual: \S+ \(initial (\S+)\)",
                              capsys.readouterr().out).group(1))
    rows = open(os.path.join(out, "custom", "trace.csv")).read().split()
    final = float(rows[-1].split(",")[2])
    assert final <= initial
