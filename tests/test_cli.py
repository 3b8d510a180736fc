import os
import re

import pytest

from matmi import (get_preset, interpolate_nodal, save_functional_data,
                   synthesize)
from matmi import cli
from matmi.cli import EXIT_CONFIG, EXIT_OK, main
from matmi.mesh import build_unit_square
from matmi.reconstruction import ReconConfig


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


def test_verify_solves_each_distinct_iterate_once(tmp_path, monkeypatch):
    # example1 at n=6 stalls at iteration 3 of 6, so iterations 2-6
    # record one iterate; the energy check solves it once, and every
    # solve shares one lagged factor
    monkeypatch.setattr(cli, "ReconConfig", lambda preset: ReconConfig(
        preset=preset, n=6, iterations=6))
    solved, holders = [], set()
    real = cli.solve_field

    def recording(mesh, family, gamma, **kwargs):
        solved.append(gamma)
        holders.add(id(kwargs.get("factor")))
        return real(mesh, family, gamma, **kwargs)
    monkeypatch.setattr(cli, "solve_field", recording)
    _, trace = cli._verify_preset("example1", str(tmp_path))
    assert trace.stalled_at == 3
    distinct = [it for k, it in enumerate(trace.iterates)
                if k == 0 or it is not trace.iterates[k - 1]]
    assert len(distinct) == 2 < len(trace.iterates)
    assert [id(g) for g in solved] == [id(g) for g in distinct]
    assert len(holders) == 1 and id(None) not in holders


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


@pytest.mark.parametrize("override,message", [
    ("lambda=0.5", "lambda must be >= 1"),
    ("t_lo=1.5", "hold the background 1"),       # 1 lies outside the box
    ("t_hi=1.5", "outside admissible range"),    # the target leaves it
])
def test_bad_box_or_range_exits_2(tmp_path, capsys, override, message):
    code, _ = _run(tmp_path, override)
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def _data_config(tmp_path, data_n):
    """Custom n=8 config on an example1 data file written at data_n."""
    preset = get_preset("example1")
    mesh = build_unit_square(data_n)
    data = synthesize(preset.family(),
                      interpolate_nodal(mesh, preset.gamma_star), mesh)
    save_functional_data(data, str(tmp_path / "data.bin"))
    cfg = tmp_path / "custom.txt"
    cfg.write_text("family = D1\ndata = %s\nn = 8\niterations = 1\n"
                   % (tmp_path / "data.bin"))
    return ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]


def test_data_file_for_another_mesh_exits_2(tmp_path, capsys):
    assert main(_data_config(tmp_path, 6)) == EXIT_CONFIG
    assert "descriptor does not match" in capsys.readouterr().err


def test_missing_data_file_exits_2(tmp_path, capsys):
    argv = _data_config(tmp_path, 8)
    os.remove(str(tmp_path / "data.bin"))
    assert main(argv) == EXIT_CONFIG
    assert "No such file" in capsys.readouterr().err


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


def _sweep_skips(tmp_path, capsys, *bounds):
    out = str(tmp_path / "sweeps")
    assert main(["sweep", "--family", "D1", *bounds, "--n", "8", "--n",
                 "16", "--count", "3", "--out", out]) == EXIT_OK
    return re.findall(r"n=\d+: \d+ pairs, (\d+) skipped",
                      capsys.readouterr().out)


def test_sweep_honours_a_lone_bound(tmp_path, capsys):
    # a lone --t-hi replaces the upper end of D1's range (0.5, 2.0)
    both = _sweep_skips(tmp_path, capsys, "--t-lo", "0.5", "--t-hi", "1.01")
    assert both == ["2", "2"]
    assert _sweep_skips(tmp_path, capsys, "--t-hi", "1.01") == both


def test_sweep_drift_pairs_rows_by_label(tmp_path, capsys):
    # pair17 is kept at n=8 but skipped at n=16: the drift compares the
    # two resolutions on the labels kept at both
    out = tmp_path / "sweeps"
    assert main(["sweep", "--family", "D1", "--t-lo", "0.5", "--t-hi",
                 "1.0325", "--n", "8", "--n", "16", "--count", "20",
                 "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out

    def ratios(n):
        rows = (out / ("stability_D1_n%d.csv" % n)).read_text().split()[1:]
        return {r.split(",")[0]: float(r.split(",")[3]) for r in rows}
    coarse, fine = ratios(8), ratios(16)
    assert "pair17" in coarse and "pair17" not in fine
    want = max(abs(coarse[k] - fine[k]) / coarse[k] for k in fine)
    got = re.search(r"ratio drift n=8 -> n=16: (\S+)%% over %d pairs"
                    % len(fine), text)
    assert float(got.group(1)) == pytest.approx(100 * want, abs=0.006)
    # with no pair kept at either resolution there is nothing to compare
    assert main(["sweep", "--family", "D1", "--t-lo", "0.99", "--t-hi",
                 "1.01", "--n", "8", "--n", "12", "--count", "2",
                 "--out", str(out)]) == EXIT_OK
    assert "drift n=8 -> n=12: nan% over 0 pairs" in capsys.readouterr().out


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
