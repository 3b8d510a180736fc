import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from matmi import (NodalField, builtin, get_preset, interpolate_nodal,
                   save_functional_data, synthesize)
from matmi import cli
from matmi.cli import EXIT_CONFIG, EXIT_OK, main
from matmi.mesh import build_unit_square
from matmi.reconstruction import ReconConfig, ReconTrace


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
                 "--n", "4", "--iterations", "4"]) == EXIT_OK
    assert ("stalled: iteration 2 of 4 rejected every candidate step"
            in capsys.readouterr().out)
    code, _ = _run(tmp_path)
    assert code == EXIT_OK
    assert "stalled" not in capsys.readouterr().out


def test_verify_solves_nothing_beyond_the_run(tmp_path, monkeypatch):
    # the energy check and the data container read what the run recorded
    # (example1 at n=4 stalls at iteration 2 of 6), so every forward
    # solve of verify is one that reconstruct makes
    from matmi import functional, neumann, stability
    monkeypatch.setattr(cli, "ReconConfig", lambda preset: ReconConfig(
        preset=preset, n=4, iterations=6))
    running, inside, outside = [], [], []
    real_reconstruct = cli.reconstruct

    def reconstructing(config):
        running.append(config)
        try:
            return real_reconstruct(config)
        finally:
            running.pop()

    def counted(real):
        def solve(*args, **kwargs):
            (inside if running else outside).append(args)
            return real(*args, **kwargs)
        return solve
    monkeypatch.setattr(cli, "reconstruct", reconstructing)
    for module in (functional, neumann, stability):
        monkeypatch.setattr(module, "solve_field",
                            counted(module.solve_field))
    rows, trace = cli._verify_preset("example1", str(tmp_path))
    assert trace.stalled_at == 2
    assert inside and not outside
    row = {label: (ok, detail) for label, ok, detail in rows}
    assert row["energy bound on all solves"][0]
    assert row["data container integrity"] == (
        True, "round trip ok, tampering rejected")


@pytest.mark.parametrize("preset,not_pd,outside", [
    ("example1", "0.0", "0.0"), ("example2", "4.7", "28.1")])
def test_verify_reports_the_target_shares(tmp_path, monkeypatch, preset,
                                          not_pd, outside):
    # at n=8, example2's target leaves the class on fewer cells than at
    # its own n=48; the row is informational and always passes
    monkeypatch.setattr(cli, "ReconConfig", lambda preset: ReconConfig(
        preset=preset, n=8, iterations=3))
    rows, _ = cli._verify_preset(preset, str(tmp_path))
    row = {label: (ok, detail) for label, ok, detail in rows}
    assert row["target shares (informational)"] == (
        True, "A(x, gamma*) not positive definite on %s%% of the cells, "
        "outside the box on %s%%" % (not_pd, outside))


def test_verify_energy_bound_is_not_vacuous(tmp_path, monkeypatch):
    # example2's family range reaches t = -0.5, where lambda is infinite;
    # the iterates lie in the box [0.01, 1.6], where it is finite, so the
    # energy ratio of a nonzero field must read above zero
    monkeypatch.setattr(cli, "ReconConfig", lambda preset: ReconConfig(
        preset=preset, n=8, iterations=3))
    rows, _ = cli._verify_preset("example2", str(tmp_path))
    row = {label: (ok, detail) for label, ok, detail in rows}
    ok, detail = row["energy bound on all solves"]
    assert ok and float(detail.split()[-1]) > 0.0


@pytest.mark.parametrize("preset,n,iterations,ending", [
    ("example1", 4, 6, "stalled: iteration 2 of 6 "),
    ("example6", 4, 10, "converged: iteration 3 of 10 "),
    ("example2", 8, 3, "outer loop not converged: "),
])
def test_verify_names_how_the_outer_loop_ended(tmp_path, monkeypatch, preset,
                                               n, iterations, ending):
    monkeypatch.setattr(cli, "ReconConfig", lambda preset: ReconConfig(
        preset=preset, n=n, iterations=iterations))
    rows, _ = cli._verify_preset(preset, str(tmp_path))
    row = {label: (ok, detail) for label, ok, detail in rows}
    ok, detail = row["outer loop end (informational)"]
    assert ok and detail.startswith(ending)


@pytest.mark.parametrize("stop_residual,ending", [
    (0.5, "converged: iteration 2 of 3 "),
    (1.0, "stopped without lowering the residual: iteration 2 of 3 "),
    (1.05, "stopped without lowering the residual: iteration 2 of 3 "),
])
def test_a_stop_above_the_initial_residual_says_so(stop_residual, ending):
    # the stop rule holds for any residual once the change is small, so
    # the ending line compares the stopping row with the initial residual
    trace = ReconTrace()
    trace.initial_residual = 2.0
    trace.iterates = [None] * 3
    trace.data_residual = [1.6, 2.0 * stop_residual, 2.0 * stop_residual]
    trace.outer_change = [0.3, 1e-3, 0.0]
    trace.converged_at = 2
    line = cli._outer_loop_end(trace)
    assert line.startswith(ending)
    assert "residual ratio %.3g;" % stop_residual in line


def test_run_dump_fields_writes_iterates(tmp_path):
    code, outdir = _run(tmp_path, "--dump-fields")
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(outdir, "iterate_01.vtk"))
    assert os.path.exists(os.path.join(outdir, "iterate_03.vtk"))


def test_run_overrides_are_recorded(tmp_path):
    code, outdir = _run(tmp_path, "picard.alpha=2e-2")
    assert code == EXIT_OK
    text = Path(outdir, "config.txt").read_text()
    assert "n = 10" in text
    assert "picard.alpha = 0.02" in text


def test_unknown_config_key_exits_2(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    code = main(["run", "--preset", "example1", "--out", out, "nonsense=1"])
    assert code == EXIT_CONFIG
    assert "nonsense" in capsys.readouterr().err


def test_missing_preset_and_config_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG


def test_preset_and_config_together_exit_2(tmp_path, capsys):
    # the file's config would otherwise run under the preset's name
    config = tmp_path / "c.txt"
    config.write_text("preset = example4\n")
    out = tmp_path / "artifacts"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "example1", "--config", str(config),
              "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override,message", [
    ("lambda=0.5", "lambda must be >= 1"),
    ("t_lo=1.5", "hold the background 1"),       # 1 lies outside the box
    ("t_hi=1.5", "outside admissible range"),    # the target leaves it
    ("lambda=inf", "lambda must be finite, got inf"),
    ("t_lo=nan", "t_lo must be finite, got nan"),
    ("t_hi=inf", "t_hi must be finite, got inf"),
])
def test_bad_box_or_range_exits_2(tmp_path, capsys, override, message):
    code, _ = _run(tmp_path, override)
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("override,message", [
    ("picard.alpha=-1", "picard.alpha must be > 0"),
    ("picard.alpha=inf", "picard.alpha must be finite, got inf"),
])
def test_bad_picard_control_exits_2(tmp_path, capsys, override, message):
    code, _ = _run(tmp_path, override)
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1e46", "1e120"])
def test_a_huge_regularization_weight_is_a_run_like_any_other(tmp_path,
                                                              capsys, alpha):
    # the normal matrix's entries reach alpha; its band is scaled before
    # it is rounded to float32, so no weight the float64 matrix holds
    # overflows the factor.  The penalty then pins gamma to its start,
    # and the first update ends the run
    out = str(tmp_path / "artifacts")
    assert main(["run", "--preset", "example1", "--out", out, "--n", "6",
                 "--iterations", "3", "picard.alpha=" + alpha]) == EXIT_OK
    endings = re.findall(r"^(?:converged|stopped without lowering the "
                         r"residual|stalled|outer loop not converged):.*",
                         capsys.readouterr().out, re.M)
    assert len(endings) == 1
    assert endings[0].startswith("converged: iteration 1 of 3 ")


@pytest.mark.parametrize("adaptive", ["true", "false"])
def test_run_reports_an_unconverged_inner_loop(tmp_path, capsys,
                                              monkeypatch, adaptive):
    # one inner step never reaches the tolerance: the run still
    # succeeds, and says so for every accepted update
    from matmi import transport
    monkeypatch.setattr(transport, "PICARD_MAX_STEPS", 1)
    code, _ = _run(tmp_path, "picard.adaptive=" + adaptive)
    assert code == EXIT_OK
    assert ("inner loop not converged: iteration(s) 1, 2, 3 of 3 stopped "
            "after 1, 1, 1 steps above the change tolerance %g"
            % transport.PICARD_REL_TOL in capsys.readouterr().out)
    monkeypatch.undo()
    code, _ = _run(tmp_path, "picard.adaptive=" + adaptive)
    assert code == EXIT_OK
    assert "inner loop not converged" not in capsys.readouterr().out


def test_run_reports_the_outer_loop_stop(tmp_path, capsys):
    # example6 at n=4 stops at iteration 3 of 10
    out = str(tmp_path / "artifacts")
    assert main(["run", "--preset", "example6", "--out", out,
                 "--n", "4"]) == EXIT_OK
    text = capsys.readouterr().out
    assert re.search(r"^converged: iteration 3 of 10 changed gamma by \S+ "
                     r"<= 0\.01 x residual ratio \S+; later iterations "
                     r"repeat its iterate$", text, re.M)
    assert "not converged" not in text
    assert len(Path(out, "example6", "trace.csv").read_text()
               .split()) == 1 + 10


def test_run_reports_an_unconverged_outer_loop(tmp_path, capsys):
    # example2's outer change stays far above the stop: the run still
    # succeeds, and says so once
    out = str(tmp_path / "artifacts")
    assert main(["run", "--preset", "example2", "--out", out,
                 "--n", "8", "--iterations", "3"]) == EXIT_OK
    text = capsys.readouterr().out
    lines = [line for line in text.splitlines() if "not converged" in line]
    assert len(lines) == 1
    change, ratio = re.fullmatch(
        r"outer loop not converged: last change (\S+) > 0\.01 x residual "
        r"ratio (\S+)", lines[0]).groups()
    assert float(change) > 0.01 * float(ratio)
    assert not re.search(r"^converged:", text, re.M)
    assert "stalled" not in text


@pytest.mark.parametrize("n,code", [(None, EXIT_OK), ("80", 1)])
def test_run_reports_a_target_outside_the_class(tmp_path, capsys, n, code):
    # read from the run's trace, where it is recorded before the data
    # are synthesized, so a run that then fails (at n=80 the pinned
    # Neumann block of example2's data is indefinite) shows it too
    out = str(tmp_path / "artifacts")
    args = ["run", "--preset", "example2", "--out", out, "--iterations", "1"]
    assert main(args + (["--n", n] if n else [])) == code
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"target outside the paper's class: A\(x, gamma\*\) "
                        r"is not positive definite on 7\.\d% of the cells, "
                        r"and gamma\* leaves the box \[0\.01, 1\.6\] on "
                        r"33\.\d%", lines[0])
    code, _ = _run(tmp_path)
    assert code == EXIT_OK
    assert "paper's class" not in capsys.readouterr().out


def test_a_failed_data_synthesis_writes_partial_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["run", "--preset", "example2", "--out", str(out), "--n",
                 "80"]) == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out.startswith("target outside the paper's class: ")
    assert len(captured.out.splitlines()) == 1
    outdir = out / "example2"
    assert ("reconstruction failed: data synthesis failed: pinned Neumann "
            "system: factorization failed" in captured.err)
    assert captured.err.endswith("partial artifacts in %s\n" % outdir)
    assert (outdir / "config.txt").read_text() == ReconConfig(
        preset="example2", n=80).to_text()
    assert (outdir / "trace.csv").read_text() == (
        "iteration,error_L2,residual,ratio\n")
    assert (outdir / "picard.csv").read_text() == (
        "iteration,inner_iteration,rel_change\n")
    assert sorted(os.listdir(outdir)) == ["config.txt", "picard.csv",
                                          "trace.csv"]


@pytest.mark.parametrize("preset", ["example2", "example6"])
def test_rerun_from_config_txt_repeats_the_run(tmp_path, preset):
    # config.txt records the resolved configuration, preset defaults
    # included, so a run from it repeats the trace byte for byte
    out = tmp_path / "artifacts"
    assert main(["run", "--preset", preset, "--out", str(out), "--n", "4",
                 "--iterations", "2"]) == EXIT_OK
    assert main(["run", "--config", str(out / preset / "config.txt"),
                 "--out", str(out)]) == EXIT_OK
    first = (out / preset / "trace.csv").read_bytes()
    assert (out / "config" / "trace.csv").read_bytes() == first


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


def test_data_in_large_units_run_like_any_other(tmp_path, capsys):
    # the least-squares right-hand side grows with the data, 1e12 times
    # the band's entries here; the band solve scales it on its own, so it
    # neither overflows float32 nor fails the run, and the run ends as
    # it does on any data it cannot improve
    preset = get_preset("example1")
    mesh = build_unit_square(16)
    data = synthesize(preset.family(),
                      interpolate_nodal(mesh, preset.gamma_star), mesh)
    data.p1_weak *= 1e12
    data.nodal_projection.values *= 1e12
    save_functional_data(data, str(tmp_path / "data.bin"))
    cfg = tmp_path / "large.txt"
    cfg.write_text("family = D1\ndata = %s\nn = 16\niterations = 4\n"
                   "t_lo = 0.5\nt_hi = 2.5\n" % (tmp_path / "data.bin"))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert ("stalled: iteration 2 of 4 rejected every candidate step"
            in capsys.readouterr().out)


def test_data_file_for_another_mesh_exits_2(tmp_path, capsys):
    assert main(_data_config(tmp_path, 6)) == EXIT_CONFIG
    assert "descriptor does not match" in capsys.readouterr().err


def test_old_data_container_exits_2(tmp_path, capsys):
    argv = _data_config(tmp_path, 8)
    path = tmp_path / "data.bin"
    path.write_bytes(b"MATMIFN1" + path.read_bytes()[8:])
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot prepare the data" in err
    assert "no longer read" in err


def test_data_vector_for_another_mesh_exits_2(tmp_path, capsys,
                                              write_container):
    # a valid payload hash around a 3-value p1_weak on the 81-vertex mesh
    argv = _data_config(tmp_path, 8)
    mesh = build_unit_square(8)
    payload = (struct.pack("<iiiq", 2, 8, 8, 3) + bytes(24)
               + struct.pack("<q", 81) + bytes(8 * 81))
    write_container(mesh, payload, str(tmp_path / "data.bin"))
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot prepare the data" in err
    assert "p1_weak has 3 values for 81 mesh vertices" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override,message", [
    ("dim=0", "dim must be 2 or 3, got 0"),
    ("dim=5", "dim must be 2 or 3, got 5"),
    ("boundary_value=nan", "boundary_value must be finite, got nan"),
])
def test_bad_custom_config_exits_2(tmp_path, capsys, override, message):
    code = main(_data_config(tmp_path, 8) + [override])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: %s\n" % message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset, dim", [("example6", 2), ("example1", 3)])
def test_preset_with_another_dim_exits_2(tmp_path, capsys, preset, dim):
    # a preset's target is defined in its own dimension only
    code = main(["run", "--preset", preset, "--out", str(tmp_path),
                 "--n", "4", "--iterations", "1", "dim=%d" % dim])
    assert code == EXIT_CONFIG
    assert "preset %s is" % preset in capsys.readouterr().err


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
    a = Path(out1, "trace.csv").read_bytes()
    b = Path(out2, "trace.csv").read_bytes()
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


def test_sweep_of_a_zero_perturbation_reports_nan_ratios(tmp_path, capsys):
    # seed 0's one perturbation, modes (4, 3), is below 2e-17 on the n=2
    # vertices, so base + delta rounds to the base: both sweeps divide
    # 0 by 0
    assert main(["sweep", "--n", "2", "--count", "1",
                 "--out", str(tmp_path / "sweeps")]) == EXIT_OK
    assert "max C_emp nan, max field ratio nan" in capsys.readouterr().out


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


@pytest.mark.parametrize("args,message", [
    (["--n", "0", "--count", "1"], "--n must be at least 2, got 0"),
    (["--n", "4", "--count", "-2"], "--count must be at least 1, got -2"),
    (["--n", "4", "--count", "1", "--seed", "-1"],
     "--seed must be at least 0, got -1"),
    (["--n", "4", "--count", "1", "--amplitude", "0"],
     "--amplitude must be above 0, got 0"),
    (["--n", "4", "--count", "1", "--amplitude", "inf"],
     "--amplitude must be finite, got inf"),
    (["--n", "4", "--count", "1", "--t-lo", "1.5"],
     "the range [1.5, 2] does not contain the base parameter 1"),
], ids=["n", "count", "seed", "amplitude", "amplitude-inf", "range"])
def test_sweep_rejects_bad_input_with_exit_2(tmp_path, capsys, args,
                                             message):
    code = main(["sweep", *args, "--out", str(tmp_path / "sweeps")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err == "configuration error: %s\n" % message
    assert not (tmp_path / "sweeps").exists()


@pytest.mark.parametrize("command,message", [
    (["verify", "example9"], "unknown preset 'example9'; choose from "),
    (["sweep", "--family", "D9"], "unknown builtin family 'D9' "),
], ids=["verify", "sweep"])
def test_unknown_name_prints_the_message_unquoted(tmp_path, capsys, command,
                                                  message):
    code = main([*command, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: "
                                              + message)


def test_verify_takes_presets_by_position_only(capsys):
    # a --preset flag next to positional names was silently dropped
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--preset", "example1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --preset" in capsys.readouterr().err


@pytest.mark.parametrize("dim, builder, sizes",
                         [(2, "build_unit_square", [32, 64]),
                          (3, "build_unit_cube", [8, 16])])
def test_sweep_default_sizes_follow_the_dimension(tmp_path, monkeypatch,
                                                  dim, builder, sizes):
    # the sizes are recorded and a small mesh is built in their place: a
    # 3D band at n=64 would not fit in memory
    real, built = getattr(cli, builder), []

    def recording(n):
        built.append(n)
        return real(4 if dim == 2 else 2)
    monkeypatch.setattr(cli, builder, recording)
    assert main(["sweep", "--dim", str(dim), "--count", "1",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert built == sizes


def test_run_writes_partial_artifacts_when_an_update_fails(tmp_path, capsys,
                                                          monkeypatch):
    # every update after the first fails: the first row is written, and
    # the run exits 1 naming where its artifacts are
    from matmi import reconstruction
    from matmi.transport import TransportError
    real, first = reconstruction.solve_nonlinear_ls, []

    def solve(problem, *args, **kwargs):
        if not first:
            first.append(problem.gamma_ref)
        if problem.gamma_ref is not first[0]:
            raise TransportError("injected failure")
        return real(problem, *args, **kwargs)
    monkeypatch.setattr(reconstruction, "solve_nonlinear_ls", solve)
    code, outdir = _run(tmp_path)
    assert code == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert "reconstruction failed: iteration 2 failed: every least-squares " \
        "candidate failed: weight 0.01: injected failure; weight 0.004: " \
        "injected failure; weight 0.025: injected failure" in err
    assert err.endswith("partial artifacts in %s\n" % outdir)
    config = ReconConfig(preset="example1", n=10, iterations=3)
    with open(os.path.join(outdir, "config.txt")) as fh:
        assert fh.read() == config.to_text()
    with open(os.path.join(outdir, "trace.csv")) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "iteration,error_L2,residual,ratio"
    assert len(rows) == 2 and rows[1].startswith("1,")


def test_config_file_then_overrides_then_flags(tmp_path):
    # the file's keys, then the key=value overrides, then --n
    cfg = tmp_path / "case.txt"
    cfg.write_text("preset = example1\nn = 6\niterations = 5\n")
    out = tmp_path / "artifacts"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--n", "4", "iterations=2"]) == EXIT_OK
    text = (out / "case" / "config.txt").read_text()
    assert "n = 4\n" in text and "iterations = 2\n" in text


def test_preset_flag_wins_over_a_preset_override(tmp_path):
    out = tmp_path / "artifacts"
    assert main(["run", "--preset", "example1", "--out", str(out), "--n",
                 "4", "--iterations", "1", "preset=example4"]) == EXIT_OK
    assert os.listdir(out) == ["example1"]
    assert "preset = example1\n" in (out / "example1" /
                                       "config.txt").read_text()


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "case.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"preset = example1\n# \xff\n")
    out = tmp_path / "artifacts"
    assert main(["run", "--config", str(path), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read config file "
                          "%s: " % path)
    assert not out.exists()


def _solving_nothing(*args, **kwargs):
    raise AssertionError("solved before the output directory was made")


@pytest.mark.parametrize("argv", [
    ["run", "--preset", "example1"], ["verify", "example1"],
    ["sweep", "--n", "4", "--count", "1"]], ids=lambda a: a[0])
def test_an_output_root_that_is_a_file_exits_2(tmp_path, capsys,
                                               monkeypatch, argv):
    # found before anything is solved
    monkeypatch.setattr(cli, "reconstruct", _solving_nothing)
    monkeypatch.setattr(cli, "stability_sweep", _solving_nothing)
    root = tmp_path / "root"
    root.write_text("")
    assert main(argv + ["--out", str(root)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot create output "
                          "directory %s" % root)


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("MATMI_OUT_DIR", str(tmp_path / "envout"))
    code = main(["run", "--preset", "example1", "--n", "8",
                 "--iterations", "2"])
    assert code == EXIT_OK
    assert os.path.exists(str(tmp_path / "envout" / "example1" / "trace.csv"))


def test_data_matched_by_the_background_converges_at_once(tmp_path, capsys):
    # data synthesized from gamma = 1 leaves an initial residual of 0, so
    # the residual ratio is undefined: the first update ends the run
    mesh = build_unit_square(6)
    ones = NodalField(mesh, np.ones(mesh.num_vertices))
    save_functional_data(synthesize(builtin("D1"), ones, mesh),
                         str(tmp_path / "data.bin"))
    cfg = tmp_path / "custom.txt"
    cfg.write_text("family = D1\ndata = %s\nn = 6\niterations = 3\n"
                   "picard.adaptive = false\n" % (tmp_path / "data.bin"))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert ("converged: iteration 1 of 3 changed gamma by 0 <= 0.01 x "
            "residual ratio nan" in capsys.readouterr().out)


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
    rows = Path(out, "custom", "trace.csv").read_text().split()
    final = float(rows[-1].split(",")[2])
    assert final <= initial
