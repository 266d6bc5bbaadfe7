import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spheresym import cli, core, threads
from spheresym.calibrate import ENUM_LIMIT
from spheresym.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def _write_data(tmp_path, n=16, d=3, seed=0, name="data.csv"):
    data = np.random.default_rng(seed).standard_normal((n, d))
    path = tmp_path / name
    np.savetxt(path, data, delimiter=",")
    return path


def test_test_command_basic(tmp_path, capsys):
    path = _write_data(tmp_path)
    out_json = tmp_path / "out.json"
    rc = main(["test", "--input", str(path), "--B", "50", "--seed", "3",
               "--output", str(out_json)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("statistic ")
    assert lines[1].startswith("p_value ")
    assert lines[2] in ("reject true", "reject false")
    payload = json.loads(out_json.read_text())
    assert payload["method"] == "monte-carlo"
    assert payload["B"] == 50 and payload["seed"] == 3
    assert float(lines[1].split()[1]) == pytest.approx(payload["p_value"], rel=1e-9)


def test_test_command_deterministic_json(tmp_path, capsys):
    path = _write_data(tmp_path, seed=1)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["test", "--input", str(path), "--B", "80", "--seed", "7", "--output", str(out1)]) == 0
    assert main(["test", "--input", str(path), "--B", "80", "--seed", "7", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_test_command_exact(tmp_path, capsys):
    path = _write_data(tmp_path, n=8, d=2, seed=2)
    rc = main(["test", "--input", str(path), "--exact"])
    assert rc == 0
    out = capsys.readouterr().out
    p = float(out.splitlines()[1].split()[1])
    assert p >= 2.0 ** (1 - 8)


@pytest.mark.parametrize("flags, n, floor", [
    (["--alpha", "0.001", "--B", "500"], 40, "a Monte Carlo p-value is at least 1/(B + 1) = 0.00199601, "
                                             "not below alpha = 0.001"),
    (["--B", "19"], 40, "a Monte Carlo p-value is at least 1/(B + 1) = 0.05, not below alpha = 0.05"),
    (["--exact"], 5, "an exact p-value at n = 5 is at least 2^(1-n) = 0.0625, not below alpha = 0.05"),
], ids=["alpha-0.001-B-500", "B-19", "exact-n-5"])
def test_test_command_notes_a_test_that_cannot_reject(tmp_path, capsys, flags, n, floor):
    path = _write_data(tmp_path, n=n, d=2)
    assert main(["test", "--input", str(path), *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"note: {floor}, so the test cannot reject\n"
    assert "reject false" in captured.out


@pytest.mark.parametrize("flags, n", [(["--B", "20"], 40), (["--exact"], 6), (["--exact", "--alpha", "0.07"], 5)],
                         ids=["B-20", "exact-n-6", "exact-n-5-alpha-0.07"])
def test_test_command_notes_nothing_when_the_test_can_reject(tmp_path, capsys, flags, n):
    path = _write_data(tmp_path, n=n, d=2)
    assert main(["test", "--input", str(path), *flags]) == 0
    assert capsys.readouterr().err == ""


def test_study_notes_a_test_that_cannot_reject(tmp_path, capsys):
    out = tmp_path / "pitman"
    assert main(["pitman", "--gamma", "0", "--n-grid", "50", "--R", "2", "--B", "19",
                 "--output", str(out)]) == 0
    assert capsys.readouterr().err == ("note: a Monte Carlo p-value is at least 1/(B + 1) = 0.05, "
                                       "not below alpha = 0.05, so the test cannot reject\n")


def test_test_command_reads_a_csv_with_a_utf8_byte_order_mark(tmp_path, capsys):
    # Excel's "CSV UTF-8" starts the file with a BOM
    path = _write_data(tmp_path)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(["test", "--input", str(path), "--B", "50"]) == 0
    plain = capsys.readouterr().out
    assert main(["test", "--input", str(bom), "--B", "50"]) == 0
    assert capsys.readouterr().out == plain


def test_test_command_exact_beyond_the_enumeration_limit_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_test", lambda *a, **k: pytest.fail("the test ran"))
    path = _write_data(tmp_path, n=ENUM_LIMIT + 1, d=2)
    assert main(["test", "--input", str(path), "--exact"]) == 2
    err = capsys.readouterr().err
    assert f"exact enumeration needs n <= {ENUM_LIMIT} (2^n resamples); got n = {ENUM_LIMIT + 1}" in err
    # the file is read first: one that cannot be parsed still exits 1
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n" * (ENUM_LIMIT + 1) + "3,x\n")
    assert main(["test", "--input", str(bad), "--exact"]) == 1
    assert "non-numeric field" in capsys.readouterr().err


_HUGE_B = 10**12


@pytest.mark.skipif(core._physical_memory_bytes() is None, reason="the OS does not report physical memory")
def test_test_command_B_too_large_for_memory_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_test", lambda *a, **k: pytest.fail("the test ran"))
    path = _write_data(tmp_path, n=60, d=4)
    with pytest.raises(ValueError) as refusal:
        core.resample_plan(60, _HUGE_B)
    out = tmp_path / "out.json"
    assert main(["test", "--input", str(path), "--B", str(_HUGE_B), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {refusal.value}\n")
    assert not out.exists()


@pytest.mark.skipif(core._physical_memory_bytes() is None, reason="the OS does not report physical memory")
def test_simulate_B_too_large_for_memory_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_power_study", lambda *a, **k: pytest.fail("the study ran"))
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"name = big\nB = {_HUGE_B}\noutput = {tmp_path / 'big'}\n"
                   "cell = gaussian(d=2) n=10\ncell = gaussian(d=2) n=40\n")
    with pytest.raises(ValueError) as refusal:
        core.resample_plan(40, _HUGE_B)  # the largest cell's n
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {refusal.value}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["big.cfg"]


@pytest.mark.parametrize("argv, code", [
    (["test", "--input", "latin1"], 1),
    (["subsample", "--sizes", "2", "--input", "latin1"], 1),
    (["simulate", "--config", "latin1"], 2),
], ids=["test", "subsample", "simulate"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, monkeypatch, capsys, argv, code):
    # a CSV is data (a runtime failure, exit 1); a config is usage (exit 2)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1").write_bytes("1.0,2.0\n1.0,caf\u00e9\n".encode("latin-1"))
    assert main(argv) == code
    assert capsys.readouterr().err == "error: latin1: not UTF-8 text (byte 0xe9 on line 2)\n"
    assert [p.name for p in tmp_path.iterdir()] == ["latin1"]


def test_test_command_missing_input(tmp_path, capsys):
    rc = main(["test", "--input", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["test"],
    ["subsample", "--sizes", "2"],
], ids=["test", "subsample"])
def test_malformed_csv_exits_1(tmp_path, monkeypatch, capsys, argv):
    # a file that cannot be parsed is a runtime failure in every subcommand
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("1.0,2.0\n1.0,oops\n")
    assert main([*argv, "--input", "bad.csv"]) == 1
    assert "line 2: non-numeric field" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]


def test_test_command_field_over_csvs_size_limit_exits_1(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("1,2\n" + "x" * 200_000 + ",3\n")
    assert main(["test", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 2: field larger than field limit")
    assert len(err.splitlines()) == 1


def test_test_command_bad_alpha_and_B(tmp_path, capsys):
    path = _write_data(tmp_path, seed=4)
    assert main(["test", "--input", str(path), "--alpha", "1.5"]) == 2
    assert capsys.readouterr().err == "error: alpha must be in (0, 1), got 1.5\n"
    assert main(["test", "--input", str(path), "--B", "0"]) == 2
    assert capsys.readouterr().err == "error: B must be >= 1, got 0\n"


@pytest.mark.parametrize("n, flags, message", [
    (16, ["--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
    (16, ["--alpha", "nan"], "alpha must be in (0, 1), got nan"),
    (16, ["--B", "0"], "B must be >= 1, got 0"),
    (ENUM_LIMIT + 1, ["--exact"],
     f"exact enumeration needs n <= {ENUM_LIMIT} (2^n resamples); got n = {ENUM_LIMIT + 1}"),
    # alpha is checked first, then B, then the enumeration size
    (ENUM_LIMIT + 1, ["--exact", "--B", "0", "--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
    (ENUM_LIMIT + 1, ["--exact", "--B", "0"], "B must be >= 1, got 0"),
], ids=["alpha", "alpha-nan", "B", "exact", "alpha-first", "B-before-exact"])
def test_test_command_usage_error_is_one_stderr_line_and_runs_nothing(
        tmp_path, monkeypatch, capsys, n, flags, message):
    monkeypatch.setattr(cli, "run_test", lambda *a, **k: pytest.fail("the test ran"))
    path = _write_data(tmp_path, n=n, d=2)
    assert main(["test", "--input", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["test"])
    assert exc.value.code == 2


def test_zeta_gaussian_identity(capsys):
    rc = main(["zeta-gaussian", "--sigma", "identity", "--d", "4"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0 0"


def test_zeta_gaussian_matrix(tmp_path, capsys):
    path = tmp_path / "sigma.csv"
    np.savetxt(path, np.diag([4.0, 1.0]), delimiter=",")
    rc = main(["zeta-gaussian", "--sigma", str(path), "--d", "2", "--haar-m", "20000"])
    assert rc == 0
    est, se = map(float, capsys.readouterr().out.split())
    assert abs(est - 0.0158370005815) < 4 * se


def test_zeta_gaussian_errors(tmp_path, capsys):
    assert main(["zeta-gaussian", "--sigma", "identity", "--d", "3", "--haar-m", "0"]) == 2
    path = tmp_path / "sigma.csv"
    np.savetxt(path, np.diag([4.0, 1.0]), delimiter=",")
    assert main(["zeta-gaussian", "--sigma", str(path), "--d", "3"]) == 2
    np.savetxt(path, np.array([[1.0, 2.0], [2.0, 1.0]]), delimiter=",")
    assert main(["zeta-gaussian", "--sigma", str(path), "--d", "2"]) == 2
    capsys.readouterr()
    for d in ("0", "-1"):
        assert main(["zeta-gaussian", "--sigma", "identity", "--d", d]) == 2
        assert capsys.readouterr().err == f"error: --d must be >= 1, got {d}\n"


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_zeta_gaussian_refuses_non_finite_matrix(tmp_path, capsys, bad):
    path = tmp_path / "sigma.csv"
    path.write_text(f"{bad},0\n0,1\n")
    assert main(["zeta-gaussian", "--sigma", str(path), "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: covariance entries must be finite\n"


def test_zeta_gaussian_asks_to_rescale_a_matrix_too_large_to_add_the_identity(tmp_path, capsys):
    path = tmp_path / "sigma.csv"
    path.write_text("8e307,8e307\n8e307,8e307\n")
    # a valid CovSpec that the oracle cannot evaluate: bad input, as a non-finite entry is
    assert main(["zeta-gaussian", "--sigma", str(path), "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lost to rounding" in captured.err and "rescale the covariance" in captured.err


# every covariance the oracle refuses is bad input: an overflow, and a 1e15
# scale whose added identity is partly lost to rounding
@pytest.mark.parametrize("text, reason", [("1e308,0\n0,1\n", "overflow float64"),
                                          ("1e15,1e15\n1e15,1e15\n", "too ill-conditioned")],
                         ids=["overflow", "ill-conditioned"])
def test_zeta_gaussian_exits_2_for_a_covariance_the_oracle_refuses(tmp_path, capsys, text, reason):
    path = tmp_path / "sigma.csv"
    path.write_text(text)
    assert main(["zeta-gaussian", "--sigma", str(path), "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err and "rescale the covariance" in captured.err


def test_simulate_command(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "name = smoke\n"
        "R = 4\n"
        "B = 30\n"
        "seed = 5\n"
        f"output = {tmp_path / 'results' / 'smoke'}\n"
        "cell = gaussian(rho=0,d=2) n=10\n"
    )
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gaussian(rho=0.0,d=2)" in out
    assert (tmp_path / "results" / "smoke.csv").exists()
    payload = json.loads((tmp_path / "results" / "smoke.json").read_text())
    assert payload["config"]["R"] == 4


def test_simulate_empty_grid_exits_2(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("name = empty\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("B = 0", "B must be >= 1"),
    ("alpha = 1.5", "alpha must be in (0, 1)"),
    ("center = median", "center must be one of"),
    ("seed = -1", "seed must be >= 0, got -1"),
], ids=["B", "alpha", "center", "seed"])
def test_simulate_invalid_config_value_exits_2(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"name = bad\nR = 2\n{line}\ncell = gaussian(rho=0,d=2) n=10\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("R = 3", "line 3: key 'R' given twice"),
    ("cell = gaussian(d=2,d=3) n=10", "line 3: key 'cell': parameter 'd' given twice"),
], ids=["key", "parameter"])
def test_simulate_repeated_key_exits_2_and_writes_nothing(tmp_path, capsys, line, message):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(f"name = twice\nR = 2\n{line}\nB = 20\noutput = {tmp_path / 'twice'}\n"
                   "cell = gaussian(rho=0,d=2) n=10\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: {message}")
    assert [path.name for path in tmp_path.iterdir()] == ["twice.cfg"]


def test_simulate_lp_with_d_0_exits_2_before_any_cell_runs(tmp_path, capsys):
    cfg = tmp_path / "lp.cfg"
    out = tmp_path / "lp"
    cfg.write_text(f"name = lp\nR = 2\nB = 20\noutput = {out}\n"
                   "cell = gaussian(rho=0,d=2) n=10\ncell = lp(p=1,d=0) n=10\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "d must be >= 1, got 0" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["lp.cfg"]


@pytest.mark.parametrize("cell, message", [
    ("spiked(gamma=inf,d=3)", "gamma must be finite"),
    ("t(nu=inf,d=3)", "nu must be finite and >= 1"),
], ids=["spiked", "t"])
def test_simulate_infinite_parameter_exits_2_before_any_cell_runs(tmp_path, capsys, cell, message):
    # such a family draws NaN or Inf, so the configuration is refused before any replication
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(f"name = inf\nR = 2\nB = 20\noutput = {tmp_path / 'inf'}\ncell = {cell} n=10\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["inf.cfg"]


def test_simulate_spike_scale_past_the_row_norm_limit_exits_2_and_writes_nothing(tmp_path, capsys):
    # 3 ** 500 is finite, but a draw times it squares past float64
    cfg = tmp_path / "spiked.cfg"
    cfg.write_text(f"name = spiked\nR = 2\nB = 20\noutput = {tmp_path / 'spiked'}\n"
                   "cell = spiked(gamma=1000,d=3) n=10\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "row norms would overflow float64" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["spiked.cfg"]


def test_pitman_command(tmp_path, capsys):
    out = tmp_path / "pitman"
    rc = main(["pitman", "--gamma", "0", "--n-grid", "50", "--R", "3", "--B", "30",
               "--output", str(out)])
    assert rc == 0
    assert (tmp_path / "pitman.csv").exists()
    # invalid local alternative -> usage error
    assert main(["pitman", "--gamma", "0.1", "--n-grid", "50", "--R", "2",
                 "--output", str(out)]) == 2


def test_study_table_columns_line_up_under_their_headers(tmp_path, capsys):
    # Pitman specs run past 70 characters; the spec column is as wide as the longest
    assert main(["pitman", "--gamma", "0", "--R", "2", "--B", "20", "--output", str(tmp_path / "p")]) == 0
    header, rule, *rows, wrote = capsys.readouterr().out.splitlines()
    assert wrote.startswith("wrote ") and rule == "-" * len(header) and len(rows) == 4
    ends = [m.end() for m in re.finditer(r"\S+", header)]
    assert header.split() == ["spec", "n", "d", "power", "se"]
    for row in rows:
        assert len(row.split()) == 5 and len(row) == len(header)
        assert [m.end() for m in re.finditer(r"\S+", row)][1:] == ends[1:]
    assert max(len(row.split()[0]) for row in rows) == ends[1] - 5 - 1 > 70


def test_subsample_command(tmp_path, capsys):
    path = _write_data(tmp_path, n=40, d=2, seed=6)
    out = tmp_path / "sub"
    rc = main(["subsample", "--input", str(path), "--sizes", "10", "15",
               "--R", "3", "--B", "30", "--output", str(out)])
    assert rc == 0
    rows = (tmp_path / "sub.csv").read_text().splitlines()
    assert len(rows) == 3  # header + two sizes
    assert main(["subsample", "--input", str(path), "--sizes", "100",
                 "--R", "2", "--output", str(out)]) == 2


@pytest.mark.parametrize("flags", [
    ["--R", "0"],
    ["--B", "0"],
    ["--alpha", "1.5"],
    ["--seed", "-1"],
    ["--sizes", "10", "100"],
], ids=["R", "B", "alpha", "seed", "sizes"])
def test_subsample_invalid_value_exits_2_and_writes_nothing(tmp_path, capsys, flags):
    path = _write_data(tmp_path, n=40, d=2, seed=6)
    argv = ["subsample", "--input", str(path), "--sizes", "10", "--R", "2", "--B", "20",
            *flags, "--output", str(tmp_path / "sub")]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("sub*"))


def test_subsample_failure_during_run_exits_1(tmp_path, capsys):
    data = np.random.default_rng(2).standard_normal((20, 2))
    data[3] *= 1e300  # row norm overflows float64 inside the test
    path = tmp_path / "huge.csv"
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    rc = main(["subsample", "--input", str(path), "--sizes", "20", "--R", "1", "--B", "20",
               "--center", "none", "--output", str(tmp_path / "sub")])
    assert rc == 1
    assert "row norms overflow" in capsys.readouterr().err


def test_subsample_non_finite_data_exits_1_as_test_does_and_writes_nothing(tmp_path, capsys):
    data = np.random.default_rng(3).standard_normal((200, 3))
    data[17, 1] = np.nan
    path = tmp_path / "nan.csv"
    np.savetxt(path, data, delimiter=",")
    assert main(["test", "--input", str(path), "--B", "20"]) == 1
    want = capsys.readouterr().err
    assert want == "error: sample contains NaN or Inf\n"
    assert main(["subsample", "--input", str(path), "--sizes", "5", "--R", "3",
                 "--output", str(tmp_path / "sub")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", want)
    assert not list(tmp_path.glob("sub*"))


@pytest.mark.parametrize("argv", [
    ["test", "--input", "data.csv"],
    ["zeta-gaussian", "--sigma", "identity", "--d", "2"],
    ["pitman", "--gamma", "0"],
    ["subsample", "--input", "data.csv", "--sizes", "10"],
], ids=["test", "zeta-gaussian", "pitman", "subsample"])
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # refused before any input is read or output written
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _no_pool(*args):
    raise AssertionError("a thread pool started")


@pytest.mark.parametrize("command", ["test", "zeta-gaussian"])
def test_threads_1_runs_without_a_thread_pool(command, tmp_path, monkeypatch, capsys):
    controls = threads.openblas_thread_controls()
    if controls is None:
        pytest.skip("no control of numpy's BLAS threads here")
    if command == "test":
        path = _write_data(tmp_path, n=core.TILE + 1, seed=8)  # two tiles, three tile pairs
        argv = ["test", "--input", str(path), "--B", "20"]
    else:
        path = tmp_path / "sigma.csv"
        np.savetxt(path, np.diag([4.0, 1.0]), delimiter=",")
        argv = ["zeta-gaussian", "--sigma", str(path), "--d", "2", "--haar-m", "5000"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(threads, "ThreadPoolExecutor", _no_pool)
    with threads._openblas_limit(1, *controls):
        assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_test_command_same_bytes_on_one_and_two_threads(tmp_path, capsys):
    # n = 500 is one tile: one task on the calling thread, BLAS held at one thread
    controls = threads.openblas_thread_controls()
    if controls is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read or set here")
    path = _write_data(tmp_path, n=500, d=10, seed=8)
    got = []
    for k in (1, 2):
        out_json = tmp_path / f"out{k}.json"
        with threads._openblas_limit(k, *controls):
            assert main(["test", "--input", str(path), "--B", "500", "--output", str(out_json)]) == 0
        got.append((capsys.readouterr().out, out_json.read_bytes()))
    assert got[0] == got[1]


def test_test_command_same_bytes_under_openblas_num_threads_1_and_2(tmp_path):
    path = _write_data(tmp_path, n=500, d=10, seed=8)
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    got = []
    for k in ("1", "2"):
        out_json = tmp_path / f"out{k}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": k, "PYTHONPATH": pythonpath}
        run = subprocess.run([sys.executable, "-m", "spheresym.cli", "test", "--input", str(path),
                              "--B", "500", "--output", str(out_json)],
                             env=env, capture_output=True, check=True)
        got.append((run.stdout, out_json.read_bytes()))
    assert got[0] == got[1]


def test_exact_help_states_enum_limit(monkeypatch, capsys):
    from spheresym.calibrate import ENUM_LIMIT

    monkeypatch.setenv("COLUMNS", "200")  # keep the help line unwrapped
    with pytest.raises(SystemExit):
        main(["test", "--help"])
    assert f"(n <= {ENUM_LIMIT})" in capsys.readouterr().out
