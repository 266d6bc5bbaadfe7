import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from spheresym import RngStream, Sample, calibrate, core, experiments, run_test
from spheresym.augment import CENTER_MODES
from spheresym.distributions import Contaminated, Gaussian, LpSymmetric, Spiked, SphericalT, Subsample, sample
from spheresym.experiments import (
    CSV_COLUMNS,
    Cell,
    ExperimentConfig,
    PowerRecord,
    load_csv_matrix,
    parse_cell,
    parse_config,
    parse_distribution,
    pitman_mixing_weight,
    pitman_spec,
    run_pitman_study,
    run_power_study,
    subsample_config,
    write_records,
)


def test_cell_and_config_validation():
    with pytest.raises(ValueError):
        Cell(Gaussian(d=2), n=1)
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", cells=())
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", cells=(Cell(Gaussian(d=2), 10),), R=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ExperimentConfig(name="x", cells=(Cell(Gaussian(d=2), 10),), seed=-1)
    rows = Subsample(np.zeros((5, 2)), "five")
    assert Cell(rows, 5).n == 5
    for size in (1, 6):
        with pytest.raises(ValueError, match=rf"{size} outside \[2, 5\]"):
            Cell(rows, size)


def test_power_record_derived_fields():
    rec = PowerRecord(name="x", spec="g", n=10, d=2, R=200, B=50, alpha=0.05, rejections=80, seed=0)
    assert rec.power == 0.4
    assert rec.std_error == pytest.approx(math.sqrt(0.4 * 0.6 / 200))
    with pytest.raises(ValueError):
        PowerRecord(name="x", spec="g", n=10, d=2, R=10, B=50, alpha=0.05, rejections=11, seed=0)
    with pytest.raises(ValueError, match="R must be >= 1, got 0"):
        PowerRecord(name="x", spec="g", n=10, d=2, R=0, B=50, alpha=0.05, rejections=0, seed=0)


def test_run_power_study_smoke_and_determinism():
    config = ExperimentConfig(
        name="smoke",
        cells=(Cell(Gaussian(d=2), 12), Cell(Gaussian(d=3, rho=0.9), 12)),
        R=10,
        B=40,
        seed=3,
    )
    a = run_power_study(config)
    b = run_power_study(config)
    assert a == b
    assert [rec.n for rec in a] == [12, 12]
    assert a[0].spec == "gaussian(rho=0.0,d=2)"
    assert all(0 <= rec.power <= 1 for rec in a)


def test_pitman_mixing_weight_values():
    assert pitman_mixing_weight(100, 0.0) == pytest.approx(0.5)
    assert pitman_mixing_weight(100, 0.1) == pytest.approx(5 * 100**0.1 / 10)
    spec = pitman_spec(100, 0.0)
    assert isinstance(spec, Contaminated)
    assert spec.delta == pytest.approx(0.5)
    assert spec.component_g == Gaussian(d=10, rho=0.5)


def test_pitman_spec_rejects_invalid_weight():
    # 5 * 50^0.1 / sqrt(50) > 1, so this local alternative is undefined
    with pytest.raises(ValueError, match="gamma"):
        pitman_spec(50, 0.1)


def test_run_pitman_study_smoke():
    recs = run_pitman_study(0.0, n_grid=(50,), R=5, B=40, seed=1)
    assert len(recs) == 1
    assert recs[0].name == "pitman_gamma0"
    assert recs[0].d == 10 and recs[0].n == 50


def test_load_csv_matrix(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n\n5,6\n")
    m = load_csv_matrix(str(p))
    assert np.array_equal(m, [[1, 2], [3, 4], [5, 6]])
    p.write_text("a,b\n1,2\n")
    assert np.array_equal(load_csv_matrix(str(p), has_header=True), [[1, 2]])
    with pytest.raises(ValueError, match="line 1"):
        load_csv_matrix(str(p))
    p.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv_matrix(str(p))
    p.write_text("\n")
    with pytest.raises(ValueError, match="no data"):
        load_csv_matrix(str(p))


def _outcome(read, path, has_header):
    """A reader's matrix as (shape, bytes), or its refusal as (type, message)."""
    try:
        m = read(str(path), has_header)
    except (OSError, ValueError) as exc:
        return type(exc), str(exc)
    assert m.dtype == np.float64 and m.ndim == 2 and m.flags.c_contiguous
    return m.shape, m.tobytes()


def _write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


def _matrix_text(m, fmt, newline="\n", blanks=()):
    lines = [",".join(fmt(v) for v in row) for row in m]
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    return newline.join(lines) + newline


@pytest.mark.parametrize("fmt", ["%.17g", "repr", "%.6e", "int", "extremes"])
@pytest.mark.parametrize("header", [False, True])
def test_load_csv_matrix_same_bits_as_the_line_reader(tmp_path, fmt, header):
    rng = np.random.default_rng([ord(c) for c in fmt])
    for case in range(6):
        n, d = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        m = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-5, 5)
        if fmt == "int":
            m = np.round(m * 1000) + 0.0  # str(int(-0.0)) is "0"
        if fmt == "extremes":
            pool = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
                    1.7976931348623157e308, -1.7976931348623157e308]
            m.flat[rng.integers(0, m.size, size=m.size // 2 + 1)] = rng.choice(pool, size=m.size // 2 + 1)
        to_text = {"repr": lambda v: repr(float(v)), "int": lambda v: str(int(v)),
                   "%.6e": lambda v: "%.6e" % v}.get(fmt, lambda v: "%.17g" % v)
        blanks = rng.integers(0, n + 1, size=case % 3)
        text = _matrix_text(m, to_text, newline=["\n", "\r\n"][case % 2], blanks=blanks)
        if header:
            text = ",".join(f"c{j}" for j in range(d)) + "\n" + text
        path = _write(tmp_path / f"m{case}.csv", text)
        got = _outcome(load_csv_matrix, path, header)
        assert got == _outcome(experiments._read_csv_lines, path, header)
        if fmt != "%.6e":
            assert got == (m.shape, m.tobytes())  # these spellings round-trip exactly


@pytest.mark.parametrize("text, header, expected", [
    ("1,2\n3,x\n", False, "line 2: non-numeric field"),
    ("1,2\n\n\n3,x\n", False, "line 4: non-numeric field"),
    ("1,2\n3\n", False, "line 2: expected 2 fields, got 1"),
    ("1,2\n3,4,\n", False, "line 2: non-numeric field"),
    ("a,b\n1,2\n", False, "line 1: non-numeric field"),
    ("#c\n1,2\n", False, "line 1: non-numeric field"),
    ("1,2\n\x1c3,4\n", False, "line 2: non-numeric field"),
    ('"1\n",2\n3,x\n', False, "line 3: non-numeric field"),
    ('"1\n\n",2\n3,4\n5\n', False, "line 5: expected 2 fields, got 1"),
    ('"1",2\n3,"4"\n', False, [[1, 2], [3, 4]]),
    ('"a\nb",c\n1,2\n', True, [[1, 2]]),
    ('"a,b\n1,2\n3,4\n', True, "no data rows"),
    ("1_0,2\n", False, [[10, 2]]),
    ("1,2\n   \n3,4\n", False, [[1, 2], [3, 4]]),
    ("\ufeff1.5,2\n", False, [[1.5, 2]]),
    ("\ufeffa,b\n1,2\n", True, [[1, 2]]),
    ("a,b\n", True, "no data rows"),
    ("a,b\n\n", True, "no data rows"),
    ("", False, "no data rows"),
    ("\n\n", False, "no data rows"),
], ids=["non-numeric", "non-numeric-after-blanks", "ragged", "trailing-comma", "no-header-flag",
        "hash", "file-separator", "non-numeric-after-a-quoted-line-break",
        "ragged-after-a-quoted-blank-line", "quoted", "quoted-header-line-break",
        "unclosed-quote-in-header", "underscore",
        "whitespace-line", "bom", "bom-header", "header-only", "header-and-blank", "empty",
        "blank-only"])
def test_load_csv_matrix_gives_the_line_readers_outcome(tmp_path, text, header, expected):
    path = _write(tmp_path / "m.csv", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not escape
        got = _outcome(load_csv_matrix, path, header)
    assert got == _outcome(experiments._read_csv_lines, path, header)
    if isinstance(expected, str):
        assert got[0] is ValueError and f"{path}: {expected}" in got[1]
    else:
        assert got == (np.shape(expected), np.asarray(expected, dtype=float).tobytes())


def test_load_csv_matrix_refuses_a_field_over_csvs_size_limit_by_line(tmp_path):
    # csv.reader raises csv.Error past 131,072 characters a field; the reader names the line
    path = _write(tmp_path / "m.csv", "1,2\n" + "x" * 200_000 + ",3\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: field larger than field limit")):
        load_csv_matrix(str(path))


def test_load_csv_matrix_same_outcome_as_the_line_reader_on_random_text(tmp_path):
    # numbers, separators and the characters where numpy's parser and csv + float() part ways
    tokens = ["1", "-2.5", "3e2", ".", "e", "-", "+", "_", "nan", "inf", "x", ",", ",", "\n", "\n",
              "\r", "\r\n", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u3000",
              "\u0661", "\x00", '"', "#", "\ufeff", "5e-324", "1e308"]
    rng = np.random.default_rng(3)
    path = tmp_path / "r.csv"
    accepted = 0
    for case in range(1500):
        text = "".join(rng.choice(tokens, size=int(rng.integers(0, 16))))
        _write(path, text)
        header = bool(case % 3 == 0)
        got = _outcome(load_csv_matrix, path, header)
        assert got == _outcome(experiments._read_csv_lines, path, header), repr(text)
        accepted += got[0] is not ValueError
    assert accepted > 50


def test_load_csv_matrix_runs_the_line_reader_only_on_refused_or_empty_files(tmp_path, monkeypatch):
    calls = []
    line_reader = experiments._read_csv_lines
    monkeypatch.setattr(experiments, "_read_csv_lines", lambda *a: calls.append(a) or line_reader(*a))
    assert load_csv_matrix(str(_write(tmp_path / "a.csv", "1,2\n\n3,4\n"))).shape == (2, 2)
    assert calls == []
    assert load_csv_matrix(str(_write(tmp_path / "b.csv", "1_0,2\n"))).shape == (1, 2)
    with pytest.raises(ValueError, match="no data rows"):
        load_csv_matrix(str(_write(tmp_path / "c.csv", "a,b\n")), has_header=True)
    assert len(calls) == 2


def test_load_csv_matrix_missing_file_raises_oserror(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(OSError, match="No such file or directory"):
        load_csv_matrix(str(missing))
    with pytest.raises(OSError, match="No such file or directory"):
        experiments._read_csv_lines(str(missing), False)


def test_run_subsample_study(tmp_path, monkeypatch):
    gen = np.random.default_rng(4)
    data = gen.standard_normal((60, 3)) + [5.0, 0.0, 0.0]  # off-center
    p = tmp_path / "data.csv"
    np.savetxt(p, data, delimiter=",")

    def study(sizes, **kwargs):  # as the subsample command runs one
        return run_power_study(subsample_config(load_csv_matrix(str(p)), "data.csv", sizes, **kwargs))

    recs = study((10, 20), R=5, B=40, seed=2)
    assert [rec.n for rec in recs] == [10, 20]
    assert recs[0].d == 3
    again = study((10, 20), R=5, B=40, seed=2)
    assert recs == again
    with pytest.raises(ValueError, match="outside"):
        study((61,), R=1)
    # a bad later size is refused before the first cell runs
    monkeypatch.setattr(experiments, "_rejects", None)
    with pytest.raises(ValueError, match="outside"):
        study((10, 61), R=1)


def test_subsample_config_refuses_non_finite_data_before_any_replication(monkeypatch):
    data = np.random.default_rng(3).standard_normal((200, 3))
    data[17, 1] = np.nan
    monkeypatch.setattr(experiments, "_rejects", lambda *a, **k: pytest.fail("a replication ran"))
    with pytest.raises(ValueError, match="sample contains NaN or Inf"):
        run_power_study(subsample_config(data, "x", (5,), R=3, B=20))


@pytest.mark.parametrize("center_mode", CENTER_MODES)
def test_subsample_study_replication_streams(tmp_path, monkeypatch, center_mode):
    # replication r of cell ci uses RngStream(seed, (ci, r)): child(0) draws
    # the subsample without replacement, child(1) runs the test
    p = tmp_path / "data.csv"
    np.savetxt(p, np.random.default_rng(8).standard_normal((30, 2)) + [0.4, 0.0], delimiter=",")
    data = load_csv_matrix(str(p))
    sizes, R, B, seed = (8, 15), 6, 40, 3
    seen, rejects = [], experiments._rejects

    def recording_rejects(*args, **kwargs):
        # the study's decision routine takes run_test's arguments and gives its decision
        seen.append(run_test(*args, **kwargs))
        decision = rejects(*args, **kwargs)
        assert decision == seen[-1].reject
        return decision

    monkeypatch.setattr(experiments, "_rejects", recording_rejects)
    config = subsample_config(load_csv_matrix(str(p)), "data.csv", sizes, R=R, B=B, seed=seed,
                              center_mode=center_mode)
    recs = run_power_study(config)

    expected, outcomes = [], []
    for ci, size in enumerate(sizes):
        rejections = 0
        for r in range(R):
            rep = RngStream(seed, (ci, r))
            rows = rep.child(0).generator().choice(len(data), size=size, replace=False)
            outcomes.append(run_test(Sample(data[rows]), rep.child(1), B=B, center_mode=center_mode))
            rejections += int(outcomes[-1].reject)
        expected.append(PowerRecord(name="data.csv", spec="subsample(data.csv)", n=size, d=2,
                                    R=R, B=B, alpha=0.05, rejections=rejections, seed=seed))
    assert recs == expected
    assert seen == outcomes


# (n, alpha, B, tile, center): every n <= TILE pass is one task and may stop
# early; tile 128 makes n = 300 a pass of six tasks, which runs in full
_STOPPED_STUDY_CASES = [
    (40, 0.05, 500, 512, "none"),
    (40, 0.01, 99, 512, "none"),
    (40, 0.1, 19, 512, "none"),
    (40, 0.05, 1, 512, "none"),
    (300, 0.05, 500, 512, "none"),
    (300, 0.01, 500, 512, "none"),
    (300, 0.1, 99, 512, "none"),
    (300, 0.05, 19, 512, "spatial-median"),
    (500, 0.05, 500, 512, "none"),
    (500, 0.1, 500, 512, "none"),
    (500, 0.01, 99, 512, "none"),
    (300, 0.05, 500, 128, "none"),
    (300, 0.1, 99, 128, "none"),
]


@pytest.mark.parametrize("n, alpha, B, tile, center_mode", _STOPPED_STUDY_CASES)
def test_study_rejections_are_run_tests_decisions(monkeypatch, n, alpha, B, tile, center_mode):
    monkeypatch.setattr(core, "TILE", tile)
    cells = (Cell(Gaussian(d=5), n), Cell(pitman_spec(n, 0.0), n), Cell(Gaussian(d=5, rho=0.3), n))
    config = ExperimentConfig(name="stop", cells=cells, R=5, B=B, alpha=alpha, seed=7,
                              center_mode=center_mode)
    decisions = []
    for ci, cell in enumerate(cells):
        for r in range(config.R):
            rep = RngStream(config.seed, (ci, r))
            data = sample(cell.spec, n, rep.child(0))
            decisions.append(run_test(data, rep.child(1), alpha=alpha, B=B, center_mode=center_mode).reject)
    got = [rec.rejections for rec in run_power_study(config)]
    assert got == [sum(decisions[ci * config.R:(ci + 1) * config.R]) for ci in range(len(cells))]
    # both decisions occur wherever a count can reject, so both are compared
    if calibrate._stop_count(B, alpha) > 0:
        assert 0 < sum(decisions) < len(decisions)
    else:
        assert not any(decisions)


def test_write_records_outputs(tmp_path):
    recs = [
        PowerRecord(name="x", spec="g", n=10, d=2, R=20, B=50, alpha=0.05, rejections=5, seed=0)
    ]
    prefix = str(tmp_path / "out" / "res")
    csv_path, json_path = write_records(recs, prefix, config_echo={"name": "x"})
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS) == "name,spec,n,d,R,B,alpha,rejections,power,std_error,seed"
    assert len(lines) == 2
    payload = json.loads(Path(json_path).read_text())
    assert payload["config"] == {"name": "x"}
    assert payload["records"][0]["power"] == 0.25
    # rerun is byte-identical
    write_records(recs, prefix, config_echo={"name": "x"})
    assert Path(csv_path).read_text() == "\n".join(lines) + "\n"


def test_parse_distribution_families():
    assert parse_distribution("gaussian(rho=0.5, d=5)") == Gaussian(d=5, rho=0.5)
    assert parse_distribution("gaussian(d=3)") == Gaussian(d=3)
    assert parse_distribution("t(nu=2,d=4)") == SphericalT(d=4, nu=2)
    assert parse_distribution("cauchy(d=2)") == SphericalT(d=2, nu=1.0)
    assert parse_distribution("lp(p=inf,d=6)") == LpSymmetric(d=6, p=math.inf)
    assert parse_distribution("spiked(gamma=1,d=32)") == Spiked(d=32, gamma=1.0)
    assert parse_distribution("angular()").d == 5
    assert parse_distribution("mixture4()").d == 5


def test_parse_distribution_nested_mixture():
    spec = parse_distribution(
        "contaminated(delta=0.5,f=gaussian(rho=0,d=10),g=gaussian(rho=0.5,d=10))"
    )
    assert spec == Contaminated(0.5, Gaussian(d=10), Gaussian(d=10, rho=0.5))
    with pytest.raises(ValueError, match="'g'"):
        parse_distribution("contaminated(delta=0.5,f=gaussian(d=2))")


def test_parse_distribution_errors():
    with pytest.raises(ValueError, match="descriptor"):
        parse_distribution("gaussian")
    with pytest.raises(ValueError, match="'d'"):
        parse_distribution("gaussian(rho=0.5)")
    with pytest.raises(ValueError, match="unknown distribution family"):
        parse_distribution("weird(d=2)")
    with pytest.raises(ValueError, match="unused"):
        parse_distribution("gaussian(d=2,nu=3)")
    for text in ("gaussian(rho=0.5,d=2.7)", "spiked(d=3.9,gamma=1)", "angular(d=inf)"):
        with pytest.raises(ValueError, match=r"d must be an integer.*" + re.escape(text)):
            parse_distribution(text)
    assert parse_distribution("gaussian(d=3.0)") == Gaussian(d=3)


@pytest.mark.parametrize("text, key", [
    ("gaussian(d=2,d=3)", "d"),
    ("t(nu=3, d=2, nu=4)", "nu"),
    ("contaminated(delta=0.5,f=gaussian(d=2),f=gaussian(d=3),g=gaussian(d=2))", "f"),
    ("contaminated(delta=0.5,f=gaussian(d=2,d=3),g=gaussian(d=2))", "d"),
], ids=["gaussian", "t", "contaminated", "nested"])
def test_parse_distribution_refuses_a_repeated_parameter(text, key):
    with pytest.raises(ValueError, match=f"parameter '{key}' given twice"):
        parse_distribution(text)


def test_parse_cell():
    cell = parse_cell("gaussian(rho=0,d=2) n=20")
    assert cell == Cell(Gaussian(d=2), 20)
    with pytest.raises(ValueError, match="n="):
        parse_cell("gaussian(rho=0,d=2)")


def test_parse_config_full(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "# comment\n"
        "name = demo\n"
        "R = 7\n"
        "B = 33\n"
        "alpha = 0.1\n"
        "seed = 5\n"
        "output = results/demo\n"
        "cell = gaussian(rho=0,d=2) n=20   # grid row\n"
        "cell = t(nu=3,d=4) n=10\n"
    )
    cfg = parse_config(str(p))
    assert cfg.name == "demo"
    assert cfg.R == 7 and cfg.B == 33 and cfg.alpha == 0.1 and cfg.seed == 5
    assert cfg.output == "results/demo"
    assert cfg.cells == (Cell(Gaussian(d=2), 20), Cell(SphericalT(d=4, nu=3), 10))


def test_parse_config_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("name = x\nR = seven\ncell = gaussian(d=2) n=10\n")
    with pytest.raises(ValueError, match="'R'"):
        parse_config(str(p))
    p.write_text("name = x\nbogus = 1\ncell = gaussian(d=2) n=10\n")
    with pytest.raises(ValueError, match="bogus"):
        parse_config(str(p))
    p.write_text("R = 5\ncell = gaussian(d=2) n=10\n")
    with pytest.raises(ValueError, match="'name'"):
        parse_config(str(p))
    p.write_text("name = x\ncell = nope n=10\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_config(str(p))
    p.write_text("name = x\n")
    with pytest.raises(ValueError, match="empty"):
        parse_config(str(p))


@pytest.mark.parametrize("line, message", [
    ("R = seven", "key 'R': bad value 'seven'"),
    ("R = 5#6", "key 'R': bad value '5#6'"),
    ("bogus = 1", "unknown key 'bogus'"),
], ids=["word", "hash", "unknown"])
def test_parse_config_names_the_line_of_a_bad_value_or_key(tmp_path, line, message):
    p = tmp_path / "bad.cfg"
    p.write_text(f"name = x\n{line}\ncell = gaussian(d=2) n=10\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: line 2: {message}")):
        parse_config(str(p))


def test_parse_config_keeps_a_hash_inside_a_value(tmp_path):
    p = tmp_path / "hash.cfg"
    p.write_text("name = x\n"
                 "output = results/run#1   # run one\n"
                 "\t# an indented comment\n"
                 "#R = 5\n"
                 "cell = gaussian(d=2) n=10\t#grid\n")
    cfg = parse_config(str(p))
    assert cfg.output == "results/run#1"
    assert cfg.R == 200
    assert cfg.cells == (Cell(Gaussian(d=2), 10),)


@pytest.mark.parametrize("lines, message", [
    ("R = 5\nR = 7\n", "line 3: key 'R' given twice"),
    ("output = a\nseed = 1\noutput = b\n", "line 4: key 'output' given twice"),
    ("name = y\n", "line 2: key 'name' given twice"),
    ("cell = gaussian(d=2,d=3) n=10\n", "line 2: key 'cell': parameter 'd' given twice"),
], ids=["R", "output", "name", "cell-parameter"])
def test_parse_config_refuses_a_repeated_key(tmp_path, lines, message):
    p = tmp_path / "twice.cfg"
    p.write_text(f"name = x\n{lines}cell = gaussian(d=2) n=10\ncell = gaussian(d=3) n=10\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
        parse_config(str(p))


def test_rng_stream_refuses_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        RngStream(-1)
    with pytest.raises(ValueError, match="got -2"):
        RngStream(-2, (0, 1))


def test_replication_streams_are_cell_disjoint():
    # same seed, different cell index -> different data stream
    a = RngStream(9, (0, 0)).generator().standard_normal(4)
    b = RngStream(9, (1, 0)).generator().standard_normal(4)
    assert not np.allclose(a, b)
