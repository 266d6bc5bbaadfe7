import json
import math
import re

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
    lines = open(csv_path).read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS) == "name,spec,n,d,R,B,alpha,rejections,power,std_error,seed"
    assert len(lines) == 2
    payload = json.loads(open(json_path).read())
    assert payload["config"] == {"name": "x"}
    assert payload["records"][0]["power"] == 0.25
    # rerun is byte-identical
    write_records(recs, prefix, config_echo={"name": "x"})
    assert open(csv_path).read() == "\n".join(lines) + "\n"


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
