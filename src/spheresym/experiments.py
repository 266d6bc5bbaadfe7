"""Desk-scale simulation studies: level, power, efficiency, subsampling.

Every study is an :class:`ExperimentConfig` run by :func:`run_power_study`;
:func:`pitman_config` and :func:`subsample_config` build the paper's two.
Each study runs R seeded replications per grid cell and aggregates the
rejection fraction into :class:`PowerRecord` rows, written as plot-ready CSV
plus an audit JSON echoing the full configuration.  Per-replication streams
are fixed a priori from (seed, cell index, replication index), so reruns are
bit-reproducible and aggregation order is irrelevant.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .augment import CENTER_MODES
from .calibrate import DEFAULT_ALPHA, DEFAULT_B, _check_alpha, _check_B, _rejects
from .distributions import (
    AngularSymmetric,
    Contaminated,
    DistributionSpec,
    FourComponentMixture,
    Gaussian,
    LpSymmetric,
    Spiked,
    SphericalT,
    Subsample,
    describe,
    sample,
)
from .rng import RngStream

DEFAULT_R = 200
PITMAN_GRID = (50, 100, 250, 500)


@dataclass(frozen=True)
class Cell:
    spec: DistributionSpec
    n: int

    def __post_init__(self):
        rows = len(self.spec.data) if isinstance(self.spec, Subsample) else math.inf
        if not (2 <= self.n <= rows):
            raise ValueError(f"cell sample size {self.n} outside [2, {rows}]")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    cells: tuple[Cell, ...]
    R: int = DEFAULT_R
    B: int = DEFAULT_B
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    output: str | None = None
    center_mode: str = "none"

    def __post_init__(self):
        if self.R < 1:
            raise ValueError(f"R must be >= 1, got {self.R}")
        _check_B(self.B)
        _check_alpha(self.alpha)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.center_mode not in CENTER_MODES:
            raise ValueError(f"center must be one of {CENTER_MODES}, got {self.center_mode!r}")
        if len(self.cells) == 0:
            raise ValueError("experiment grid is empty")


@dataclass(frozen=True)
class PowerRecord:
    """One grid cell's result; the field order is the CSV column order."""

    name: str
    spec: str
    n: int
    d: int
    R: int
    B: int
    alpha: float
    rejections: int
    power: float = field(init=False)
    std_error: float = field(init=False)
    seed: int

    def __post_init__(self):
        if self.R < 1:
            raise ValueError(f"R must be >= 1, got {self.R}")
        if not (0 <= self.rejections <= self.R):
            raise ValueError("rejection count out of range")
        power = self.rejections / self.R
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "std_error", math.sqrt(power * (1.0 - power) / self.R))

    def to_dict(self) -> dict:
        return asdict(self)


CSV_COLUMNS = [f.name for f in fields(PowerRecord)]


def run_power_study(config: ExperimentConfig) -> list[PowerRecord]:
    """Rejection fraction per grid cell over R seeded replications.

    Replication r of cell ci uses ``RngStream(seed, (ci, r))``: ``child(0)``
    draws the sample and ``child(1)`` runs the test.  Each decision is
    ``run_test``'s, but a replication's resampling stops once its decision
    is fixed (``calibrate._rejects``), so no p-value is kept.
    """
    records = []
    for ci, cell in enumerate(config.cells):
        rejections = 0
        for r in range(config.R):
            rep = RngStream(config.seed, (ci, r))
            data = sample(cell.spec, cell.n, rep.child(0))
            rejections += _rejects(
                data, rep.child(1), alpha=config.alpha, B=config.B, center_mode=config.center_mode
            )
        records.append(
            PowerRecord(
                name=config.name,
                spec=describe(cell.spec),
                n=cell.n,
                d=cell.spec.d,
                R=config.R,
                B=config.B,
                alpha=config.alpha,
                rejections=rejections,
                seed=config.seed,
            )
        )
    return records


def pitman_mixing_weight(n: int, gamma: float) -> float:
    """Contamination weight 5 n^gamma / sqrt(n) of the efficiency study."""
    return 5.0 * n**gamma / math.sqrt(n)


def pitman_spec(n: int, gamma: float) -> Contaminated:
    """Local alternative in R^10: mostly standard normal, a vanishing share
    of an equicorrelated normal (0.5 I + 0.5 J)."""
    w = pitman_mixing_weight(n, gamma)
    if not (0.0 <= w <= 1.0):
        raise ValueError(
            f"mixing weight {w:.4f} outside [0, 1] for n={n}, gamma={gamma}"
        )
    return Contaminated(
        delta=w,
        component_f=Gaussian(d=10, rho=0.0),
        component_g=Gaussian(d=10, rho=0.5),
    )


def pitman_config(
    gamma: float,
    n_grid: tuple[int, ...] = PITMAN_GRID,
    R: int = DEFAULT_R,
    B: int = DEFAULT_B,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> ExperimentConfig:
    """The sqrt(n)-local contamination study, one cell per n in ``n_grid``."""
    cells = tuple(Cell(pitman_spec(n, gamma), n) for n in n_grid)
    return ExperimentConfig(
        name=f"pitman_gamma{gamma:g}", cells=cells, R=R, B=B, alpha=alpha, seed=seed
    )


def run_pitman_study(
    gamma: float,
    n_grid: tuple[int, ...] = PITMAN_GRID,
    R: int = DEFAULT_R,
    B: int = DEFAULT_B,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> list[PowerRecord]:
    """Power along the sqrt(n)-local contamination alternatives."""
    return run_power_study(pitman_config(gamma, n_grid, R, B, alpha, seed))


def load_csv_matrix(path: str, has_header: bool = False) -> np.ndarray:
    """Parse a numeric CSV into an n x d matrix with line-numbered errors.

    numpy's C parser reads the file.  A file it refuses or finds empty goes
    through the line reader, which accepts a few spellings numpy refuses
    (``1_0``, whitespace-only lines, quoted fields) and names the file line of
    a refusal, where numpy's messages count data rows from 0.
    """
    try:
        # an open handle, not the path: numpy would also fetch URLs and unpack .gz files
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
            # The readers differ only here: numpy strips \x1c-\x1f as whitespace
            # where float() refuses them, and csv unquotes fields and joins quoted lines.
            if not any(c in text for c in '"\x1c\x1d\x1e\x1f'):
                del text
                fh.seek(0)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                    data = np.loadtxt(fh, delimiter=",", skiprows=int(has_header), ndmin=2,
                                      comments=None, dtype=float)
                if len(data):
                    return data
    except ValueError:  # not UTF-8, or refused: the line reader names the line
        pass
    return _read_csv_lines(path, has_header)


def _read_csv_lines(path: str, has_header: bool) -> np.ndarray:
    """The line reader: one ``float()`` per field, refusals by file line."""
    rows = []
    width = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for record, row in enumerate(reader, start=1):
                if has_header and record == 1:
                    continue
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                # the file line the record ends on: a quoted field may span lines
                line = reader.line_num
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise ValueError(f"{path}: line {line}: non-numeric field ({exc})") from None
                if width is None:
                    width = len(values)
                elif len(values) != width:
                    raise ValueError(f"{path}: line {line}: expected {width} fields, got {len(values)}")
                rows.append(values)
        except csv.Error as exc:  # such as a field over csv's size limit
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows)


def _not_utf8(path: str) -> ValueError:
    """The refusal of a file that is not UTF-8 text, naming the line of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return ValueError(f"{path}: not UTF-8 text (byte 0x{raw[exc.start]:02x} on line {line})")
    return ValueError(f"{path}: not UTF-8 text")


def subsample_config(
    data: np.ndarray,
    name: str,
    subsample_sizes: tuple[int, ...],
    R: int = DEFAULT_R,
    B: int = DEFAULT_B,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    center_mode: str = "spatial-median",
) -> ExperimentConfig:
    """The subsampling study of a dataset named ``name``, one cell per subsample size.

    Centering (spatial median by default) is recomputed per subsample.
    """
    cells = tuple(Cell(Subsample(data, name), size) for size in subsample_sizes)
    return ExperimentConfig(
        name=name, cells=cells, R=R, B=B, alpha=alpha, seed=seed, center_mode=center_mode
    )


def write_records(records: list[PowerRecord], out_prefix: str, config_echo: dict | None = None) -> tuple[str, str]:
    """Write <prefix>.csv (plot-ready) and <prefix>.json (audit)."""
    out_dir = os.path.dirname(out_prefix)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    csv_path = out_prefix + ".csv"
    json_path = out_prefix + ".json"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec.to_dict())
    payload = {
        "config": config_echo or {},
        "records": [rec.to_dict() for rec in records],
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


# --- configuration file format -------------------------------------------
#
# Flat "key = value" lines; '#' starts a comment.  Repeated "cell" keys build
# the grid; any other key, or a descriptor's parameter, may appear once.  Example:
#
#     name = level_example1a
#     R = 500
#     B = 500
#     alpha = 0.05
#     seed = 11
#     output = results/level_example1a
#     cell = gaussian(rho=0,d=2) n=20
#     cell = gaussian(rho=0,d=32) n=20

# Each config key's ExperimentConfig field and converter; a key left out keeps the field's default.
CONFIG_KEYS = {"name": ("name", str), "R": ("R", int), "B": ("B", int), "alpha": ("alpha", float),
               "seed": ("seed", int), "output": ("output", str), "center": ("center_mode", str)}


def _split_top(body: str) -> list[str]:
    # split on commas outside parentheses, so nested descriptors survive
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def parse_distribution(text: str) -> DistributionSpec:
    """Parse a compact family descriptor like ``gaussian(rho=0.5,d=5)``.

    Mixtures nest: ``contaminated(delta=0.5,f=gaussian(rho=0,d=10),g=gaussian(rho=0.5,d=10))``.
    """
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"bad distribution descriptor: {text!r}")
    family, _, rest = text.partition("(")
    family = family.strip().lower()
    body = rest[:-1].strip()
    items: dict[str, str] = {}
    if body:
        for item in _split_top(body):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"bad parameter {item!r} in {text!r}")
            if key in items:
                raise ValueError(f"parameter {key!r} given twice in {text!r}")
            items[key] = value.strip()

    if family == "contaminated":
        for key in ("delta", "f", "g"):
            if key not in items:
                raise ValueError(f"distribution 'contaminated' needs parameter {key!r}")
        spec = Contaminated(
            delta=float(items.pop("delta")),
            component_f=parse_distribution(items.pop("f")),
            component_g=parse_distribution(items.pop("g")),
        )
        if items:
            raise ValueError(f"unused parameters {sorted(items)} for family {family!r}")
        return spec

    params: dict[str, float] = {}
    for key, value in items.items():
        try:
            params[key] = math.inf if value in ("inf", "Inf") else float(value)
        except ValueError:
            raise ValueError(f"bad parameter {key}={value!r} in {text!r}") from None

    def need(key, default=None):
        if key in params:
            return params.pop(key)
        if default is not None:
            return default
        raise ValueError(f"distribution {family!r} needs parameter {key!r}")

    def need_d(default=None) -> int:
        d = need("d", default)
        if not float(d).is_integer():
            raise ValueError(f"d must be an integer, got d={d:g} in {text!r}")
        return int(d)

    if family == "gaussian":
        spec = Gaussian(d=need_d(), rho=need("rho", Gaussian.rho))
    elif family in ("t", "student"):
        spec = SphericalT(d=need_d(), nu=need("nu"))
    elif family == "cauchy":
        spec = SphericalT(d=need_d(), nu=1.0)
    elif family == "lp":
        spec = LpSymmetric(d=need_d(), p=need("p"))
    elif family == "angular":
        spec = AngularSymmetric(d=need_d(AngularSymmetric.d))
    elif family == "mixture4":
        spec = FourComponentMixture(d=need_d(FourComponentMixture.d))
    elif family == "spiked":
        spec = Spiked(d=need_d(), gamma=need("gamma"))
    else:
        raise ValueError(f"unknown distribution family: {family!r}")
    if params:
        raise ValueError(f"unused parameters {sorted(params)} for family {family!r}")
    return spec


def parse_cell(text: str) -> Cell:
    parts = text.strip().rsplit(None, 1)
    if len(parts) != 2 or not parts[1].startswith("n="):
        raise ValueError(f"cell must look like '<family(...)> n=<int>', got {text!r}")
    spec = parse_distribution(parts[0])
    n = int(parts[1][2:])
    return Cell(spec=spec, n=n)


def parse_config(path: str) -> ExperimentConfig:
    """Read an experiment configuration file; errors name the offending line and key.

    The file is UTF-8 text, optionally with a byte-order mark.  A ``#`` at the
    start of a line or after whitespace starts a comment; one inside a value,
    as in ``output = results/run#1``, is part of the value.  Keys apply in file
    order through :data:`CONFIG_KEYS` and :class:`ExperimentConfig`'s checks.
    """
    values: dict[str, tuple[str, int]] = {}  # key -> (value, line number)
    cells: list[Cell] = []
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        for lineno, raw in enumerate(lines, start=1):
            line = re.split(r"(?:^|(?<=\s))#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key = key.strip()
            value = value.strip()
            if key == "cell":
                try:
                    cells.append(parse_cell(value))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: key 'cell': {exc}") from None
            elif key in values:
                raise ValueError(f"{path}: line {lineno}: key {key!r} given twice")
            else:
                values[key] = value, lineno

    if "name" not in values:
        raise ValueError(f"{path}: missing required key 'name'")
    config = ExperimentConfig(name=values["name"][0], cells=tuple(cells))
    for key, (value, lineno) in values.items():  # in file order
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        attr, convert = CONFIG_KEYS[key]
        try:
            converted = convert(value)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: key {key!r}: bad value {value!r}") from None
        try:
            config = replace(config, **{attr: converted})
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: key {key!r}: {exc}") from None
    return config
