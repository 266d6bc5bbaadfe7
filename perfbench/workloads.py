"""The four benchmark workloads.

Each workload makes its inputs from the benchmark seed and runs its op mix in
rounds: one round calls every op kind once, and round r uses input set
r % pool.  For each op a workload knows:

- ``invoke``: the one public spheresym call that is timed;
- ``result``: that call's output as a plain dict;
- ``traced``: the same call rebuilt from the public functions it is made of,
  with a span around each, returning a dict whose every entry must equal
  the untraced result's;
- ``check``: the correctness gate, exact against ``reference.json`` for the
  default seed and invariants only for any other seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, replace

import numpy as np

import spheresym.cli as cli
from spheresym import (
    RngStream,
    Sample,
    augment,
    build_gram,
    center,
    exact_pvalue,
    mc_pvalue,
    run_test,
    spatial_median,
    zeta_hat,
)
from spheresym.distributions import Gaussian, describe
from spheresym.distributions import sample as draw_sample
from spheresym.experiments import PowerRecord, load_csv_matrix, pitman_spec, run_pitman_study
from spheresym.oracle import CovSpec, HaarConfig, gaussian_zeta, mc_zeta

DEFAULT_SEED = 0
ALPHA = 0.05
B = 500
# Relative tolerance for statistics against the stored reference: they are
# sums of ~n^2 kernel values, so another BLAS or libm may move the last few
# bits.  p-values, decisions and rejection counts must match exactly.
STAT_RTOL = 1e-9
OUTCOME_KEYS = ("statistic", "p_value", "reject")


class CheckFailed(Exception):
    """An op's output is wrong, or a traced composition disagrees with it."""


@dataclass(frozen=True)
class Op:
    kind: str  # latency group, e.g. "n=50"
    key: str  # reference key, unique within the workload's input pool
    args: tuple


def array_bytes(obj) -> int:
    """Bytes held by the numpy arrays stored on ``obj``."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def count_gram(tracer, aug, cache) -> None:
    tracer.count("core.kernel_evals", (2 * aug.n) ** 2)
    tracer.count("core.gram_bytes", array_bytes(cache))


def composed_run_test(sample, rng, tracer, *, B=B, alpha=ALPHA, center_mode="none", exact=False):
    """``run_test`` rebuilt from its public steps, one span per step."""
    with tracer.span("calibrate.run_test"):
        with tracer.span("augment.center"):
            centered = center(sample, mode=center_mode)
        with tracer.span("augment.augment"):
            aug = augment(centered, rng.child(0))
        with tracer.span("core.build_gram"):
            cache = build_gram(aug)
        with tracer.span("core.zeta_hat"):
            zeta_hat(aug, cache)
        if exact:
            with tracer.span("calibrate.exact_pvalue"):
                outcome = exact_pvalue(cache, alpha=alpha)
            masks = 1 << aug.n
        else:
            with tracer.span("calibrate.mc_pvalue"):
                outcome = mc_pvalue(cache, B, rng.child(1), alpha=alpha)
            masks = B
        outcome = replace(outcome, seed=rng.seed, center=center_mode)
    count_gram(tracer, aug, cache)
    tracer.count("calibrate.masks", masks)
    tracer.count("calibrate.quadform_flops", 2 * masks * aug.n * aug.n)
    return outcome


def check_outcome(res: dict, ref: dict | None, *, n: int, exact: bool) -> None:
    stat, p, reject = res["statistic"], res["p_value"], res["reject"]
    if not abs(stat) <= 2.0:
        raise CheckFailed(f"|statistic| > 2: {stat}")
    if reject != (p < ALPHA):
        raise CheckFailed(f"reject={reject} but p={p}, alpha={ALPHA}")
    if exact:
        count = p * (1 << n)
        if not (2 <= count <= (1 << n) and count == int(count)):
            raise CheckFailed(f"exact p-value {p} is not k / 2^{n} with k >= 2")
    elif not (1.0 / (B + 1) <= p <= 1.0):
        raise CheckFailed(f"p-value {p} outside [1/(B+1), 1]")
    if ref is None:
        return
    if p != ref["p_value"] or reject != ref["reject"]:
        raise CheckFailed(f"p={p}, reject={reject}; reference p={ref['p_value']}, reject={ref['reject']}")
    if abs(stat - ref["statistic"]) > STAT_RTOL * abs(ref["statistic"]):
        raise CheckFailed(f"statistic {stat!r} differs from reference {ref['statistic']!r}")


class Workload:
    name = ""
    why = ""
    pool = 1
    ref_keys: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    @classmethod
    def definition(cls) -> dict:
        raise NotImplementedError

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> None:
        for op in self.round_ops(0):
            self.invoke(op)

    def invoke(self, op: Op):
        raise NotImplementedError

    def result(self, op: Op, raw) -> dict:
        raise NotImplementedError

    def traced(self, op: Op, tracer) -> dict:
        raise NotImplementedError

    def check(self, op: Op, res: dict, ref: dict | None) -> None:
        raise NotImplementedError


class Study(Workload):
    name = "study"
    why = ("acceptance criterion-2 grid through run_pitman_study: simulation-study traffic; "
           "mc_pvalue leads at small n, build_gram at n=500")
    GRID = (50, 100, 250, 500)
    GAMMA = 0.0
    pool = 50
    ref_keys = ("rejections",)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        gen = np.random.default_rng([seed, 1])
        self.rep_seeds = [int(s) for s in gen.integers(0, 2**31, size=self.pool)]

    @classmethod
    def definition(cls):
        return {"op": "run_pitman_study(gamma, (n,), R=1, B, alpha, seed=<from pool>)",
                "gamma": cls.GAMMA, "d": 10, "B": B, "alpha": ALPHA, "n": list(cls.GRID),
                "input_pool": cls.pool}

    def round_ops(self, r):
        i = r % self.pool
        return [Op(f"n={n}", f"n={n}/{i}", (n, self.rep_seeds[i])) for n in self.GRID]

    def invoke(self, op):
        n, s = op.args
        return run_pitman_study(self.GAMMA, (n,), R=1, B=B, alpha=ALPHA, seed=s)

    def result(self, op, raw):
        return raw[0].to_dict()

    def traced(self, op, tracer):
        # Mirrors run_pitman_study -> run_power_study -> _cell_power for one
        # cell (index 0) and one replication (index 0).
        n, s = op.args
        with tracer.span("experiments.run_pitman_study"):
            spec = pitman_spec(n, self.GAMMA)
            rep = RngStream(s, (0, 0))
            with tracer.span("distributions.sample"):
                data = draw_sample(spec, n, rep.child(0))
            outcome = composed_run_test(data, rep.child(1), tracer)
            record = PowerRecord(name=f"pitman_gamma{self.GAMMA:g}", spec=describe(spec), n=n,
                                 d=spec.d, R=1, B=B, alpha=ALPHA, rejections=int(outcome.reject),
                                 seed=s)
        if outcome != run_test(data, rep.child(1), alpha=ALPHA, B=B):
            raise CheckFailed(f"{op.key}: composed pipeline differs from run_test")
        return record.to_dict()

    def check(self, op, res, ref):
        if res["rejections"] not in (0, 1):
            raise CheckFailed(f"rejection count {res['rejections']} outside [0, R=1]")
        if ref is not None and res["rejections"] != ref["rejections"]:
            raise CheckFailed(f"rejections {res['rejections']} != reference {ref['rejections']}")


class CliLarge(Workload):
    name = "cli_large"
    why = ("single-dataset user path: spheresym test on a 2000x10 off-centre spherical-t3 CSV with "
           "spatial-median centering; build_gram sets both time and peak memory")
    N, D, NU = 2000, 10, 3
    pool = 8
    ref_keys = OUTCOME_KEYS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        gen = np.random.default_rng([seed, 2])
        z = gen.standard_normal((self.N, self.D))
        w = gen.chisquare(self.NU, size=self.N)
        x = z / np.sqrt(w / self.NU)[:, None] + 2.0 * gen.standard_normal(self.D)
        self.csv = os.path.join(workdir, "cli_large.csv")
        np.savetxt(self.csv, x, fmt="%.17g", delimiter=",")
        self.out = os.path.join(workdir, "cli_large.json")
        self.traced_out = os.path.join(workdir, "cli_large_traced.json")
        self.cli_seeds = [int(s) for s in gen.integers(0, 2**31, size=self.pool)]

    @classmethod
    def definition(cls):
        return {"op": "cli.main(['test', '--input', <csv>, '--center', 'spatial-median', "
                      "'--B', B, '--seed', <from pool>, '--output', <json>])",
                "n": cls.N, "d": cls.D, "data": f"spherical t(nu={cls.NU}) shifted off the origin",
                "B": B, "input_pool": cls.pool}

    def argv(self, s, out):
        return ["test", "--input", self.csv, "--center", "spatial-median", "--B", str(B),
                "--seed", str(s), "--output", out]

    def round_ops(self, r):
        i = r % self.pool
        return [Op(f"n={self.N}", f"seed/{i}", (self.cli_seeds[i],))]

    def invoke(self, op):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv(op.args[0], self.out))

    def result(self, op, raw):
        if raw != 0:
            raise CheckFailed(f"cli exit code {raw}")
        with open(self.out) as fh:
            return json.load(fh)

    def traced(self, op, tracer):
        # Mirrors cli.main -> cmd_test.
        with tracer.span("cli.main"):
            args = cli.build_parser().parse_args(self.argv(op.args[0], self.traced_out))
            with tracer.span("experiments.load_csv_matrix"):
                data = load_csv_matrix(args.input, has_header=args.header)
            outcome = composed_run_test(Sample(data), RngStream(args.seed), tracer, B=args.B,
                                        alpha=args.alpha, center_mode=args.center, exact=args.exact)
            with contextlib.redirect_stdout(io.StringIO()):
                print(f"statistic {outcome.statistic:.10g}")
                print(f"p_value {outcome.p_value:.10g}")
                print(f"reject {str(outcome.reject).lower()}")
            with open(args.output, "w") as fh:
                json.dump(outcome.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        tracer.count("experiments.csv_rows", data.shape[0])
        tracer.count("augment.center_iters", spatial_median(Sample(data)).n_iter)
        return outcome.to_dict()

    def check(self, op, res, ref):
        check_outcome(res, ref, n=self.N, exact=False)


class Exact(Workload):
    name = "exact"
    why = ("exact p-value by enumerating all 2^n swaps at n 16-20, d 2 and 10: enumeration is over "
           "99% of each op, so a Gram-matrix change should show no effect here")
    SIZES = ((16, 2), (16, 10), (18, 2), (18, 10), (20, 2), (20, 10))
    pool = 4
    ref_keys = OUTCOME_KEYS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        gen = np.random.default_rng([seed, 3])
        self.inputs = {
            (n, d, i): (Sample(gen.standard_normal((n, d))), int(gen.integers(0, 2**31)))
            for i in range(self.pool) for n, d in self.SIZES
        }

    @classmethod
    def definition(cls):
        return {"op": "run_test(Sample(N(0, I_d) rows), RngStream(<from pool>), alpha, exact=True)",
                "n,d": [list(s) for s in cls.SIZES], "alpha": ALPHA, "input_pool": cls.pool}

    def round_ops(self, r):
        i = r % self.pool
        return [Op(f"n={n},d={d}", f"n={n},d={d}/{i}", self.inputs[(n, d, i)]) for n, d in self.SIZES]

    def invoke(self, op):
        sample, s = op.args
        return run_test(sample, RngStream(s), alpha=ALPHA, exact=True)

    def result(self, op, raw):
        return raw.to_dict()

    def traced(self, op, tracer):
        sample, s = op.args
        return composed_run_test(sample, RngStream(s), tracer, exact=True).to_dict()

    def check(self, op, res, ref):
        check_outcome(res, ref, n=op.args[0].n, exact=True)


class Oracle(Workload):
    name = "oracle"
    why = ("Gaussian oracle at d 2, 5, 10 with m=100000 Haar draws (batched QR, conjugation, "
           "slogdet) plus mc_zeta(200, 200): the only workload on the oracle layer")
    DIMS = (2, 5, 10)
    M = 100_000
    N_BIG, REPS = 200, 200
    WARMUP_M, WARMUP_REPS = 2_000, 2
    ref_keys = ("estimate", "std_error")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        gen = np.random.default_rng([seed, 4])
        self.sigmas = {}
        self.haar_seeds = {}
        for d in self.DIMS:
            a = gen.standard_normal((d, d))
            s = a @ a.T / d + 0.5 * np.eye(d)
            self.sigmas[d] = CovSpec((s + s.T) / 2.0)
            self.haar_seeds[d] = int(gen.integers(0, 2**31))
        d_mc = self.DIMS[-1]
        self.mc_spec = Gaussian(d=d_mc, sigma=self.sigmas[d_mc].sigma)
        self.mc_seed = int(gen.integers(0, 2**31))

    @classmethod
    def definition(cls):
        return {"ops": ["gaussian_zeta(CovSpec(<random SPD>), d, HaarConfig(m, <seed>))",
                        "mc_zeta(Gaussian(d=10, sigma=<same SPD as d=10>), n_big, reps, "
                        "RngStream(<seed>))"],
                "d": list(cls.DIMS), "m": cls.M, "n_big": cls.N_BIG, "reps": cls.REPS,
                "warmup": {"m": cls.WARMUP_M, "reps": cls.WARMUP_REPS}}

    def round_ops(self, r):
        ops = [Op(f"gaussian_zeta,d={d}", f"gaussian_zeta/d={d}", (d,)) for d in self.DIMS]
        return ops + [Op("mc_zeta", "mc_zeta", ())]

    def warmup(self):
        # Full-size calls take seconds; small ones load the same code paths.
        for d in self.DIMS:
            gaussian_zeta(self.sigmas[d], d, HaarConfig(m=self.WARMUP_M, seed=self.haar_seeds[d]))
        mc_zeta(self.mc_spec, self.N_BIG, self.WARMUP_REPS, RngStream(self.mc_seed))

    def invoke(self, op):
        if op.args:
            d = op.args[0]
            return gaussian_zeta(self.sigmas[d], d, HaarConfig(m=self.M, seed=self.haar_seeds[d]))
        return mc_zeta(self.mc_spec, self.N_BIG, self.REPS, RngStream(self.mc_seed))

    def result(self, op, raw):
        return {"estimate": raw[0], "std_error": raw[1]}

    def traced(self, op, tracer):
        if op.args:
            # gaussian_zeta has no public sub-calls; its span is the call.
            with tracer.span("oracle.gaussian_zeta"):
                raw = self.invoke(op)
            tracer.count("oracle.haar_draws", 3 * self.M)
            return self.result(op, raw)
        # Mirrors mc_zeta.
        rng = RngStream(self.mc_seed)
        with tracer.span("oracle.mc_zeta"):
            values = np.empty(self.REPS)
            for r in range(self.REPS):
                with tracer.span("distributions.sample"):
                    s = draw_sample(self.mc_spec, self.N_BIG, rng.child(r, 0))
                with tracer.span("augment.augment"):
                    aug = augment(s, rng.child(r, 1))
                with tracer.span("core.build_gram"):
                    cache = build_gram(aug)
                with tracer.span("core.zeta_hat"):
                    values[r] = zeta_hat(aug, cache).value
                count_gram(tracer, aug, cache)
            raw = (float(values.mean()), float(values.std(ddof=1) / np.sqrt(self.REPS)))
        return self.result(op, raw)

    def check(self, op, res, ref):
        est, se = res["estimate"], res["std_error"]
        if not (np.isfinite(est) and abs(est) <= 2.0 and np.isfinite(se) and se >= 0.0):
            raise CheckFailed(f"estimate {est} +- {se} is not a finite value in [-2, 2]")
        if ref is not None and not abs(est - ref["estimate"]) <= 3.0 * se:
            raise CheckFailed(f"estimate {est} is more than 3 standard errors ({se}) "
                              f"from reference {ref['estimate']}")


WORKLOADS = {w.name: w for w in (Study, CliLarge, Exact, Oracle)}
