"""Closed-loop benchmark of spheresym: one caller, one op at a time.

    python3 perfbench/run.py --workload all --seed 0 --seconds 24 --trace 0

runs every workload, each in its own process, and prints every end-to-end
metric with its unit; ``--trace 1`` prints the per-layer metrics instead.
With one workload name the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
report, with the run manifest and (when traced) every span, is written to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from manifest import manifest, pin_blas_threads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("study", "cli_large", "exact", "oracle")
SETUP_SAMPLES = 3  # this process's own set-up plus fresh-process probes
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the p90

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer metric -> span whose self time it sums over a round
LAYER_TIMES = {
    "core.build_gram_ms": "core.build_gram",
    "core.zeta_hat_ms": "core.zeta_hat",
    "calibrate.mc_pvalue_ms": "calibrate.mc_pvalue",
    "calibrate.exact_pvalue_ms": "calibrate.exact_pvalue",
    "augment.center_ms": "augment.center",
    "augment.augment_ms": "augment.augment",
    "distributions.sample_ms": "distributions.sample",
    "experiments.load_csv_matrix_ms": "experiments.load_csv_matrix",
    "cli.main_ms": "cli.main",
    "oracle.gaussian_zeta_ms": "oracle.gaussian_zeta",
    "oracle.mc_zeta_ms": "oracle.mc_zeta",
}
COUNT_UNITS = {
    "core.kernel_evals": "count",
    "core.gram_bytes": "B",
    "calibrate.masks": "count",
    "calibrate.quadform_flops": "flop",
    "augment.center_iters": "count",
    "experiments.csv_rows": "count",
    "oracle.haar_draws": "count",
}
PER_LAYER_UNITS = {
    **{name: "ms" for name in LAYER_TIMES},
    **COUNT_UNITS,
    "calibrate.masks_per_s": "1/s",
    "oracle.haar_draws_per_s": "1/s",
    "trace.round_ms": "ms",
    "trace.overhead_ms": "ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true",
                   help="recompute reference.json for the default seed and exit")
    return p.parse_args(argv)


def set_up(name: str, seed: int, workdir: Path):
    """Imports, input generation and warm-up; returns the workload and seconds taken."""
    t0 = time.perf_counter()
    import workloads  # loads numpy, scipy and spheresym

    wl = workloads.WORKLOADS[name](seed, str(workdir))
    wl.warmup()
    return wl, time.perf_counter() - t0


def probe_setup_seconds(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def reference_lookup(wl):
    import workloads

    if wl.seed != workloads.DEFAULT_SEED:
        return lambda op: None
    refs = json.loads(REFERENCE.read_text())[wl.name]

    def lookup(op):
        if op.key not in refs:
            raise workloads.CheckFailed(f"no reference output for {op.key}")
        return refs[op.key]

    return lookup


def keep_going(start: float, round_seconds: list[float], budget: float) -> bool:
    # At least one round; another only if a typical round still fits.
    if not round_seconds:
        return True
    return time.perf_counter() - start + statistics.median(round_seconds) <= budget


def measure(wl, seconds: float, lookup, errors: list[str]) -> dict:
    latency = defaultdict(list)  # op kind -> seconds
    busy = []  # per round: seconds spent inside the timed calls
    attempted = failed = 0
    ops_per_round = len(wl.round_ops(0))
    start = time.perf_counter()
    r = 0
    while keep_going(start, busy, seconds):
        total = 0.0
        for op in wl.round_ops(r):
            attempted += 1
            t = time.perf_counter()
            try:
                raw = wl.invoke(op)
            except Exception as exc:  # a failing op is counted, not fatal
                failed += 1
                errors.append(f"round {r} {op.key}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t
            latency[op.kind].append(dt)
            total += dt
            try:
                wl.check(op, wl.result(op, raw), lookup(op))
            except Exception as exc:
                failed += 1
                errors.append(f"round {r} {op.key}: {type(exc).__name__}: {exc}")
        busy.append(total)
        r += 1
    if not latency:
        raise RuntimeError("no op completed:\n" + "\n".join(errors[:5]))
    kinds = {
        kind: {
            "samples": len(v),
            "p50_ms": statistics.median(v) * 1e3,
            **({"p90_ms": statistics.quantiles(v, n=10)[-1] * 1e3} if len(v) >= P90_MIN_SAMPLES else {}),
        }
        for kind, v in latency.items()
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": r,
        "kinds": kinds,
        "values": {
            "ops_per_s": ops_per_round / statistics.median(busy),
            "op_p50_ms": statistics.fmean(k["p50_ms"] for k in kinds.values()),
        },
    }


def trace(wl, seconds: float, lookup, errors: list[str]) -> dict:
    import workloads

    tracer = Tracer()
    untraced = []  # per round: seconds in the untraced calls
    walls = []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while keep_going(start, walls, seconds):
        t_round = time.perf_counter()
        tracer.round = r
        untraced.append(0.0)
        for i, op in enumerate(wl.round_ops(r)):
            attempted += 1
            tracer.op = f"{r}.{i}"
            try:
                # Alternate which run goes first so neither always finds warm caches.
                if (r + i) % 2:
                    res_t = wl.traced(op, tracer)
                t = time.perf_counter()
                raw = wl.invoke(op)
                untraced[r] += time.perf_counter() - t
                res_u = wl.result(op, raw)
                if (r + i) % 2 == 0:
                    res_t = wl.traced(op, tracer)
                differ = sorted(k for k, v in res_t.items() if res_u.get(k) != v)
                if differ:
                    raise workloads.CheckFailed(f"traced composition differs in {differ}")
                wl.check(op, res_u, lookup(op))
            except Exception as exc:
                failed += 1
                errors.append(f"round {r} {op.key}: {type(exc).__name__}: {exc}")
        walls.append(time.perf_counter() - t_round)
        r += 1

    rounds = []
    self_all = defaultdict(float)  # span -> mean self ms per round
    for k in range(r):
        self_s = tracer.self_times(k)
        for span, sec in self_s.items():
            self_all[span] += sec * 1e3 / r
        counts = tracer.counts[k]
        row = {name: self_s.get(span, 0.0) * 1e3 for name, span in LAYER_TIMES.items()}
        pvalue_s = self_s.get("calibrate.mc_pvalue", 0.0) + self_s.get("calibrate.exact_pvalue", 0.0)
        row["calibrate.masks_per_s"] = counts["calibrate.masks"] / pvalue_s if pvalue_s else 0.0
        zeta_s = self_s.get("oracle.gaussian_zeta", 0.0)
        row["oracle.haar_draws_per_s"] = counts["oracle.haar_draws"] / zeta_s if zeta_s else 0.0
        row["trace.round_ms"] = tracer.root_time(k) * 1e3
        row["trace.overhead_ms"] = (tracer.root_time(k) - untraced[k]) * 1e3
        rounds.append(row)
    # Counts depend only on op sizes, so every round must repeat round 0's.
    counts0 = {name: tracer.counts[0][name] for name in COUNT_UNITS}
    for k in range(1, r):
        again = {name: tracer.counts[k][name] for name in COUNT_UNITS}
        if again != counts0:
            failed += 1
            errors.append(f"round {k}: counts {again} differ from round 0 {counts0}")
    values = {name: statistics.median(row[name] for row in rounds) for name in rounds[0]}
    values.update(counts0)
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": r,
        "values": values,
        "self_ms_per_round": dict(sorted(self_all.items(), key=lambda kv: -kv[1])),
        "spans": tracer.spans,
    }


def write_reference() -> int:
    import workloads

    OUT.mkdir(exist_ok=True)
    refs = {}
    for name in WORKLOAD_NAMES:
        workdir = OUT / f"work-{name}-reference"
        workdir.mkdir(exist_ok=True)
        try:
            wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, str(workdir))
            refs[name] = {}
            for r in range(wl.pool):
                for op in wl.round_ops(r):
                    res = wl.result(op, wl.invoke(op))
                    wl.check(op, res, None)
                    refs[name][op.key] = {k: res[k] for k in wl.ref_keys}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= res["correct"]
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              f"failed_frac={res['failed'] / res['attempted']:.6g}")
        for metric, m in res["metrics"].items():
            print(f"   {metric:<34} {m['value']:>18.10g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spheresym" / "__init__.py").is_file():
        print(f"error: spheresym sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{time.time_ns()}"
    workdir.mkdir()
    try:
        wl, setup_s = set_up(args.workload, args.seed, workdir)
        import spheresym

        if Path(spheresym.__file__).resolve().parent != SRC / "spheresym":
            print(f"error: spheresym imported from {spheresym.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s]
        errors: list[str] = []
        lookup = reference_lookup(wl)
        if args.trace:
            res = trace(wl, args.seconds, lookup, errors)
            units = PER_LAYER_UNITS
        else:
            res = measure(wl, args.seconds, lookup, errors)
            res["values"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups += [probe_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
            res["values"]["setup_s"] = statistics.median(setups)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import workloads

    info = manifest(ROOT, nproc, workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, default_seed=workloads.DEFAULT_SEED,
                    workloads={n: {"why": w.why, **w.definition()} for n, w in workloads.WORKLOADS.items()})
    metrics = {name: {"value": res["values"][name], "unit": unit} for name, unit in units.items()}
    report = {"manifest": info, "setup_samples_s": setups, "errors": errors, **res, "metrics": metrics}
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {res['rounds']} rounds, "
          f"report {report_path.relative_to(ROOT)}")
    print("manifest " + json.dumps({k: v for k, v in info.items() if k != "workloads"}))
    for err in errors[:10]:
        print(f"FAILED {err}")
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} ({res['failed']} of {res['attempted']} ops)")
    for kind, k in res.get("kinds", {}).items():
        p90 = f" p90 {k['p90_ms']:.4f} ms" if "p90_ms" in k else ""
        print(f"op {kind:<20} samples {k['samples']:>6} p50 {k['p50_ms']:.4f} ms{p90}")
    for span, ms in res.get("self_ms_per_round", {}).items():
        print(f"self {span:<30} {ms:12.4f} ms/round")
    for name, m in metrics.items():
        print(f"metric {name:<34} {m['value']:>18.10g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
