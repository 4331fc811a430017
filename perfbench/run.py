"""povmlab benchmark: one workload per process, closed loop, one client.

Run from the repository root::

    python3 perfbench/run.py --workload frames --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/workloads.py`` defines each op and its checks):

- ``frames``    validated POVM build, canonical and optimal duals, then 8
                span targets through ``processing_from_dual``,
                ``ensemble_error`` and ``min_error``; d in {4,6,8,10,12},
                minimal-IC, overcomplete and span-deficient POVMs.
- ``lp``        one ``postproc`` LP per op (feasible and infeasible
                ``find_post_processing``, ``find_joint_measurement``,
                ``blur_for_post_processing``); d in {4,5,6}, N = d^2 and
                N = 1.5 d^2, eight inputs of each.
- ``sampling``  ``sample`` with 2e6 draws, whole or in 8 chunks, then 4
                ``empirical_estimate`` calls; N in {4,20,80,272}.
- ``cli``       one ``python -m povmlab`` subprocess per op over ten verbs,
                two of them on a d=12, N=160 POVM file.

The benchmark pins BLAS to one thread for itself and every subprocess.
Inputs come only from ``--seed``.  Ops run in rounds, each holding every
size class in fixed proportion, until the next op is expected to end
after ``--seconds``; the first two rounds always run whole.  Checks run
between ops and are not timed.

Each op's inputs recur in later rounds, and an op's latency is the
fastest of its repetitions in the run (``frames``, ``sampling``: 25-45
each) or, where a run repeats each op only 3-5 times (``lp``, ``cli``),
their median.  On a shared host, other tenants only ever slow an op
down; over many repetitions the fastest is far steadier from run to run
than any one of them, while over a few the median is.  Every repetition
is still checked.

``--trace 0`` prints the end-to-end metrics: ``ops_per_s`` (distinct ops
over the sum of their latencies), ``op_p50_ms`` and ``op_p90_ms`` over
the distinct ops, peak resident memory (the largest child for ``cli``),
and ``setup_s``, the median over three fresh processes of the time from
spawning one to its first timed op.  An op fails when it raises or
misses an exact check; any failure makes the result incorrect.
``attempted`` and ``failed`` count distinct ops, not repetitions, so
they depend only on the seed.  An op
that misses only a check against the library's tight tolerances is not
failed but counted as a tolerance miss (``tol_miss_frac`` in the summary
line and the record, per-layer ``bench.tol_miss_frac``), so the
library's known conditioning defects stay visible without making the
count of failed ops depend on how many repetitions a run had time for.
``--trace 1`` runs every round twice, untraced and then with spans
around the library's layer calls (``perfbench/spans.py``), and prints
the per-layer metrics.  ``cli`` traces its verbs in process.

The last line of standard output is the JSON result.  A full record with
the environment and input digest goes to ``perfbench/out/``.
"""

import os
import sys

# OpenBLAS reads these when numpy loads it, so they must be set first.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("frames", "lp", "sampling", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest size class only, for the smoke test")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


class Tally:
    """Latencies and check outcomes of the ops one loop ran.

    ``attempted``, ``failed`` and ``missed`` count distinct ops (op keys),
    not executions: an op fails if any of its executions raised or missed
    an exact check.  Every workload runs all its ops in the first rounds,
    so these counts depend on the seed, not on how many repetitions the
    host had time for.
    """

    def __init__(self):
        self.best: dict[str, float] = {}  # fastest completed run of each op key
        self.times: dict[str, list] = {}  # every completed run of each op key
        self.ops: set[str] = set()
        self.failed_ops: set[str] = set()  # raised or missed an exact check
        self.missed_ops: set[str] = set()  # missed a tight-tolerance check
        self.executions = 0
        self.completed = 0
        self.checks_run = 0
        self.failures = Counter()  # per check, over executions
        self.misses = Counter()

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def missed(self) -> int:
        return len(self.missed_ops - self.failed_ops)

    def record(self, key, results):
        self.executions += 1
        self.ops.add(key)
        failed = [name for name, ok, exact in results if not ok and exact]
        missed = [name for name, ok, exact in results if not ok and not exact]
        self.checks_run += len(results)
        if failed:
            self.failed_ops.add(key)
        if missed:
            self.missed_ops.add(key)
        self.failures.update(failed)
        self.misses.update(missed)

    def add(self, other):
        self.ops |= other.ops
        self.failed_ops |= other.failed_ops
        self.missed_ops |= other.missed_ops
        self.executions += other.executions
        self.checks_run += other.checks_run
        self.failures.update(other.failures)
        self.misses.update(other.misses)

    def timed(self, key, seconds):
        self.completed += 1
        self.best[key] = min(seconds, self.best.get(key, seconds))
        self.times.setdefault(key, []).append(seconds)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "executions": self.executions,
            "completed": self.completed,
            "failed": self.failed,
            "tol_missed": self.missed,
            "failed_ops": sorted(self.failed_ops),
            "tol_missed_ops": sorted(self.missed_ops - self.failed_ops),
            "checks_run": self.checks_run,
            "failures": dict(sorted(self.failures.items())),
            "tol_misses": dict(sorted(self.misses.items())),
            "best_ms": {k: 1e3 * v for k, v in self.best.items()},
            "times_ms": {k: [1e3 * t for t in v] for k, v in self.times.items()},
        }


def execute(op, tally, tracer=None):
    """Time one op, then check its output outside the timed region."""
    start = time.perf_counter()
    try:
        out = tracer.op(tally.executions, op.run) if tracer else op.run()
    except Exception as exc:  # a raising op is a failed op, never a crash
        tally.record(op.key, [(f"raised {type(exc).__name__}", False, True)])
        return
    tally.timed(op.key, time.perf_counter() - start)
    try:
        results = op.check(out)
    except Exception as exc:
        results = [(f"check raised {type(exc).__name__}", False, True)]
    tally.record(op.key, results)


def run_rounds(seconds, body):
    """Run whole rounds while the next one is expected to end within ``seconds``.

    At least one; a traced round already runs every op twice, traced and not.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        body(rounds)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return rounds


def run_ops(seconds, workload, tally):
    """Run ops round after round while the next one is expected to end within ``seconds``.

    The first ``MIN_ROUNDS`` rounds run whole.  After them the loop stops
    at the op, not at the round, so a workload with long rounds (``cli``)
    still spends its time on repetitions.  Returns the rounds begun.
    """
    start = time.perf_counter()
    r = 0
    while True:
        for i, op in enumerate(workload.round(r)):
            expected = tally.best.get(op.key, 0.0)
            if r >= MIN_ROUNDS and time.perf_counter() - start + expected > seconds:
                return r + (i > 0)
            execute(op, tally)
        r += 1


def time_setup(args, env):
    """Seconds from spawning a fresh process to its first timed op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def measured_run(workload, args, env):
    tally = Tally()
    rounds = run_ops(args.seconds, workload, tally)
    who = resource.RUSAGE_CHILDREN if workload.in_subprocesses else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB
    probes = [time_setup(args, env) for _ in range(SETUP_PROBES)]
    import numpy as np

    per_op = min if workload.timed_at_fastest else statistics.median
    latencies = [per_op(times) for times in tally.times.values()]
    p50, p90 = np.percentile(1e3 * np.array(latencies), [50, 90])
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": float(p50),
        "op_p90_ms": float(p90),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(probes),
    }
    extra = {"rounds": rounds, "distinct_ops": len(latencies), "setup_probes_s": probes,
             "shares": workload.shares()}
    return tally, metrics, extra


def traced_run(workload, args):
    from spans import OP_SPAN, Tracer, instrument, layer_times

    tracer = Tracer()
    tally = Tally()  # the traced ops
    plain = Tally()  # the same ops untraced, for the overhead
    measured = Tally()  # the subprocess ops that in-process ones replay, if any

    def body(r):
        if workload.in_subprocesses:
            for op in workload.round(r):
                execute(op, measured)

        def traced():
            with instrument(tracer):
                for op in workload.trace_round(r):
                    execute(op, tally, tracer)

        def untraced():
            for op in workload.trace_round(r):
                execute(op, plain)

        # alternate which goes first, so warm caches favour neither
        for phase in (traced, untraced) if r % 2 else (untraced, traced):
            phase()

    rounds = run_rounds(args.seconds, body)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    stats = layer_times(tracer.spans)
    n = stats[OP_SPAN]["calls"]
    op_s = stats[OP_SPAN]["incl"]

    def ms(name):
        return 1e3 * stats[name]["incl"] / n if name in stats else 0.0

    def self_ms(name):
        return 1e3 * stats[name]["self"] / n if name in stats else 0.0

    def per_op(name, key="calls"):
        return stats[name][key] / n if name in stats else 0.0

    def self_share(module):
        return sum(s["self"] for name, s in stats.items() if name.split(".")[0] == module) / op_s

    sample_s = stats["montecarlo.sample"]["incl"] if "montecarlo.sample" in stats else 0.0
    overhead = sum(plain.best.values()) / sum(tally.best.values())
    # the untraced replays and, for cli, the subprocess runs are checked too
    for other in (plain, measured):
        tally.add(other)
    metrics = {
        "povm.build_ms": ms("povm.build"),
        "povm.span_ms": ms("povm.span"),
        "povm.canonical_dual_ms": ms("povm.canonical_dual"),
        "povm.self_share": self_share("povm"),
        "processing.optimal_dual_ms": ms("processing.optimal_dual"),
        "processing.min_error_ms": ms("processing.min_error"),
        "processing.min_error_calls": per_op("processing.min_error"),
        "processing.coefficients_ms": ms("processing.coefficients"),
        "processing.self_share": self_share("processing"),
        "postproc.find_post_processing_ms": ms("postproc.find_post_processing"),
        "postproc.find_joint_measurement_ms": ms("postproc.find_joint_measurement"),
        "postproc.blur_ms": ms("postproc.blur"),
        "postproc.lp_calls": per_op("scipy.linprog"),
        "postproc.self_share": self_share("postproc"),
        "montecarlo.sample_ms": ms("montecarlo.sample"),
        "montecarlo.estimate_ms": ms("montecarlo.estimate"),
        "montecarlo.draws_per_s": per_op("montecarlo.sample", "weight") * n / sample_s
        if sample_s else 0.0,
        "serialize.load_ms": self_ms("serialize.load"),
        "serialize.dump_ms": self_ms("serialize.dump"),
        "serialize.bytes_out": per_op("serialize.dump", "weight"),
        "cli.import_ms": 0.0,
        "cli.import_scipy_ms": 0.0,
        "cli.inproc_ms": 0.0,
        "cli.startup_share": 0.0,
        "qubit.optimal_ms": ms("qubit.optimal"),
        "abspace.ab_space_ms": ms("abspace.ab_space"),
        "bench.trace_overhead": overhead,
        "bench.failed_frac": tally.failed / tally.attempted,
        "bench.tol_miss_frac": tally.missed / tally.attempted,
        "processing.targets_per_povm": float(workload.targets_per_povm),
        "povm.lin_indep_share": 0.0,
        "povm.infocomplete_share": 0.0,
        "postproc.lin_indep_share": 0.0,
        "postproc.feasible_share": 0.0,
    }
    shares = workload.shares()
    metrics.update(shares)
    metrics.update(workload.trace_metrics(plain.best, measured.best))
    extra = {"rounds": rounds, "spans": len(tracer.spans), "shares": shares}
    return tally, metrics, extra


def environment(args, env, digest) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "povmlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in PINNED},
        "blas_threads_subprocess": {k: env.get(k) for k in PINNED},
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": args.seed,
        "input_sha256": digest,
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=10,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "povmlab" / "__init__.py").is_file():
        print(f"perfbench: no povmlab sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, {"env": env, "out": OUT})
    try:
        if workload.warm_up:
            workload.round(0)[0].run()
        setup_in_process_s = time.perf_counter() - start
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            tally, metrics, extra = traced_run(workload, args)
        else:
            tally, metrics, extra = measured_run(workload, args, env)
    finally:
        workload.close()

    units = metric_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "environment": environment(args, env, workload.digest),
        "setup_in_process_s": setup_in_process_s,
        "failed_frac": tally.failed / tally.attempted,
        "tol_miss_frac": tally.missed / tally.attempted,
        **extra,
        **tally.summary(),
        "metrics": metrics,
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    shown = " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
    print(f"# {args.workload} seed={args.seed} rounds={extra['rounds']} "
          f"ops={tally.attempted} executions={tally.executions} "
          f"failed_frac={record['failed_frac']:.4g} "
          f"tol_miss_frac={record['tol_miss_frac']:.4g} {shown}")
    if tally.failures:
        print(f"# failed checks: {dict(tally.failures)}")
    if tally.misses:
        print(f"# tight-tolerance misses: {dict(tally.misses)}")
    print(f"# record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
