"""Benchmark for polygauss: one seeded workload per process, closed loop.

    python3 bench/run.py --workload many_terms --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
caller runs the workload's operations in order, each one starting when the
previous one returns, in whole rounds until at least ``--seconds`` of
operation time has been measured.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` the run times the same rounds once untraced and once traced
and reports the per-layer ones.  ``--workload all`` runs every workload,
each in its own process, one after the other.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One thread: pin the BLAS pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("many_terms", "high_degree", "cli_pipeline", "oracle_check")
# The speed of identical work on a shared host drifts by tens of percent
# over seconds to minutes, for every process alike.  A fixed probe, timed
# just before and just after each operation, measures that speed; each
# operation's time is reported at the probe's reference speed,
#     measured * PROBE_REFERENCE_S / (mean of its two probe times),
# and the set-up time is scaled by the run's median factor.
PROBE_REFERENCE_S = 5e-4
_PROBE_POLY = {(i, j): complex(i + 1, j - 0.5) for i in range(6) for j in range(6 - i)}
_PROBE_FORM = np.array([[2.0, 0.3], [0.3, 1.0]])
_PROBE_VECTOR = np.linspace(-1.0, 1.0, 2000) * (1.0 + 0.5j)
# Fresh processes that repeat the set-up; setup_s is the median of their
# set-up times and this process's own.
SETUP_REPEATS = 3


def import_polygauss():
    """Import polygauss from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "polygauss", "__init__.py")):
        raise SystemExit(f"bench: no polygauss package under {SRC}")
    sys.path.insert(0, SRC)
    import polygauss
    import polygauss.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(polygauss.__file__))) != SRC:
        raise SystemExit(f"bench: imported polygauss from {polygauss.__file__}, not {SRC}")
    return polygauss


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def machine_probe():
    """Fixed work of the kinds polygauss does, independent of polygauss: a
    dict polynomial product, small numpy calls and one vector exponential."""
    product = {}
    for a, ca in _PROBE_POLY.items():
        for b, cb in _PROBE_POLY.items():
            key = (a[0] + b[0], a[1] + b[1])
            product[key] = product.get(key, 0j) + ca * cb
    for _ in range(20):
        np.linalg.cholesky(_PROBE_FORM)
        float(np.max(np.abs(_PROBE_FORM - _PROBE_FORM.T)))
    return product, complex(np.exp(_PROBE_VECTOR).sum())


def probe_seconds():
    start = time.perf_counter()
    machine_probe()
    return time.perf_counter() - start


class Run:
    """Timings and outcomes of the operations measured in one run."""

    def __init__(self):
        self.times = []  # (op index, seconds as measured)
        self.scales = []  # per op: PROBE_REFERENCE_S / probe time around it
        self.timed = 0.0  # measured seconds, summed
        self.failed = 0
        self.wrong = []
        self.shapes = {}  # op index -> (terms, coefficients)
        self.passed = {}  # op index -> fingerprint of its last checked output

    def scaled(self, start=0):
        """Op times from index ``start`` on, at the probe's reference speed."""
        return [t * k for (_, t), k in zip(self.times[start:], self.scales[start:])]


def measure(ops, run, seconds=None, rounds=None, tracer=None):
    """Run whole rounds of ``ops``; stop after ``rounds`` or ``seconds``."""
    done = 0
    while (rounds is None and (done == 0 or run.timed < seconds)) or (
        rounds is not None and done < rounds
    ):
        for index, op in enumerate(ops):
            args = op.build()
            gc.collect()
            before = probe_seconds()
            if tracer is not None:
                tracer.op = len(run.times)
                tracer.active = True
            output = error = None
            start = time.perf_counter()
            try:
                output = op.run(*args)
            except Exception as exc:  # an operation that raises has failed
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            probe = (before + probe_seconds()) / 2.0
            run.times.append((index, elapsed))
            run.scales.append(PROBE_REFERENCE_S / probe)
            run.timed += elapsed
            judge(op, index, output, error, run)
        done += 1
    return done


def judge(op, index, output, error, run):
    if error is not None:
        run.failed += 1
        print(f"bench: {op.kind} raised {type(error).__name__}: {error}", file=sys.stderr)
        return
    seen = op.fingerprint(output)
    if run.passed.get(index) == seen:
        return
    try:
        ok = bool(op.check(output))
    except Exception as exc:  # an output the check cannot even read is wrong
        print(f"bench: checking {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = False
    if not ok:
        if op.oracle:
            run.failed += 1
            print(f"bench: {op.kind} disagrees with the reference", file=sys.stderr)
        else:
            run.wrong.append(op.kind)
            print(f"bench: {op.kind} gave a wrong result", file=sys.stderr)
        return
    run.passed[index] = seen
    if op.shape is not None and index not in run.shapes:
        run.shapes[index] = op.shape(output)


def size_exponent(ops, run):
    """Slope of log time against log size, pooled within each kind of op.

    Each op's median time is taken; logs are centred within their kind, so
    the slope compares sizes of one kind only.
    """
    by_op = {}
    for (index, _), t in zip(run.times, run.scaled()):
        by_op.setdefault(index, []).append(t)
    by_kind = {}
    for index, ts in by_op.items():
        by_kind.setdefault(ops[index].kind, []).append(
            (math.log(ops[index].size), math.log(statistics.median(ts)))
        )
    sxx = sxy = 0.0
    for pairs in by_kind.values():
        mx = statistics.fmean(x for x, _ in pairs)
        my = statistics.fmean(y for _, y in pairs)
        sxx += sum((x - mx) ** 2 for x, _ in pairs)
        sxy += sum((x - mx) * (y - my) for x, y in pairs)
    return sxy / sxx if sxx > 0 else 0.0


def per_layer_value(name, tracer, self_ms, ops_traced):
    if name.endswith(".self_ms"):
        return self_ms.get(name[: -len(".self_ms")], 0.0) / ops_traced
    return tracer.counts.get(name, 0) / ops_traced


def median_latency(seconds):
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the
    order statistics, so it does not jump when two operations of different
    sizes swap places around the middle rank."""
    from scipy.special import betainc

    x = np.sort(np.asarray(seconds))
    n = len(x)
    a = (n + 1) / 2.0
    return float(np.diff(betainc(a, a, np.arange(n + 1) / n)) @ x)


def set_up(name, seed, workdir):
    """Import polygauss, build the seeded inputs and run one warm-up pass."""
    from workloads import WORKLOADS

    pg = import_polygauss()
    ops, warmup = WORKLOADS[name](pg, np.random.default_rng(seed), workdir)
    for op in warmup:
        op.run(*op.build())
    return pg, ops, time.perf_counter() - PROCESS_START


def fresh_set_up_seconds(args):
    """Set-up time of a fresh process, from the start of run.py to warm."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(proc.stdout.splitlines()[-1])


def run_workload(args):
    name, seed, seconds, trace = args.workload, args.seed, args.seconds, args.trace
    workdir = os.path.join(OUT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        pg, ops, own_setup = set_up(name, seed, workdir)
        if args.setup_only:
            print(own_setup)
            return 0
        setup_s = statistics.median(
            [own_setup] + [fresh_set_up_seconds(args) for _ in range(SETUP_REPEATS)]
        )
        end_to_end, per_layer = metric_specs()
        # Objects alive now last the whole run; keep the per-op collection
        # below from walking them again and again.
        gc.freeze()

        for _ in range(20):
            machine_probe()
        run = Run()
        if not trace:
            measure(ops, run, seconds=seconds)
            scaled = run.scaled()
            shapes = list(run.shapes.values())
            values = {
                "setup_s": statistics.median(run.scales) * setup_s,
                "ops_per_s": len(scaled) / sum(scaled),
                "op_ms_p50": 1e3 * median_latency(scaled),
                "result_terms": statistics.fmean(s[0] for s in shapes),
                "result_monomials": statistics.fmean(s[1] for s in shapes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            specs = end_to_end
        else:
            import tracing

            rounds = measure(ops, run, seconds=seconds / 2.0)
            untraced = sum(run.scaled())
            untraced_ops = len(run.times)
            exponent = size_exponent(ops, run)
            tracer = tracing.Tracer()
            tracing.install(tracer, pg)
            try:
                measure(ops, run, rounds=rounds, tracer=tracer)
            finally:
                tracer.remove()
            traced_ops = len(run.times) - untraced_ops
            traced = sum(run.scaled(untraced_ops))
            tracer.save(os.path.join(OUT, f"trace-{name}-{seed}.npz"))
            self_ms = tracer.self_ms(run.scales)
            values = {
                spec["name"]: per_layer_value(spec["name"], tracer, self_ms, traced_ops)
                for spec in per_layer
                if spec["name"] not in ("scaling.size_exponent", "trace.overhead_ms")
            }
            values["scaling.size_exponent"] = exponent
            values["trace.overhead_ms"] = 1e3 * (traced - untraced) / traced_ops
            specs = per_layer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(OUT, f"times-{name}-{seed}-trace{trace}.json"), "w") as fh:
        json.dump([{"kind": ops[i].kind, "size": ops[i].size, "seconds": t, "scale": k}
                   for (i, t), k in zip(run.times, run.scales)], fh)
    result = {
        "correct": not run.wrong,
        "attempted": len(run.times),
        "failed": run.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }
    for s in specs:
        print(f"{name} {s['name']} = {values[s['name']]:.6g} {s['unit']}")
    print(f"{name} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 and not proc.stdout.strip():
            print(f"bench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        status = status or proc.returncode
    print(json.dumps(merged))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Used by the run itself to time set-up in fresh processes.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
