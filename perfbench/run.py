"""Pipeline benchmark for kslyap: one closed-loop caller, three workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark imports the library from
``src/`` (nothing needs installing), caps BLAS at one thread, and writes its
outputs under ``.perfbench_out/``. With ``--trace 0`` it prints the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates
untraced iterations with traced passes and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See perfbench/README.md.
"""

import os
import sys

# Cap BLAS and OpenMP threads before numpy loads. One thread keeps the
# closed loop on one core, so eigvalsh timings do not depend on the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from summary import summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MAX_FAILURES_SHOWN = 10


def system_clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's "ready" time
    # can be compared with the parent's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_library():
    """Import kslyap from this checkout's src/ and the workload modules;
    exit non-zero when the sources are absent."""
    if not (SRC / "kslyap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kslyap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kslyap

    if Path(kslyap.__file__).resolve().parent != SRC / "kslyap":
        raise SystemExit(f"perfbench: imported kslyap from {kslyap.__file__}, not from {SRC}")
    import layers
    import workloads

    return layers, workloads


def environment() -> dict:
    import numpy
    import scipy

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    from kslyap import _accel

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version or "not importable",
        "kslyap_numba_path": bool(getattr(_accel, "USE_NUMBA", False)),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def probe_setup(workload: str, seed: int) -> list:
    """Time set-up in fresh processes: from spawn (interpreter start and
    imports included) until the timed section could begin."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = system_clock()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0)
    return times


def timed_iteration(wl, workloads, ctx):
    workloads.reset_caches()
    t0 = time.perf_counter()
    out = wl.execute(ctx)
    return time.perf_counter() - t0, wl.check(ctx, out)


def traced_pass(wl, workloads, layers, tracer, seed):
    """Set-up plus one timed section with every library layer wrapped."""
    layers.install(tracer)
    try:
        with tracer.span("pass") as root:
            with tracer.span("setup"):
                ctx = wl.setup(seed, OUT_DIR)
            workloads.reset_caches()
            with tracer.span("timed") as timed:
                out = wl.execute(ctx)
    finally:
        tracer.unwrap_all()
    return root, timed, ctx, wl.check(ctx, out)


def run_plain(wl, workloads, ctx, seconds, total):
    walls = []
    t_begin = time.perf_counter()
    while not walls or time.perf_counter() - t_begin < seconds:
        wall, outcome = timed_iteration(wl, workloads, ctx)
        total.add(outcome)
        walls.append(wall)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return walls, peak_mb


def run_traced(wl, workloads, layers, ctx, seed, seconds, total):
    """Alternate untraced iterations with traced passes for ``seconds``."""
    tracer = Tracer()
    plain, traced, passes = [], [], []
    t_begin = time.perf_counter()
    while min(len(plain), len(traced)) < 2 or time.perf_counter() - t_begin < seconds:
        if len(plain) <= len(traced):
            wall, outcome = timed_iteration(wl, workloads, ctx)
            plain.append(wall)
        else:
            root, timed, tctx, outcome = traced_pass(wl, workloads, layers, tracer, seed)
            outcome.failures.extend(tctx.setup_failures)
            traced.append(timed.duration)
            passes.append((root, timed, outcome))
        total.add(outcome)

    self_times = tracer.self_times()
    per_pass, residue = [], 0.0
    for root, timed, outcome in passes:
        metrics = layers.pass_metrics(tracer, root, self_times)
        metrics.update(outcome.health)
        per_pass.append(metrics)
        residue = max(residue, abs(layers.self_time_sum(tracer, timed, self_times) - timed.duration))
    names = sorted(set().union(*per_pass))
    full = {name: summarize([m.get(name, 0.0) for m in per_pass]) for name in names}
    full["trace.overhead_frac"] = summarize([summarize(traced).mean / summarize(plain).mean - 1.0])
    full["trace.self_sum_residue_s"] = summarize([residue])
    return tracer, full, plain, traced


def print_table(rows, computed=()):
    print(f"{'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'mean':>12s} {'n':>4s}")
    for name, unit, s in rows:
        tag = " computed" if name in computed else ""
        print(f"{name:44s} {unit:6s} {s.median:12.6g} {s.q1:12.6g} {s.q3:12.6g} {s.mean:12.6g} {s.n:4d}{tag}")


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in contract["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    layers, workloads = load_library()
    wl = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        wl.setup(args.seed, OUT_DIR)
        print(json.dumps({"ready": system_clock()}))
        return 0

    env = environment()
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("why: " + next(w["why"] for w in contract["workloads"] if w["name"] == wl.name))
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    setup_times = [] if args.trace else probe_setup(wl.name, args.seed)
    ctx = wl.setup(args.seed, OUT_DIR)
    total = workloads.Outcome(failures=list(ctx.setup_failures))
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer, full, plain, traced = run_traced(wl, workloads, layers, ctx, args.seed, args.seconds, total)
        tracer.write_jsonl(OUT_DIR / f"{stem}.spans.jsonl")
        print(f"untraced wall_s mean {summarize(plain).mean:.6g} s (n={len(plain)}), "
              f"traced {summarize(traced).mean:.6g} s (n={len(traced)}); "
              f"overhead {full['trace.overhead_frac'].median:+.4f}")
        print(f"self times under each traced timed section sum to its wall time within "
              f"{full['trace.self_sum_residue_s'].median:.3g} s")
        print_table([(name, layers.unit_of(name), s) for name, s in sorted(full.items())],
                    {name for name in full if layers.base_name(name) in layers.COMPUTED})
        reported = {m["name"]: (full[m["name"]].median, m["unit"]) for m in contract["per_layer"]}
        record = {"layers": {name: s._asdict() for name, s in full.items()}, "computed": layers.COMPUTED}
    else:
        walls, peak_mb = run_plain(wl, workloads, ctx, args.seconds, total)
        stats = {
            "setup_s": ("s", summarize(setup_times)),
            "wall_s": ("s", summarize(walls)),
            "peak_rss_mb": ("MB", summarize([peak_mb])),
        }
        # setup_s is gated on its median; wall_s on its mean, see README
        gated = {"setup_s": stats["setup_s"][1].median, "wall_s": stats["wall_s"][1].mean, "peak_rss_mb": peak_mb}
        print_table([(name, unit, s) for name, (unit, s) in stats.items()])
        if total.traj_steps:
            print(f"{'traj_steps_per_s':44s} {'1/s':6s} {total.traj_steps / sum(walls):12.6g}")
        print(f"{'failed_frac':44s} {'1':6s} {total.failed / max(total.attempted, 1):12.6g} "
              f"({total.failed} failed of {total.attempted} attempted)")
        reported = {m["name"]: (gated[m["name"]], m["unit"]) for m in contract["end_to_end"]}
        record = {name: {"unit": unit, **s._asdict()} for name, (unit, s) in stats.items()}
        record["samples"] = {"setup_s": setup_times, "wall_s": walls}

    for failure in total.failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED: {failure}")
    for key, value in sorted(total.health.items()):
        print(f"health {key} = {value:.6g}")
    record.update(
        workload=wl.name,
        seed=args.seed,
        environment=env,
        attempted=total.attempted,
        failed=total.failed,
        failures=total.failures,
        health=total.health,
    )
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, default=float) + "\n")
    print(
        json.dumps(
            {
                "correct": not total.failures,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
