"""Layered benchmark of the mfglab command line.

    python3 perfbench/run.py --workload solve-2d --seed 0 --seconds 30 --trace 0

Run from the repository root.  One caller issues one `mfglab` command
at a time, in this process, and waits for it (a closed loop with one
client; nothing queues, so there is no waiting time to report).  A run
sets up three times (import, inputs, warm-up), then repeats the
workload's command on the same inputs for `--seconds` and checks every
output.  With `--trace 0` it prints the end-to-end metrics, with
`--trace 1` the per-layer metrics of traced commands alternated with
untraced ones.  `--workload all` runs every workload in turn.  The last
line of standard output is the JSON result; the run record, with the
spans of a traced run, goes to `.perfbench_run/`.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are capped before numpy is imported.
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
SETUP_PASSES = 3

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "energy_residual": "1"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "thread_caps": {v: os.environ[v] for v in THREAD_CAPS},
            "seed": seed}


def run_command(argv, tracer=None):
    """One `mfglab` command in this process: (seconds, exit code, output)."""
    from mfglab import cli
    out = io.StringIO()
    trace = tracer.op() if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = perf_counter()
        try:
            with trace:
                code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed run
            code = None
            out.write(traceback.format_exc())
        seconds = perf_counter() - start
    return seconds, code, out.getvalue()


def setup(workload, workdir: str, seed: int):
    """Inputs for the run, set up SETUP_PASSES times.

    A pass imports mfglab in a fresh interpreter, as every `mfglab`
    invocation does, writes the inputs, then runs and checks the command
    once on inputs of the warm-up size.  Returns (median pass seconds,
    warm-up checks).
    """
    from workloads import fresh_dir
    env = dict(os.environ, PYTHONPATH=SRC)
    times, checks = [], []
    for _ in range(SETUP_PASSES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import mfglab.cli"], env=env,
                       check=True)
        inputs, warm = fresh_dir(workdir + "/inputs"), fresh_dir(workdir + "/warm")
        with contextlib.redirect_stdout(io.StringIO()):
            workload.prepare(inputs, seed, workload.n)
            workload.prepare(warm, seed, workload.n_warm)
        out = fresh_dir(workdir + "/out")
        _, code, text = run_command(workload.argv(warm, out))
        checks.append(workload.check(warm, out, code, text))
        times.append(perf_counter() - start)
    return statistics.median(times), checks


def measure(workload, seed: int, seconds: float, trace: bool):
    """One run of one workload: (result dict, human-readable lines, record)."""
    from tracing import LAYER_UNITS, Tracer, median_layer_metrics
    from workloads import fresh_dir
    workdir = fresh_dir(os.path.join(WORK, workload.name))
    setup_s, checks = setup(workload, workdir, seed)
    inputs, out = workdir + "/inputs", workdir + "/out"
    tracer = Tracer() if trace else None
    plain, traced = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(traced) < int(trace):
        with_trace = trace and len(plain) > len(traced)
        fresh_dir(out)
        gc.collect()
        op_s, code, text = run_command(workload.argv(inputs, out),
                                       tracer if with_trace else None)
        check = workload.check(inputs, out, code, text)
        (traced if with_trace else plain).append((op_s, check))
        checks.append(check)

    failed = [c for c in checks if not c.ok]
    measured = plain + traced
    lines = [f"{workload.name} {c.why}" for c in failed[:3]]
    if trace:
        metrics = median_layer_metrics(tracer)
        units = dict(LAYER_UNITS)
        overhead = (statistics.median(s for s, _ in traced)
                    - statistics.median(s for s, _ in plain))
        metrics["trace.overhead_s"], units["trace.overhead_s"] = overhead, "s"
        count = f"median of {len(traced)} traced commands"
        lines += [f"{workload.name} {k} = {v:.6g} {units[k]} ({count})"
                  for k, v in metrics.items()]
    else:
        metrics = {
            "op_s": statistics.median(s for s, _ in plain),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "energy_residual": max(c.energy_residual for _, c in measured),
        }
        units = END_TO_END_UNITS
        counts = {
            "op_s": f"median of {len(plain)} commands",
            "setup_s": f"median of {SETUP_PASSES} set-up passes",
            "peak_rss_mb": "1 process",
            "energy_residual": f"largest of {len(measured)} outputs",
        }
        lines += [f"{workload.name} {k} = {v:.6g} {units[k]} ({counts[k]})"
                  for k, v in metrics.items()]
        lines.append(f"{workload.name} fail_share = "
                     f"{len(failed) / len(checks):.6g} 1 "
                     f"({len(failed)} of {len(checks)} commands)")
    result = {"correct": not failed, "attempted": len(checks),
              "failed": len(failed),
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {"workload": workload.name, "result": result,
              "op_s": [s for s, _ in plain], "traced_op_s": [s for s, _ in traced]}
    if trace:
        record["spans"] = tracer.spans
        record["ops"] = tracer.ops
    return result, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mfglab", "cli.py")):
        print(f"perfbench: no mfglab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("env " + json.dumps(env))
    results = {}
    for name in names:
        result, lines, record = measure(WORKLOADS[name], args.seed,
                                        args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        record["env"] = env
        path = os.path.join(WORK, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
