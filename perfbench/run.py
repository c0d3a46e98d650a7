"""Benchmark of the regradius rg / rg+ / destabilization pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from the
checkout's src/ directory.  The run repeats whole rounds of the workload's
checked operations until S seconds have passed, then prints one JSON object
as the last line of standard output: correct, attempted, failed and the
metrics named in BENCHMARK.json (end-to-end ones with --trace 0, per-layer
ones with --trace 1).  Per-operation details go to perfbench/out/.
"""

import os

# Pinned before numpy loads: OpenBLAS would otherwise start one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 7
MAX_BLAS_THREADS = 2
#: every run compares later rounds' outputs with the first round's
MIN_ROUNDS = 2


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None where it cannot be queried."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def time_setup(inputs_path: Path) -> float:
    """Seconds from the start of a fresh process until it has imported
    regradius and built the workload's mappings.  The probe reads the
    system-wide monotonic clock when it is ready and prints the reading."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), str(inputs_path)],
                          cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - t0


def run_rounds(args, setup, refs, inputs, tracer=None):
    """Whole rounds until args.seconds have passed, at least MIN_ROUNDS;
    per-layer aggregates per round when a tracer is installed."""
    rounds, layers = [], []
    deadline = perf_counter() + args.seconds
    while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        rounds.append(workloads.run_round(args.workload, setup, refs, inputs))
        if tracer is not None:
            layers.append(tracing.layer_metrics(tracer.stats))
    return rounds, layers


def round_figures(rounds) -> dict:
    """Medians over rounds of each round's program time, total and by estimator."""
    def median_of(kinds):
        return statistics.median(sum(op.seconds for op in ops if op.kind in kinds)
                                 for ops in rounds)

    return {"wall_s": median_of({"rg", "rg_plus", "other"}), "rg_s": median_of({"rg"}),
            "rg_plus_s": median_of({"rg_plus"})}


def verdict(rounds) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems).  An op fails when its output
    misses its check; the run is correct when only the known-fault op fails
    and every round reproduced the first round's outputs exactly."""
    all_ops = [op for ops in rounds for op in ops]
    problems = [f"{op.label}: {op.detail}" for op in rounds[0] if not op.ok]
    unexpected = [op for op in all_ops if not op.ok and not op.known_fault]
    first = [op.value for op in rounds[0]]
    repeated = all([op.value for op in ops] == first for ops in rounds)
    if not repeated:
        problems.append("a later round did not reproduce the first round's outputs")
    failed = sum(not op.ok for op in all_ops)
    return not unexpected and repeated, len(all_ops), failed, problems


def unit_table(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def emit(correct, attempted, failed, values: dict, section: str) -> None:
    units = unit_table(section)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "regradius" / "__init__.py").is_file():
        print(f"run.py: no regradius sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workloads.import_program(SRC)
    env = environment()
    if env["blas_threads"] is not None and env["blas_threads"] > MAX_BLAS_THREADS:
        print(f"run.py: OpenBLAS runs {env['blas_threads']} threads", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    inputs = workloads.make_inputs(args.workload, args.seed)
    inputs_path = OUT / f"inputs-{tag}.json"
    inputs_path.write_text(json.dumps(inputs))
    refs = workloads.references(inputs)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "references": refs}
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            setup = workloads.build(inputs)
            load_s = tracer.stats["mappings.load_mapping"].total_s
            rounds, layers = run_rounds(args, setup, refs, inputs, tracer)
        finally:
            tracer.uninstall()
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["mappings.load_mapping.s"] = load_s
        for kind in ("rg", "rg_plus"):
            errs = [op.rel_err for ops in rounds for op in ops
                    if op.kind == kind and op.rel_err is not None]
            values[f"moduli.{kind}.rel_err"] = max(errs)
        record["traced_wall_s"] = round_figures(rounds)["wall_s"]
        section, out_path = "per_layer", OUT / f"trace-{tag}.json"
    else:
        setup_times = [time_setup(inputs_path) for _ in range(SETUP_PROBES)]
        setup = workloads.build(inputs)
        rounds, _ = run_rounds(args, setup, refs, inputs)
        values = round_figures(rounds)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["setup_probes_s"] = setup_times
        section, out_path = "end_to_end", OUT / f"run-{tag}.json"

    correct, attempted, failed, problems = verdict(rounds)
    for line in problems:
        print(f"run.py: {args.workload}: {line}", file=sys.stderr)
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=values,
                  rounds=[[vars(op) for op in ops] for ops in rounds])
    out_path.write_text(json.dumps(record, indent=1))
    emit(correct, attempted, failed, values, section)
    return 0


if __name__ == "__main__":
    sys.exit(main())
