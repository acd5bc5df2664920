"""mixnet benchmark: one workload per process, or all three in turn.

    python3 perfbench/run.py --workload train-v1 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (and the tracing overhead) with
``--trace 1``.  A failed correctness check prints ``"correct": false`` and
exits 1; a missing program exits 2 without a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("train-v1", "segment-v2", "evaluate")
LAYERS = ("tensor", "autodiff", "ops", "arch", "augment", "trainer", "volume",
          "metrics", "errors")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5

PER_LAYER = (
    "volume.load_subject_s", "volume.read_volume_s", "volume.write_volume_s",
    "volume.predict_volume_s", "volume.fuse_predictions_s",
    "augment.expand_slices_s", "augment.stack_mb",
    "arch.build_s", "arch.forward_s", "arch.graph_nodes",
    "autodiff.backward_s", "trainer.optimizer_step_s", "trainer.load_network_s",
    *(f"ops.{op}.{d}_s" for op in ("conv2d", "relu", "add", "concat_channels",
                                   "maxpool2x2", "avgpool_region", "bilinear_resize",
                                   "softmax_cross_entropy") for d in ("fwd", "bwd")),
    "ops.conv2d.gflop", "ops.conv2d.gflop_per_s",
    "unit.out.final.fwd_s", "unit.out.final.bwd_s",
    "unit.out.prior.fwd_s", "unit.out.prior.bwd_s",
    "tensor.constructed",
    "metrics.surface_voxels_s", "metrics.hd95_s", "metrics.surface_voxels",
    "trace.overhead_pct",
)


def unit_of_metric(name: str) -> str:
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("_s"):
        return "s"
    return {"augment.stack_mb": "MB", "peak_rss_mb": "MB", "ops.conv2d.gflop": "GFLOP",
            "trace.overhead_pct": "%"}.get(name, "count")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def op_seconds(samples) -> float:
    """Mean over distinct inputs (sample keys) of each input's median time."""
    by_key: dict = {}
    for key, seconds in samples:
        by_key.setdefault(key, []).append(seconds)
    return statistics.fmean(statistics.median(v) for v in by_key.values())


def measure(wl, seconds: float, tracer):
    """Warm up, then run whole rounds while the next one still fits in
    ``seconds``.  With a tracer, every operation runs twice in a row, once
    traced and once as the unmodified program, the order alternating, so
    the tracing overhead compares the same inputs at nearly the same time."""
    for _ in range(wl.warmup_ops):
        wl.warmup()
    samples = {False: [], True: []}
    traced_ops: list[int] = []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while True:
        t_round = time.perf_counter()
        for i, (key, op) in enumerate(wl.round(r)):
            if tracer is None:
                modes = (False,)
            else:
                modes = (False, True) if (r + i) % 2 == 0 else (True, False)
            for traced in modes:
                if traced:
                    tracer.phase = ("op", attempted)
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    op()
                except wl.m.errors.MixNetError:
                    failed += 1
                    traceback.print_exc()
                else:
                    samples[traced].append((key, time.perf_counter() - t0))
                    if traced:
                        traced_ops.append(attempted)
                finally:
                    if traced:
                        tracer.uninstall()
                attempted += 1
        round_s = time.perf_counter() - t_round
        r += 1
        done = len(samples[False]) >= wl.min_ops
        if done and time.perf_counter() - start + round_s > seconds:
            return samples, traced_ops, attempted, failed


def import_seconds() -> float:
    """Median time to import the layers in a fresh interpreter.  A process
    pays the import once, so it is timed in IMPORT_REPEATS child processes
    (the first also fills the file cache) and the median kept."""
    code = ("import importlib, sys, time\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "t0 = time.perf_counter()\n"
            "for name in sys.argv[2:]:\n"
            "    importlib.import_module('mixnet.' + name)\n"
            "print(time.perf_counter() - t0)\n")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code, SRC, *LAYERS],
                              stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def load_program():
    """Time the import of the layers from the checkout's src/, then import them."""
    if not os.path.isfile(os.path.join(SRC, "mixnet", "__init__.py")):
        print(f"error: no mixnet package under {SRC}", file=sys.stderr)
        sys.exit(2)
    import_s = import_seconds()
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"mixnet.{name}") for name in LAYERS}
    origin = os.path.dirname(os.path.abspath(mods["tensor"].__file__))
    if origin != os.path.join(SRC, "mixnet"):
        print(f"error: mixnet imported from {origin}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return argparse.Namespace(**mods), mods, import_s


def run_one(args) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"          # before numpy loads its BLAS
    m, mods, import_s = load_program()

    from checks import CheckFailed
    from tracer import Tracer
    from workloads import WORKLOADS

    work_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        wl = WORKLOADS[args.workload](m, work_dir, args.seed)
        wl.prepare()
        tracer = Tracer(mods) if args.trace else None
        setup_times = []
        for rep in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.phase = ("setup", rep)
                tracer.install()
            t0 = time.perf_counter()
            try:
                wl.setup()
            finally:
                setup_times.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.uninstall()
        samples, traced_ops, attempted, failed = measure(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            notes = wl.check(bool(args.trace))
            correct = True
        except CheckFailed as e:
            notes, correct = [f"CHECK FAILED: {e}"], False
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {attempted} {wl.op_label}s attempted, "
          f"{failed} failed ({len(samples[True])} of them traced)")
    for note in notes:
        print(f"  check: {note}")
    if args.trace:
        indices = {"op": traced_ops, "setup": list(range(SETUP_REPEATS))}
        metrics = per_layer_metrics(tracer, wl, indices, samples)
        print_units(tracer.unit_seconds(indices))
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": metrics, "units": tracer.unit_seconds(indices),
                       **tracer.dump()}, fh)
        print(f"  spans: {trace_path}")
    else:
        op_s = op_seconds(samples[False])
        metrics = {"setup_s": import_s + statistics.median(setup_times),
                   "op_s": op_s,
                   "peak_rss_mb": peak_rss_mb}
        print(f"  import {import_s:.3f} s (median of {IMPORT_REPEATS} interpreters), "
              "set-up repetitions "
              + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
        print(f"  {wl.figure[0]} {wl.figure_value(op_s):.4f} {wl.figure[1]}")
    result = {name: {"value": value, "unit": unit_of_metric(name)}
              for name, value in metrics.items()}
    for name, entry in result.items():
        print(f"  {name:34s} {entry['value']:14.6f} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


def per_layer_metrics(tracer, wl, indices, samples) -> dict:
    layer = tracer.layer_seconds(indices)
    units = tracer.unit_seconds(indices)
    out = {}
    for name in PER_LAYER:
        if name.startswith("unit."):
            out[name] = units.get(name, 0.0)
        elif name.endswith("_s"):
            out[name] = layer.get(name[:-2], 0.0)
        else:
            out[name] = 0.0
    gflop = tracer.counted("ops.conv2d.flop", indices) / 1e9
    conv_s = out["ops.conv2d.fwd_s"] + out["ops.conv2d.bwd_s"]
    out["ops.conv2d.gflop"] = gflop
    out["ops.conv2d.gflop_per_s"] = gflop / conv_s if conv_s else 0.0
    out["tensor.constructed"] = tracer.counted("tensor.constructed", indices)
    out["metrics.surface_voxels"] = tracer.counted("metrics.surface_voxels", indices)
    for name, value in wl.extras.items():
        out[name] = float(value)
    out["trace.overhead_pct"] = 100.0 * (op_seconds(samples[True])
                                         / op_seconds(samples[False]) - 1.0)
    return out


def print_units(units: dict) -> None:
    print("  units (median seconds per operation):")
    names = sorted({n.rsplit(".", 1)[0] for n in units})
    for unit in names:
        fwd = units.get(unit + ".fwd_s", 0.0)
        bwd = units.get(unit + ".bwd_s", 0.0)
        print(f"    {unit[5:]:24s} fwd {fwd:9.5f}  bwd {bwd:9.5f}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            return proc.returncode or 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            summary[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
