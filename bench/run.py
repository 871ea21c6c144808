"""Benchmark of clustercat: one run of one workload.

    python3 bench/run.py --workload verify-d7 --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports clustercat from src/ there.
Set-up (import, category, tilting selection, warm-up) is done SETUP_REPEATS
times, each after a fresh import.  Then whole rounds of operations run until
--seconds have passed.  The reference kernel (refkernel.py) runs between
operations and between set-ups, and their CPU times are stated in its unit,
the ru: see README.md.  setup_s is the median set-up in ru times RU_SECONDS.
Raw wall-clock figures are printed too, but not reported as metrics: on a
shared host they drift more than any useful bound.  Every output is checked
outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed list of
operations twice, first plain and then with spans at each module boundary
(tracer.py), and reports the per-layer metrics per operation, times in
reference units; it also writes the spans to bench/out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 when every check passed, 1 when one failed, 2 when the
checkout holds no clustercat to benchmark.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
RU_SECONDS = 0.01  # nominal duration of one ru, to state set-up in seconds

from checks import CheckError  # noqa: E402
from refkernel import CHECKSUM, ref_kernel  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per-layer metric -> (span name, field) or a count; times are self times
PER_LAYER = {
    "meshhom.functor_build_calls": ("meshhom.functor_build", "calls"),
    "meshhom.functor_build_ru": ("meshhom.functor_build", "self"),
    "meshhom.cover_vertices": "meshhom.cover_vertices",
    "meshhom.compose_calls": ("meshhom.compose", "calls"),
    "meshhom.compose_ru": ("meshhom.compose", "self"),
    "meshhom.coords_calls": ("meshhom.coords", "calls"),
    "meshhom.coords_ru": ("meshhom.coords", "self"),
    "meshhom.hom_basis_calls": ("meshhom.hom_basis", "calls"),
    "meshhom.hom_basis_ru": ("meshhom.hom_basis", "self"),
    "algebra.build_ru": ("algebra.build", "self"),
    "algebra.module_of_calls": ("algebra.module_of", "calls"),
    "algebra.module_of_ru": ("algebra.module_of", "self"),
    "algebra.syzygy_calls": ("algebra.syzygy", "calls"),
    "algebra.syzygy_ru": ("algebra.syzygy", "self"),
    "linalg.calls": ("linalg", "calls"),
    "linalg.ru": ("linalg", "self"),
    "fraction.created": "fraction.created",
    "hammocks.ideal_ru": ("hammocks.ideal", "self"),
    "hammocks.witness_composes": "hammocks.witness_composes",
    "hammocks.hij_calls": ("hammocks.hij", "calls"),
    "hammocks.hij_ru": ("hammocks.hij", "self"),
    "hammocks.closed_form_ru": ("hammocks.closed_form", "self"),
    "render.export_ru": ("render.export", "self"),
    "render.json_bytes": "render.json_bytes",
    "dynkin.knit_ru": ("dynkin.knit", "self"),
    "cluster.build_ru": ("cluster.build", "self"),
    "tilting.enumerate_ru": ("tilting.enumerate", "self"),
    "tilting.mutate_calls": ("tilting.mutate", "calls"),
    "cli.main_ru": ("cli.main", "self"),
}


def fresh_import():
    """Forget clustercat, so the next import is paid again."""
    for key in [k for k in sys.modules
                if k == "clustercat" or k.startswith("clustercat.")]:
        del sys.modules[key]


def kernel_slice(calls):
    """CPU and wall nanoseconds of one reference kernel call, over `calls`."""
    c0, w0 = time.process_time_ns(), time.perf_counter_ns()
    for _ in range(calls):
        if ref_kernel() != CHECKSUM:
            raise CheckError("the reference kernel changed its result")
    return ((time.process_time_ns() - c0) / calls,
            (time.perf_counter_ns() - w0) / calls)


def timed_setups(workload, seed):
    """Set up SETUP_REPEATS times, each between two kernel slices.

    Returns the median set-up in reference seconds (CPU time / ru * RU_SECONDS)
    and the median raw wall seconds.
    """
    ker = [kernel_slice(workload.kernel_calls)[0]]
    ref, wall = [], []
    for _ in range(SETUP_REPEATS):
        fresh_import()
        c0, w0 = time.process_time_ns(), time.perf_counter_ns()
        workload.setup(seed)
        c1, w1 = time.process_time_ns(), time.perf_counter_ns()
        ker.append(kernel_slice(workload.kernel_calls)[0])
        ref.append((c1 - c0) / ((ker[-2] + ker[-1]) / 2) * RU_SECONDS)
        wall.append((w1 - w0) / 1e9)
    return statistics.median(ref), statistics.median(wall)


class Run:
    """Timings and outcomes of the operations of one run.

    The reference kernel runs before every operation and once after the
    last, so each operation sits between two kernel slices; its ratio uses
    the mean of the two, which follows the host's speed more closely than
    either one alone.
    """

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.ker_cpu, self.ker_wall = [], []  # per kernel call, ns
        self.ops = []  # (index of the kernel slice before it, cpu ns, wall ns)

    def kernel(self):
        cpu, wall = kernel_slice(self.w.kernel_calls)
        self.ker_cpu.append(cpu)
        self.ker_wall.append(wall)

    def one(self, i, tracer=None):
        w = self.w
        arg = w.input(i)
        self.kernel()
        self.attempted += 1
        if tracer is not None:
            tracer.install()
            span = tracer.open_op(i)
        c0, w0 = time.process_time_ns(), time.perf_counter_ns()
        try:
            out = w.op(arg)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return
        finally:
            c1, w1 = time.process_time_ns(), time.perf_counter_ns()
            if tracer is not None:
                tracer.close_op(span)
                tracer.uninstall()
        self.ops.append((len(self.ker_cpu) - 1, c1 - c0, w1 - w0))
        try:
            w.check(arg, out)
        except (CheckError, LookupError, ValueError) as e:  # wrong or unparsable
            self.errors.append(f"operation {i}: {e!r}")

    def loop(self, indices, tracer=None):
        for i in indices:
            self.one(i, tracer)
        self.kernel()

    def timed(self, seconds):
        """Whole rounds of operations until `seconds` have passed."""
        end = time.perf_counter() + seconds
        i = 0
        while True:
            for _ in range(self.w.round_size):
                self.one(i)
                i += 1
            if time.perf_counter() >= end:
                break
        self.kernel()

    def ref_per_op(self):
        ru = statistics.fmean(self.ker_cpu)
        return sum(cpu for _k, cpu, _w in self.ops) / ru / len(self.ops)


def end_to_end(run, setup_s):
    ker = run.ker_cpu
    ratios = [cpu / ((ker[k] + ker[k + 1]) / 2) for k, cpu, _w in run.ops]
    return {
        "ref_per_op": (run.ref_per_op(), "ru"),
        "op_ref_p50": (statistics.median(ratios), "ru"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer(workload, seed):
    """Untraced, then traced, pass over the same fixed operations."""
    plain = Run(workload)
    plain.loop(range(workload.trace_ops))
    traced = Run(workload)
    tracer = Tracer()
    traced.loop(range(workload.trace_ops), tracer)
    ops = len(traced.ops)
    ru_ns = statistics.fmean(traced.ker_wall)
    metrics = {}
    for name, source in PER_LAYER.items():
        if isinstance(source, str):
            metrics[name] = (tracer.counts[source] / ops, "count")
            continue
        calls, _total, self_ns = tracer.stats.get(source[0], (0, 0, 0))
        if source[1] == "calls":
            metrics[name] = (calls / ops, "count")
        else:
            metrics[name] = (self_ns / ru_ns / ops, "ru")
    metrics["trace.overhead"] = (traced.ref_per_op() / plain.ref_per_op(), "ratio")
    write(OUT / f"trace-{workload.name}-s{seed}.json", {
        "workload": workload.name, "seed": seed, "ops": ops, "ru_ns": ru_ns,
        "layers": {name: {"calls": c, "total_ru": t / ru_ns / ops,
                          "self_ru": s / ru_ns / ops}
                   for name, (c, t, s) in sorted(tracer.stats.items())},
        "counts": tracer.counts,
        "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
        "spans": tracer.spans,
    })
    return plain, traced, metrics


def write(path, doc):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "clustercat" / "__init__.py").is_file():
        print(f"no clustercat sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]()
    setup_s, setup_wall = timed_setups(workload, args.seed)
    try:
        workload.prepare_checks()
    except CheckError as e:
        print(f"check failed in set-up: {e}", file=sys.stderr)
        return 1

    if args.trace:
        plain, run, metrics = per_layer(workload, args.seed)
        run.attempted += plain.attempted
        run.failed += plain.failed
        run.errors += plain.errors
    else:
        run = Run(workload)
        run.timed(args.seconds)
        metrics = end_to_end(run, setup_s)
        wall = sum(w for _k, _c, w in run.ops) / 1e9
        print(f"{args.workload} raw figures, not gated: "
              f"{len(run.ops) / wall:.4g} ops per wall second, "
              f"set-up {setup_wall:.4g} s wall, "
              f"ru {statistics.fmean(run.ker_cpu) / 1e6:.4g} ms CPU")
    try:
        workload.finish()
    except CheckError as e:
        run.errors.append(str(e))

    for err in run.errors[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write(OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json", result)
    for k, (v, u) in metrics.items():
        print(f"{args.workload} {k} {v:.6g} {u}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
