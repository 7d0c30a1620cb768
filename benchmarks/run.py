"""Run one benchmark workload against the poisonlab sources of this checkout.

    python3 benchmarks/run.py --workload {battery,kkt,minmax} --seed N \
        --seconds S --trace {0,1}

One client runs the workload's ops back to back in one process (a closed
loop), in whole passes over the op list until at least S seconds have
passed. BLAS runs on one thread; POISONLAB_WORKERS is left as set (default
1) and recorded.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same timed loop,
then replays the same ops with every public function of results, defenses,
models, feasible, kkt and minmax wrapped, and prints the per-layer metrics.
Earlier lines of the output give each metric with its unit and sample
count, the failures by reason, and the environment. The last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Exits 2 without a result when the checkout holds no poisonlab sources.
"""

import os
import sys
import time

_STARTED = time.perf_counter()  # setup_s counts from here

import argparse
import ctypes
import inspect
import json
import resource
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "completed_ratio": "fraction", "attack_error": "fraction",
                    "peak_rss_mb": "MB"}


def git_sha(root: Path):
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> dict:
    """Thread count of the OpenBLAS bundled with numpy and with scipy (each
    wheel ships its own copy); None where it cannot be queried."""
    import numpy
    import scipy

    out = {}
    for mod in (numpy, scipy):
        out[mod.__name__] = None
        libs = sorted(Path(mod.__file__).parent.parent.glob(
            f"{mod.__name__}.libs/*openblas*.so*"))
        if not libs:
            continue
        handle = ctypes.CDLL(str(libs[0]))  # the copy the module already loaded
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                out[mod.__name__] = int(getattr(handle, sym)())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    from poisonlab import results

    return {
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "POISONLAB_WORKERS": os.environ.get("POISONLAB_WORKERS"),
        "workers": results.worker_count(),
        # models.py imports numba when it can; it is never imported elsewhere
        "numba": "numba" in sys.modules,
    }


def trace_targets(modules, feasible_set_cls):
    """(span name, owner, attribute) for every public function defined in
    each module, and every public method of FeasibleSet."""
    out = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and not attr.startswith("_")
                    and val.__module__ == mod.__name__):
                out.append((f"{short}.{attr}", mod, attr))
    for attr, val in vars(feasible_set_cls).items():
        if inspect.isfunction(val) and not attr.startswith("_"):
            out.append((f"feasible.{attr}", feasible_set_cls, attr))
    return out


def layer_metrics(spans, overhead_ratio: float) -> dict:
    from poisonlab.defenses import ALL_DEFENSES
    from spans import LayerStats, aggregate
    from workloads import TRACED_MODULES

    by_name, by_tag = aggregate(spans)

    def get(name):
        return by_name.get(name) or LayerStats()

    m = {f"defenses.{k}.s": (by_tag.get(k, 0.0), "s") for k in ALL_DEFENSES}
    score, fit = get("defenses.score_dataset"), get("defenses.fit_detector")
    m["defenses.score_dataset.calls"] = (score.calls, "count")
    m["defenses.score_dataset.s"] = (score.total_s, "s")
    m["defenses.score_dataset.per_fit"] = (
        score.calls / fit.calls if fit.calls else 0.0, "calls/fit")
    m["defenses.fit_thresholds.self_s"] = (
        get("defenses.fit_thresholds").self_s, "s")
    m["defenses.fit_detector.s"] = (fit.total_s, "s")
    for name, kinds in (("results.evaluate_against_defenses", ("calls", "s")),
                        ("models.train", ("calls", "s", "p50_ms", "max_s", "fail")),
                        ("feasible.min_margin_point", ("calls", "s")),
                        ("minmax.max_loss_point", ("calls", "s")),
                        ("feasible.project", ("calls", "s", "fail")),
                        ("feasible.build_feasible_set", ("s",)),
                        ("kkt.kkt_solve", ("calls", "s")),
                        ("kkt.gen_decoys", ("s",)),
                        ("kkt.run_kkt", ("s",))):
        st = get(name)
        values = {"calls": (st.calls, "count"), "s": (st.total_s, "s"),
                  "p50_ms": (1e3 * st.p50(), "ms"),
                  "max_s": (max(st.durations, default=0.0), "s"),
                  "fail": (st.fail, "count")}
        for kind in kinds:
            m[f"{name}.{kind}"] = values[kind]
    for module in (mod.__name__.rsplit(".", 1)[-1] for mod in TRACED_MODULES):
        m[f"{module}.self_s"] = (sum(st.self_s for n, st in by_name.items()
                                     if n.startswith(module + ".")), "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("battery", "kkt", "minmax"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # pinned before numpy loads BLAS

    if not (SRC / "poisonlab" / "__init__.py").is_file():
        print(f"no poisonlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import poisonlab
    if Path(poisonlab.__file__).resolve().parent != SRC / "poisonlab":
        print(f"imported poisonlab from {poisonlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import loop
    import workloads as wl
    import_s = time.perf_counter() - _STARTED

    prep_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ops = wl.WORKLOADS[args.workload](args.seed)
        prep_s.append(time.perf_counter() - t)
    deadline = wl.DEADLINE_S[args.workload]
    warm = loop.run_op(ops[0], deadline, wl.FAILURE_REASONS)
    setup_s = import_s + statistics.median(prep_s) + warm.seconds

    timed = loop.run_cycles(ops, args.seconds, deadline, wl.FAILURE_REASONS)
    summary = loop.summarize(timed)
    outcomes = list(timed.outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = {
        "setup_s": f"1 (import + median of {SETUP_REPEATS} preparations "
                   f"+ 1 warm-up op)",
        "ops_per_s": f"{summary['completed']} completed ops over "
                     f"{timed.wall_s:.3f} s",
        "op_p50_s": f"{summary['completed']} completed ops",
        "completed_ratio": f"{summary['attempted']} ops attempted",
        "attack_error": f"{summary['completed']} completed ops",
        "peak_rss_mb": "1",
    }
    if summary["completed"] == 0:
        print("no op completed; nothing to report:",
              json.dumps([vars(o) for o in outcomes]), file=sys.stderr)
        return 1
    values = {"setup_s": setup_s, "ops_per_s": summary["ops_per_s"],
              "op_p50_s": summary["op_p50_s"],
              "completed_ratio": summary["completed"] / summary["attempted"],
              "attack_error": summary["attack_error"],
              "peak_rss_mb": peak_rss_mb}
    end_to_end = {name: (values[name], unit)
                  for name, unit in END_TO_END_UNITS.items()}
    for name, (value, unit) in end_to_end.items():
        print(f"{name:>16} {value:12.6g} {unit:<9} n={samples[name]}")
    print(f"{'fail_ratio':>16} {summary['fail_ratio']:12.6g} {'fraction':<9} "
          f"by reason {summary['failures']}")

    metrics = end_to_end
    if args.trace:
        from poisonlab.feasible import FeasibleSet
        from spans import Tracer

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "poisonlab" or name.startswith("poisonlab.")]
        tracer = Tracer()
        tracer.install(trace_targets(wl.TRACED_MODULES, FeasibleSet), modules,
                       tag_of=lambda a, kw: next(
                           (x.kind for x in (*a, *kw.values())
                            if isinstance(x, wl.defenses.DefenseKind)), None))
        passes = len(timed.outcomes) // len(ops)
        try:
            traced = loop.run_sequence(ops * passes, deadline, wl.FAILURE_REASONS)
        finally:
            tracer.uninstall()
        outcomes += traced.outcomes
        metrics = layer_metrics(tracer.spans, traced.wall_s / timed.wall_s)
        for name, (value, unit) in metrics.items():
            print(f"{name:>40} {value:12.6g} {unit}")

    per_op = {}
    for o in outcomes:
        per_op.setdefault(o.name, []).append(
            round(o.seconds, 4) if o.reason is None else o.reason)
    failed = [o for o in outcomes if o.reason is not None]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "deadline_s": deadline,
        "environment": environment(),
        "setup": {"import_s": import_s, "prepare_s": prep_s,
                  "warmup_s": warm.seconds, "warmup_op": warm.name,
                  "warmup_reason": warm.reason},
        "samples": samples,
        "fail_ratio": summary["fail_ratio"],
        "failures": loop.failure_counts(outcomes),
        "failure_details": sorted({f"{o.name}: {o.reason}: {o.detail}"
                                   for o in failed}),
        "op_seconds": per_op,
    }))
    print(json.dumps({
        "correct": not any(o.reason == "check" for o in [warm, *outcomes]),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
