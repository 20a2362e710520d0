"""Wall-clock benchmark of the interdomain mixer layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One process, one closed-loop caller: each call into ``interdomain.layer`` is
issued when the previous one has returned.  BLAS is pinned to
``BLAS_THREADS`` threads before numpy loads.  Workloads (see
``workloads.py``):

* ``decode_1p3b``  1.3b config: prefill a 64-token prompt in 32-token
                   chunks, then 100 ``decode_step``s, per cycle.
* ``train_1p3b``   1.3b config: ``forward`` + ``backward`` on 96 tokens.
* ``long_small``   small config, 2048 tokens: ``forward`` under each scan
                   backend, ``backward``, chunked ``prefill`` and 256
                   ``decode_step``s, per cycle.

A run makes ``round(--seconds / nominal_cycle_s)`` cycles, at least one,
``nominal_cycle_s`` being the workload's cycle time on the reference host:
a fixed count for a given ``--seconds``, whatever the speed of the run.
The last stdout line is the JSON result.  With ``--trace 0`` it carries the
end-to-end metrics, the three that every workload has, so that each
workload is gated on the same set:

* ``setup_s``      median over this process and one fresh process started
                   before each cycle of: imports, config load,
                   ``init_layer_params``, input generation and one warm-up
                   call;
* ``cycle_s``      median wall time of one cycle's calls;
* ``peak_rss_mb``  peak resident memory of this process.

The lines above it report every per-workload metric with its sample count
(``ttft_s``, ``decode_gap_ms_p50``/``p90``, ``decode_tok_s``,
``train_step_s``, ``forward_tok_s.<backend>``, ``backward_tok_s``,
``error_rate``) and the environment.

``--trace 1`` makes the same number of cycles (at least two) and traces
every second one through ``tracing.py``.  It reports per-layer metrics
instead: per span, self time and calls per traced cycle; the decode counts
from an 8-step decode probe on the workload's config; and the tracing
overhead (call time per traced cycle over call time per untraced cycle,
minus one).  A traced run is incorrect if its spans disagree with the call
times measured outside them, if a decode step does not make exactly
``n_kv`` scans, or if the decode state grows.

Each run also writes its full record, spans included, to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# at most nproc; recorded with every result
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = ("setup_s", "cycle_s", "peak_rss_mb")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("decode_1p3b", "train_1p3b", "long_small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print the seconds it took")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    return args


def set_up(args):
    """Import the package, build the workload and make one warm-up call;
    returns the workload and the seconds that took."""
    start = time.perf_counter()
    import interdomain
    import workloads

    if Path(interdomain.__file__).resolve().parent != ROOT / "src" / "interdomain":
        raise RuntimeError(f"imported interdomain from {interdomain.__file__}, not src/")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    return wl, time.perf_counter() - start


def probe_set_up(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(args) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_cycle(wl, calls) -> float:
    """One cycle; a cycle whose outputs fail their check fails all its calls."""
    busy, attempted = calls.busy_s, calls.attempted
    if not wl.cycle(calls):
        calls.reject(calls.attempted - attempted)
    return calls.busy_s - busy


@dataclass
class Measured:
    calls: Calls  # untraced
    traced_calls: Calls
    setup_s: list[float]
    tracer: Tracer = field(default_factory=Tracer)
    cycle_s: list[float] = field(default_factory=list)  # untraced
    per_layer: dict = field(default_factory=dict)
    crashed: bool = False  # a call or check raised


def layer_metrics(wl, m: Measured, n_traced: int) -> dict:
    """Per-layer metrics of a traced run (see the module docstring); rejects
    the traced calls if the spans or the decode counts are wrong."""
    import numpy as np
    from interdomain.bench import decode_step_ops
    from workloads import decode_check

    calls, traced_calls, tracer = m.calls, m.traced_calls, m.tracer
    problems = tracer.check_against(traced_calls.log)
    out = {}
    for name, total in tracer.totals().items():
        out[f"{name}.self_s"] = {"value": total["self_s"] / n_traced, "unit": "s"}
        if not name.startswith("ssm.run_scan."):
            out[f"{name}.calls"] = {"value": total["calls"] / n_traced, "unit": "count"}

    ok, gaps, sizes = decode_check(wl.params, wl.config, wl.probe_tokens)
    probe = Tracer()
    with traced(probe):
        ok_traced, _, _ = decode_check(wl.params, wl.config, wl.probe_tokens)
    if not (ok and ok_traced):
        problems.append("decode probe does not match forward")
    root = {s.op: s.name for s in probe.spans if s.parent is None}
    steps = sum(1 for s in probe.spans if s.name == "layer.decode_step")
    scans = sum(1 for s in probe.spans
                if s.name == "ssm.run_scan" and root[s.op] == "layer.decode_step")
    if scans != wl.config.n_kv * steps:
        problems.append(f"{scans} scans in {steps} decode steps, n_kv={wl.config.n_kv}")
    growth = sizes[-1] - sizes[0]
    if growth != 0:
        problems.append(f"decode state grew by {growth} bytes")
    for problem in problems[:5]:
        print(f"perfbench: traced run: {problem}", file=sys.stderr)
    if problems:
        print(f"perfbench: traced run: {len(problems)} problems", file=sys.stderr)
        traced_calls.reject(traced_calls.attempted)

    gap = float(np.median(calls.samples.get("decode_step") or gaps))
    ops = decode_step_ops(wl.config)["multiply_adds"]
    out.update({
        "ssm.run_scan.calls_per_token": {"value": scans / steps, "unit": "count"},
        "decode.gflops": {"value": 2 * ops / gap / 1e9, "unit": "GFLOP/s"},
        "decode.state_bytes": {"value": sizes[0], "unit": "bytes"},
        "decode.state_bytes_growth": {"value": growth, "unit": "bytes"},
        "tracing_overhead_frac": {
            "value": (traced_calls.busy_s / n_traced) / (calls.busy_s / len(m.cycle_s)) - 1.0,
            "unit": "fraction"},
    })
    return out


def measure(wl, args, setup_s: float) -> Measured:
    """The run's cycles with their set-up probes, the per-run check and, in
    a traced run, the per-layer metrics."""
    from workloads import Calls

    n_cycles = max(1, round(args.seconds / wl.nominal_cycle_s))
    m = Measured(Calls(), Calls(), [setup_s])
    try:
        if args.trace:
            n_cycles = max(2, n_cycles)
            for i in range(n_cycles):
                if i % 2:
                    with traced(m.tracer):
                        run_cycle(wl, m.traced_calls)
                else:
                    m.cycle_s.append(run_cycle(wl, m.calls))
        else:
            for _ in range(n_cycles):
                m.setup_s.append(probe_set_up(args))
                m.cycle_s.append(run_cycle(wl, m.calls))
        if not wl.check():
            m.calls.reject(m.calls.attempted)
        if args.trace:
            m.per_layer = layer_metrics(wl, m, n_cycles // 2)
    except Exception:  # a call that raises is a failed result, not a crash
        traceback.print_exc()
        m.crashed, m.per_layer = True, {}
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "interdomain" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        _, seconds = set_up(args)
        print(repr(seconds))
        return 0

    wl, seconds = set_up(args)
    run = measure(wl, args, seconds)
    calls, per_layer = run.calls, run.per_layer

    from workloads import timing

    attempted = calls.attempted + run.traced_calls.attempted
    failed = calls.failed + run.traced_calls.failed
    report = {
        "setup_s": timing(run.setup_s, "s"),
        "cycle_s": timing(run.cycle_s, "s"),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB", "samples": 1},
        "error_rate": {"value": failed / attempted, "unit": "fraction",
                       "samples": attempted},
        **wl.named(calls),
    }
    report = {name: r for name, r in report.items() if r is not None}
    if args.trace:
        metrics = per_layer
    else:
        metrics = {name: {"value": report[name]["value"], "unit": report[name]["unit"]}
                   for name in END_TO_END if name in report}

    env = environment(args)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, r in report.items():
        print(f"  {name:<30} {r['value']:>14.6g} {r['unit']:<9} n={r['samples']}")
    for name, r in per_layer.items():
        print(f"  {name:<44} {r['value']:>14.6g} {r['unit']}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"env": env, "cycles": len(run.cycle_s), "attempted": attempted, "failed": failed,
              "report": report, "metrics": metrics, "setup_samples": run.setup_s,
              "samples": {**calls.samples, "cycle": run.cycle_s}}
    if args.trace:
        record["spans"] = run.tracer.dump()
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({"correct": not run.crashed and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
