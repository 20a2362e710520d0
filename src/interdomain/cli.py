"""Command-line entry point: verification suites, budgets, and the decode
simulator behind one binary.

Every subcommand loads a config (or the built-in tiny default), runs its
suite, prints a human table, and writes the same report as JSON under
``--out`` (default ``reports/``).  Exit status is 0 iff every case passed.
Reports are deterministic for a given config and seed: same bytes, run to
run, so CI can diff them.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import accounting, bench
from .basis import (
    make_indicator_basis,
    make_legendre_basis,
    project,
    readout_free,
    readout_nw,
    ssm_basis,
)
from .config import BACKENDS, VARIANTS, ModelConfig, load_config, make_rng
from .features import FeatureMap
from .layer import backward, decode_step, forward, init_layer_params, prefill
from .oracle import feature_attention
from .ssm import random_ssm, run_scan


@dataclass(frozen=True)
class CaseResult:
    name: str
    error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: tuple[CaseResult, ...]

    def __post_init__(self):
        if not self.cases:
            raise ValueError("a suite must run at least one case")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "cases": [dataclasses.asdict(c) for c in self.cases],
        }


def _case(name: str, error: float, tolerance: float) -> CaseResult:
    return CaseResult(name=name, error=float(error), tolerance=float(tolerance),
                      passed=bool(error <= tolerance))


def _exact(name: str, got, want) -> CaseResult:
    return _case(name, abs(float(got) - float(want)), 0.0)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def _changed_fields(state, kept) -> int:
    """How many fields of a decode state differ, bit for bit, from ``kept``."""
    return sum(not np.array_equal(getattr(state, f.name), getattr(kept, f.name))
               for f in dataclasses.fields(state))


def _tiny(config: ModelConfig, variant: str) -> ModelConfig:
    return dataclasses.replace(
        config, heads=2, model_dim=8, head_dim=4, feature_dim=4, state_dim=4,
        context_len=128, chunk_size=3, prefill_chunk=8, n_kv=2, variant=variant,
    )


# --- suites ---

def equiv_suite(config: ModelConfig, seed: int) -> SuiteReport:
    """Backend agreement on raw scans, plus prefill/decode round trips
    against the one-shot forward for every variant.

    Each scan runs from x0 = 0 (outputs compared) and, as a continued
    prefill does, from a random complex x0 (``_x0``: outputs and final
    state).  The ``query_scan`` cases give every backend's scan the query
    features of three heads and compare its head outputs and final state
    with f_q U^T Gamma of the sequential scan's outputs [U | Gamma].  The
    x0 draws and the query cases come from generators of their own, so the
    other cases see the same data whether or not they run.  Each round
    trip's ``_input_state`` case counts, exactly, the fields of a state
    passed to ``decode_step`` that the step changed; it must be 0.
    """
    rng, x0_rng, q_rng = make_rng(seed), make_rng(seed + 1), make_rng(seed + 2)
    cases = []
    for n, m in ((1, 1), (2, 4), (16, 4), (257, 8)):
        ssm = random_ssm(m, rng)
        z = rng.standard_normal((n, 3))
        x0 = x0_rng.standard_normal((3, m)) + 1j * x0_rng.standard_normal((3, m))
        ref, ref_x0 = run_scan(ssm, z, "sequential"), run_scan(ssm, z, "sequential", x0=x0)
        for backend in BACKENDS[1:]:
            got = run_scan(ssm, z, backend, chunk=min(16, n))
            cases.append(_case(f"scan_{backend}_n{n}_m{m}",
                               _rel(got.outputs, ref.outputs), 1e-8))
        for backend in BACKENDS[1:]:
            got = run_scan(ssm, z, backend, chunk=min(16, n), x0=x0)
            cases.append(_case(f"scan_{backend}_n{n}_m{m}_x0",
                               max(_rel(got.outputs, ref_x0.outputs),
                                   _rel(got.final_state, ref_x0.final_state)), 1e-8))
    ssm, r = random_ssm(4, q_rng), 2
    z, f_q = q_rng.standard_normal((37, 5)), q_rng.standard_normal((37, 3, r))
    x0 = q_rng.standard_normal((5, 4)) + 1j * q_rng.standard_normal((5, 4))
    for start, suffix in ((None, ""), (x0, "_x0")):
        ref = run_scan(ssm, z, "sequential", x0=start)
        want = f_q @ ref.outputs[..., :r].swapaxes(-1, -2) @ ref.outputs[..., r:]
        for backend in BACKENDS:
            got = run_scan(ssm, z, backend, chunk=16, x0=start, f_q=f_q)
            cases.append(_case(f"query_scan_{backend}{suffix}",
                               max(_rel(got.outputs, want),
                                   _rel(got.final_state, ref.final_state)), 1e-8))
    for variant in VARIANTS:
        cfg = _tiny(config, variant)
        params = init_layer_params(cfg, rng, contraction_scale=0.5)
        x = rng.standard_normal((24, cfg.model_dim))
        y_ref = forward(params, x, cfg)
        y_pre, state = prefill(params, x[:16], cfg, chunk=8)
        outs, changed = [y_pre], 0
        for t in range(16, 24):
            kept = copy.deepcopy(state)
            y_t, new_state = decode_step(params, state, x[t], cfg)
            changed += _changed_fields(state, kept)
            state = new_state
            outs.append(y_t[None])
        cases.append(_case(f"prefill_decode_{variant}",
                           float(np.max(np.abs(np.concatenate(outs) - y_ref))), 1e-10))
        cases.append(_exact(f"prefill_decode_{variant}_input_state", changed, 0))
    return SuiteReport("equiv", seed, tuple(cases))


def gradcheck_suite(config: ModelConfig, seed: int) -> SuiteReport:
    """Central finite differences against the analytic backward on the tiny
    shapes, one case per variant; checks the input gradient, the output
    projection, and one complex SSM drive vector."""
    h = 1e-5
    cases = []
    for variant in VARIANTS:
        cfg = _tiny(config, variant)
        rng = make_rng(seed)
        params = init_layer_params(cfg, rng, contraction_scale=0.6)
        x = rng.standard_normal((6, cfg.model_dim))
        g = rng.standard_normal((6, cfg.model_dim))

        def loss():
            return float(np.sum(forward(params, x, cfg) * g))

        def central_diff(arr):
            """d loss / d arr, perturbing ``arr`` in place entry by entry."""
            fd = np.zeros_like(arr)
            for i in range(arr.size):
                arr.flat[i] += h; up = loss()
                arr.flat[i] -= 2 * h; down = loss()
                arr.flat[i] += h
                fd.flat[i] = (up - down) / (2 * h)
            return fd

        grads, grad_x = backward(params, x, g, cfg)
        worst = max(_rel(grad_x, central_diff(x)), _rel(grads["w_o"], central_diff(params.w_o)))

        ssm = params.ssm
        fd_b = np.zeros_like(ssm.b[0])
        for i in range(fd_b.size):
            for mul in (1.0, 1j):
                b2 = ssm.b.copy(); b2[0].flat[i] += h * mul
                params.ssm = dataclasses.replace(ssm, b=b2); up = loss()
                b2 = ssm.b.copy(); b2[0].flat[i] -= h * mul
                params.ssm = dataclasses.replace(ssm, b=b2); down = loss()
                fd_b.flat[i] += (up - down) / (2 * h) * mul
            params.ssm = ssm
        an = grads["ssm.b"][0]
        worst = max(worst, _rel(an.real, fd_b.real), _rel(an.imag, fd_b.imag))
        cases.append(_case(f"gradcheck_{variant}", worst, 1e-4))
    return SuiteReport("gradcheck", seed, tuple(cases))


def budget_suite(config: ModelConfig, seed: int) -> SuiteReport:
    """State-budget identities for the loaded config plus the published
    parameter-count anchors at all four scales."""
    budget = accounting.state_dof(config)
    cases = [
        _exact("total_is_cells_times_per_cell",
               budget.total_dof, budget.cells * budget.per_cell_dof),
    ]
    big = accounting.scale_config(accounting.backbone("1.3b"))
    anchor = accounting.state_dof(big)
    cases.append(_exact("per_cell_dof_at_1p3b", anchor.per_cell_dof, 16384))
    cases.append(_exact("total_dof_at_1p3b", anchor.total_dof, 524288))
    cases.append(_exact("kv_cache_per_token_at_1p3b", anchor.kv_cache_per_token, 4096))
    s4d = accounting.state_dof(accounting.scale_config(accounting.backbone("1.3b"), "s4d_only"))
    cases.append(_exact("iso_state_s4d_equals_interdomain", s4d.total_dof, anchor.total_dof))

    published = {"125m": 134_105_856, "350m": 373_867_520,
                 "760m": 777_856_512, "1.3b": 1_345_423_360}
    for spec in accounting.BACKBONES:
        cases.append(_exact(f"softmax_params_{spec.name}",
                            accounting.count_params(spec, "softmax"), published[spec.name]))
        frac = accounting.overhead_fraction(spec)
        in_band = 0.003 <= frac <= 0.012
        cases.append(CaseResult(f"interdomain_overhead_band_{spec.name}",
                                error=float(frac), tolerance=0.012, passed=in_band))
    return SuiteReport("budget", seed, tuple(cases))


def bench_suite(config: ModelConfig, seed: int, out_dir: Path, batches: tuple[int, ...],
                prefix_lens: tuple[int, ...], steps: int) -> SuiteReport:
    """Decode-grid structure checks; also writes the grid CSV."""
    rows = bench.run_decode_grid(config, batches, prefix_lens, steps)
    bench.emit_csv(rows, str(out_dir / "bench.csv"))

    cases = []
    for b in batches:
        inter = [r.per_step_ops for r in rows if r.path == "interdomain" and r.b == b]
        soft = [r.per_step_ops for r in rows if r.path == "softmax_kv" and r.b == b]
        cases.append(_case(f"interdomain_flat_b{b}", max(inter) - min(inter), 0.0))
        slack = min(y - x for x, y in zip(soft, soft[1:])) if len(soft) > 1 else 1
        cases.append(CaseResult(f"softmax_increasing_b{b}", error=float(max(0, -slack)),
                                tolerance=0.0, passed=slack > 0))
        chunked = [r.peak_memory_units for r in rows if r.path == "interdomain_chunked" and r.b == b]
        full = [r.peak_memory_units for r in rows if r.path == "interdomain" and r.b == b]
        worst = max(c - f for c, f in zip(chunked, full))
        cases.append(_case(f"chunked_peak_bounded_b{b}", max(0, worst), 0.0))
    n = min(48, config.context_len)
    err = bench.verify_prefill_equivalence(config, n=n, chunk=max(1, n // 6), seed=seed)
    cases.append(_case("prefill_equivalence", err, 1e-10))
    return SuiteReport("bench", seed, tuple(cases))


def basis_suite(seed: int) -> SuiteReport:
    """Complete-basis equality demo: with as many basis functions as tokens,
    projecting and reading out reproduces exact feature attention.  Then
    every backend's query scan against its own basis: at each position t
    the head outputs equal ``readout_free`` of the first t + 1 inputs
    projected on ``ssm_basis(ssm, t + 1)``."""
    rng = make_rng(seed)
    fmap = FeatureMap("identity")
    cases = []
    for n in (16, 32):
        d, d_v = 6, 5
        q = rng.uniform(0.05, 1.0, size=(n, d))
        k = rng.uniform(0.05, 1.0, size=(n, d))
        v = rng.standard_normal((n, d_v))
        want = feature_attention(q, k, v, fmap)
        want_free = (q @ k.T) @ v
        for basis, label in ((make_indicator_basis(n), "indicator"),
                             (make_legendre_basis(n, n), "legendre")):
            state = project(k, v, basis)
            cases.append(_case(f"{label}_nw_n{n}", _rel(readout_nw(q, state), want), 1e-10))
            cases.append(_case(f"{label}_free_n{n}",
                               _rel(readout_free(q, state), want_free), 1e-10))
    ssm, r, n = random_ssm(8, rng), 5, 40
    z, f_q = rng.standard_normal((n, r + 3)), rng.standard_normal((n, 2, r))
    want = np.stack([readout_free(f_q[t], project(z[:t + 1, :r], z[:t + 1, r:],
                                                  ssm_basis(ssm, t + 1)))
                     for t in range(n)])
    for backend in BACKENDS:
        got = run_scan(ssm, z, backend, f_q=f_q).outputs
        cases.append(_case(f"ssm_basis_{backend}", _rel(got, want), 1e-10))
    return SuiteReport("basis", seed, tuple(cases))


# --- wiring ---

def _print_report(report: SuiteReport) -> None:
    print(f"suite: {report.suite}   seed: {report.seed}")
    width = max(len(c.name) for c in report.cases)
    for c in report.cases:
        status = "pass" if c.passed else "FAIL"
        print(f"  {c.name:<{width}}  error {c.error:>12.4e}  tol {c.tolerance:>10.3e}  {status}")
    done = sum(c.passed for c in report.cases)
    print(f"  {done}/{len(report.cases)} cases passed")


def _write_json(report: SuiteReport, out_dir: Path) -> None:
    path = out_dir / f"{report.suite}.json"
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_budget_table(config: ModelConfig) -> None:
    table = accounting.budget_table(config)
    width = max(len(k) for k in table)
    for key, value in table.items():
        print(f"  {key:<{width}}  {value:>15,}")


def _int_at_least(low: int):
    """argparse type: one integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _int_list(low: int):
    """argparse type: a nonempty comma-separated list of distinct integers
    >= low; a repeated value would run and report its cells twice."""
    one = _int_at_least(low)

    def parse(text: str) -> tuple[int, ...]:
        values = tuple(one(part) for part in text.split(",") if part)
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise argparse.ArgumentTypeError(f"repeated value {repeated[0]}")
        return values
    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", default=None,
                        help="JSON model config (default: built-in tiny config)")
    common.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="override the config seed for suite data")
    common.add_argument("--out", metavar="DIR", default="reports",
                        help="directory for JSON/CSV reports (default: reports)")

    parser = argparse.ArgumentParser(
        prog="interdomain",
        description="Verification suites and budget/bench reports for the "
                    "fixed-state interdomain token mixer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("equiv", parents=[common],
                   help="scan-backend agreement and prefill/decode round trips")
    sub.add_parser("gradcheck", parents=[common],
                   help="finite-difference checks of the analytic backward")
    sub.add_parser("budget", parents=[common],
                   help="state DoF and parameter-count anchors")
    p_bench = sub.add_parser("bench", parents=[common],
                             help="op-counting decode simulator and CSV grid")
    p_bench.add_argument("--batch", type=_int_list(1), default=(1,),
                         help="comma-separated batch sizes (default 1)")
    p_bench.add_argument("--prefix-lens", type=_int_list(0),
                         default=(512, 1024, 2048, 4096, 8192, 16384),
                         help="comma-separated prefix lengths")
    p_bench.add_argument("--steps", type=_int_at_least(1), default=64,
                         help="decode steps per cell (default 64)")
    sub.add_parser("basis", parents=[common],
                   help="complete-basis equality demo and every scan against its SSM's basis")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            config = load_config(args.config, seed_override=args.seed)
        except (OSError, ValueError) as exc:  # ConfigError and JSONDecodeError are ValueErrors
            parser.error(f"--config {args.config}: {exc}")
    else:
        config = ModelConfig() if args.seed is None else ModelConfig(seed=args.seed)
    seed = config.seed
    out_dir = Path(args.out)
    try:  # before any suite runs, not when its report is written
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out {args.out}: {exc}")

    if args.command == "equiv":
        report = equiv_suite(config, seed)
    elif args.command == "gradcheck":
        report = gradcheck_suite(config, seed)
    elif args.command == "budget":
        report = budget_suite(config, seed)
    elif args.command == "bench":
        report = bench_suite(config, seed, out_dir, args.batch,
                             args.prefix_lens, args.steps)
    else:
        report = basis_suite(seed)

    if args.command == "budget":
        _print_budget_table(config)
    _print_report(report)
    _write_json(report, out_dir)
    return 0 if report.passed else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
