"""Command-line driver for the recovery benchmarks.

Usage:
    recover --preset rational --method lcurve --method pinv \
            --sigma 0.1 --seeds 20 --out results --format csv

Exit codes: 0 on success; 1 on usage errors, mostly the ValueError of
load_preset, make_method or check_sweep; 2 if any run failed numerically
(a SpikerecError, filed as a failed record).  Other exceptions propagate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    REPORT_FORMATS, Variant, check_sweep, emit_report, load_preset, make_method, run_sweep
)
from .kernels import PRESET_IDS

CONFIG_KEYS = frozenset(("n_s", "n_a", "beta", "sigma_list", "l", "tol_factor"))
METHOD_FLAGS = (("gamma", "fixed-gamma"), ("tol_factor", "pinv"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="recover", description=__doc__)
    p.add_argument("--preset", required=True, choices=PRESET_IDS)
    p.add_argument(
        "--method",
        action="append",
        choices=[v.value for v in Variant],
        help="may be given more than once to compare methods on shared noise",
    )
    p.add_argument("--sigma", action="append", type=float, help="noise level; repeatable")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--seeds", type=int, default=20, help="use seeds 0..N-1")
    group.add_argument("--seed-list", type=int, nargs="+", help="explicit seeds")
    p.add_argument("--l", type=int, help="Krylov parameter (default n_x+2)")
    p.add_argument("--tol-factor", type=float, help="pinv cutoff / Frobenius norm (default 1e-4)")
    p.add_argument("--gamma", type=float, help="Tikhonov gamma of fixed-gamma")
    p.add_argument("--beta", type=float, help="Matsubara beta (spectral)")
    p.add_argument("--out", default="results")
    p.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    p.add_argument("--config", default=None, help="JSON file of settings; flags win over it")
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="zero the wall_time column for byte-reproducible reports",
    )
    return p


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.config:
        try:
            with open(args.config) as fh:
                overrides = json.load(fh)
        except (OSError, ValueError) as exc:  # undecodable text and 4300+ digit ints too
            return _usage_error(f"cannot read config {args.config}: {exc}")
        if not isinstance(overrides, dict):
            return _usage_error(f"config {args.config} must hold a JSON object")
        unknown = sorted(set(overrides) - CONFIG_KEYS)
        if unknown:
            return _usage_error(f"unknown config keys in {args.config}: {', '.join(unknown)}")
        if None in overrides.values():
            return _usage_error(f"config {args.config} has a null value")
    flags = dict(beta=args.beta, l=args.l, tol_factor=args.tol_factor, sigma_list=args.sigma)
    # a flag given on the command line wins; the library checks every value
    method_args = {**overrides, **{k: v for k, v in flags.items() if v is not None}}
    preset_args = {k: method_args.pop(k) for k in ("n_s", "n_a", "beta") if k in method_args}
    sigmas = method_args.pop("sigma_list", None)
    seeds = args.seed_list if args.seed_list is not None else range(args.seeds)
    names = args.method or ["lcurve"]
    for key, method in METHOD_FLAGS:
        if getattr(args, key) is not None and method not in names:
            return _usage_error(f"--{key.replace('_', '-')} is used only by --method {method}")
    if args.beta is not None and args.preset != "spectral":
        return _usage_error("--beta is used only by --preset spectral")
    try:
        preset = load_preset(args.preset, **preset_args)
        methods = [make_method(name, n_x=preset.truth.n_x, **method_args,
                               gamma=args.gamma if name == "fixed-gamma" else None)
                   for name in names]
        methods, seeds, sigmas = check_sweep(preset, methods, seeds, sigmas)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _usage_error(f"cannot create output directory {args.out}: {exc}")
    records = run_sweep(preset, methods, seeds, sigmas)
    paths = emit_report(records, args.format, args.out, include_timing=not args.no_timing)
    for path in paths:
        print(path)
    n_failed = sum(1 for r in records if r.failed_stage is not None)
    if n_failed:
        print(f"{n_failed}/{len(records)} runs failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
