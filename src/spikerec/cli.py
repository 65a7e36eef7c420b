"""Command-line driver for the recovery benchmarks.

Usage:
    recover --preset rational --method lcurve --method pinv \
            --sigma 0.1 --seeds 20 --out results --format csv

Exit codes: 0 on success, 1 on usage errors, 2 if any run recorded a
fatal stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import emit_report, load_preset, make_method, run_sweep
from .kernels import PRESET_IDS

CONFIG_KEYS = frozenset(("n_s", "n_a", "beta", "sigma_list", "l", "tol_factor", "grid_size"))


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
        choices=("pinv", "lcurve", "fixed-gamma"),
        help="may be given more than once to compare methods on shared noise",
    )
    p.add_argument("--sigma", action="append", type=float, help="noise level; repeatable")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--seeds", type=int, default=20, help="use seeds 0..N-1")
    group.add_argument("--seed-list", type=int, nargs="+", help="explicit seeds")
    p.add_argument("--l", type=int, help="Krylov parameter (default n_x+2)")
    p.add_argument("--tol-factor", type=float, help="pinv cutoff / Frobenius norm (default 1e-4)")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--beta", type=float, help="Matsubara beta (spectral)")
    p.add_argument("--grid-size", type=int, help="L-curve gamma grid points (default 200)")
    p.add_argument("--out", default="results")
    p.add_argument("--format", choices=("csv", "json", "plotdata"), default="csv")
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
        except (OSError, json.JSONDecodeError) as exc:
            return _usage_error(f"cannot read config {args.config}: {exc}")
        if not isinstance(overrides, dict):
            return _usage_error(f"config {args.config} must hold a JSON object")
        unknown = sorted(set(overrides) - CONFIG_KEYS)
        if unknown:
            return _usage_error(f"unknown config keys in {args.config}: {', '.join(unknown)}")
        if None in overrides.values():
            return _usage_error(f"config {args.config} has a null value")
    flags = {k: getattr(args, k) for k in ("beta", "l", "tol_factor", "grid_size")}
    flags["sigma_list"] = args.sigma
    # a flag given on the command line wins; load_preset and make_method
    # check every value
    settings = {**overrides, **{k: v for k, v in flags.items() if v is not None}}
    seeds = args.seed_list if args.seed_list is not None else list(range(args.seeds))
    if not seeds:
        return _usage_error("--seeds must be >= 1")
    if min(seeds) < 0:
        return _usage_error("seeds must be >= 0")
    preset_keys = ("n_s", "n_a", "beta", "sigma_list")
    preset_args = {k: v for k, v in settings.items() if k in preset_keys}
    method_args = {k: v for k, v in settings.items() if k not in preset_keys}
    try:
        preset = load_preset(args.preset, **preset_args)
        methods = [
            make_method(name, n_x=preset.truth.n_x, gamma=args.gamma, **method_args)
            for name in args.method or ["lcurve"]
        ]
    except ValueError as exc:
        return _usage_error(str(exc))
    records = run_sweep(preset, methods, seeds)
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
