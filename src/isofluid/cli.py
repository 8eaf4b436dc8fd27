"""Command-line entry point.

Subcommands: simulate, sweep, longtime, korteweg, tau, check.
Common flags: --config PATH (JSON), --out DIR, --seed U64, --threads N,
--filter NAME.  CLI flags override file keys.

Exit codes: 0 ok, 1 invariant violation, 2 run failure, 3 bad config.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import BadConfig, ExperimentConfig, run_experiment


def _common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, help="RNG seed")
    sub.add_argument("--threads", type=int, help="parallel ladder points")
    sub.add_argument("--t-end", type=float, dest="t_end", help="final time")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="isofluid", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="single run of the regularized system")
    _common(sp)

    sp = sub.add_parser("sweep", help="parameter-limit ladder")
    _common(sp)
    sp.add_argument(
        "--axis",
        choices=["delta", "eta", "drag_ell"],
        default="delta",
        help="which parameter family the ladder scales",
    )

    sp = sub.add_parser("longtime", help="long-horizon Gaussian-attraction run")
    _common(sp)

    sp = sub.add_parser("korteweg", help="log-NLS vs hydrodynamic cross-check")
    _common(sp)

    sp = sub.add_parser("tau", help="scaling-ODE table (t, tau, taudot, residual)")
    _common(sp)

    sp = sub.add_parser("check", help="invariant/identity gate")
    _common(sp)
    sp.add_argument("--filter", help="run only matching families")
    return ap


_KIND_BY_COMMAND = {"korteweg": "korteweg_crosscheck"}  # other commands name their kind


def config_from_args(args) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise BadConfig(f"cannot read {args.config}: {exc}") from exc
    kind = (f"sweep_{args.axis}" if args.command == "sweep"
            else _KIND_BY_COMMAND.get(args.command, args.command))
    flags = {"out_dir": args.out, "seed": args.seed, "threads": args.threads,
             "t_end": args.t_end, "filter": getattr(args, "filter", None)}
    if args.command == "sweep":
        flags["kind"] = kind
    overrides = {key: val for key, val in flags.items() if val is not None}
    config = ExperimentConfig.from_dict(raw, kind, **overrides)
    if config.kind != kind:
        raise BadConfig(f"config kind {config.kind!r} does not match command {args.command!r}")
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_experiment(config_from_args(args))
    except BadConfig as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
