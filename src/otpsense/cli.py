"""Command-line front end.

Subcommands:
    subset-gen   list the pads of a subset (a generated subset is stored as
                 its description; this is the one place its pads are listed)
    predict      recovery success rate for a block length, or invert a target
    mask-level   exact leakage table for a subset and sender population
    simulate     run one scenario from a JSON config file
    experiment   sweep one or two scenario parameters from a JSON config

All table-producing commands accept --out FILE and --format {csv,json-lines}
and exit 0 on success, nonzero with a message on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__, bits, leakage, output, protocol, simulate, spectrum

# sender x channel cells of the mask-level table; each is a float in the
# report and a field in the written row, about 200 bytes at peak
MAX_MASK_CELLS = 2 ** 19

# pads subset-gen lists: a generated subset of b blocks has 2**b of them,
# so up to 16 blocks fit
MAX_SUBSET_ROWS = 2 ** 16


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the table to this file instead of stdout")
    p.add_argument("--format", choices=output.FORMATS, default="csv")


def _add_subset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channels", type=int, required=True, help="report length M")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--phi", type=int, help="vote block length")
    group.add_argument("--pairs", type=int, help="number of independent complement pairs")
    group.add_argument("--p-target", type=float, help="per-block recovery rate to size phi for")
    p.add_argument("--eta", type=float, help="agreement probability (required with --p-target)")
    p.add_argument("--omega", type=float, default=1.0, help="block length multiplier >= 1")
    p.add_argument("--seed", type=int, default=0)


def _build_subset(args) -> protocol.PadSubset:
    if args.p_target is not None and args.eta is None:
        raise ValueError("--p-target needs --eta")
    simulate.check_integer("seed", args.seed, 0)
    return protocol.make_subset(args.channels, np.random.default_rng(args.seed), pairs=args.pairs,
                                phi=args.phi, p_target=args.p_target, eta=args.eta,
                                omega=args.omega)


def _metadata(args, extra: dict | None = None) -> dict:
    md = {"tool": f"otpsense {__version__}", "command": args.command}
    if hasattr(args, "seed") and args.seed is not None:
        md["seed"] = args.seed
    if extra:
        md.update(extra)
    return md


def _cmd_subset_gen(args) -> tuple[list[dict], dict]:
    def check_rows(size: int) -> None:
        if size > MAX_SUBSET_ROWS:
            raise ValueError(
                f"the subset has {size} pads, past the {MAX_SUBSET_ROWS} rows subset-gen writes"
            )

    # a pair subset draws its rows as it is built, a generated one only when listed
    if args.pairs is not None:
        check_rows(2 * args.pairs)
    subset = _build_subset(args)
    check_rows(subset.size)
    rows = [{"index": i, "pad": bits.to_string(pad)} for i, pad in enumerate(subset.pads)]
    return rows, _metadata(args, {
        "block_length": subset.block_length,
        "num_blocks": subset.num_blocks,
        "size": subset.size,
    })


def _cmd_predict(args) -> tuple[list[dict], dict]:
    if args.phi is not None:
        rows = [{
            "block_length": args.phi,
            "eta": args.eta,
            "success_rate": protocol.predict_success_rate(args.phi, args.eta),
        }]
    else:
        rows = [{
            "p_target": args.p_target,
            "eta": args.eta,
            "block_length": protocol.invert_success_rate(args.p_target, args.eta),
        }]
    return rows, _metadata(args)


def _cmd_mask_level(args) -> tuple[list[dict], dict]:
    if args.senders < 1:
        raise ValueError(f"--senders must be at least 1, got {args.senders}")
    if args.senders * args.channels > MAX_MASK_CELLS:
        raise ValueError(
            f"--senders {args.senders} on --channels {args.channels} is a table of "
            f"{args.senders * args.channels} cells, past the {MAX_MASK_CELLS} mask-level writes"
        )
    subset = _build_subset(args)
    profile = spectrum.DetectorProfile.homogeneous(args.channels, args.pf, args.pm)
    report = leakage.leakage_report(subset, args.p1, [profile] * args.senders)
    return report.rows(), _metadata(args, {"p1": args.p1})


def _load_config(args) -> tuple[dict, simulate.Scenario, dict]:
    """Parse --config once, apply --seed, and build the output metadata."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"{args.config} is not valid JSON: {e}") from e
    sc = simulate.scenario_from_dict(cfg)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    config_hash = simulate.config_hash(simulate.scenario_to_dict(sc))
    return cfg, sc, _metadata(args, {"config_hash": config_hash, "seed": sc.seed})


def _cmd_simulate(args) -> tuple[list[dict], dict]:
    _, sc, md = _load_config(args)
    return [simulate.run_simulation(sc).row()], md


def _cmd_experiment(args) -> tuple[list[dict], dict]:
    cfg, sc, md = _load_config(args)
    sweep = simulate.sweep_from_dict(cfg)
    workers = args.workers if args.workers is not None else cfg.get("workers", 1)
    return simulate.run_experiment(sc, sweep, workers=workers), md


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otpsense",
        description="pad-protected collaborative spectrum sensing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subset-gen", help="list the pads of a subset")
    _add_subset_args(p)
    _add_output_args(p)
    p.set_defaults(fn=_cmd_subset_gen)

    p = sub.add_parser("predict", help="block recovery rate or required block length")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--phi", type=int, help="block length to evaluate")
    group.add_argument("--p-target", type=float, help="target rate to invert")
    p.add_argument("--eta", type=float, required=True, help="agreement probability")
    _add_output_args(p)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("mask-level", help="exact leakage table")
    _add_subset_args(p)
    p.add_argument("--p1", type=float, default=0.5, help="stationary busy probability")
    p.add_argument("--pf", type=float, default=0.1, help="sender false-alarm probability")
    p.add_argument("--pm", type=float, default=0.1, help="sender miss probability")
    p.add_argument("--senders", type=int, default=1)
    _add_output_args(p)
    p.set_defaults(fn=_cmd_mask_level)

    for name, fn in (("simulate", _cmd_simulate), ("experiment", _cmd_experiment)):
        p = sub.add_parser(name, help=f"{name} from a JSON config")
        p.add_argument("--config", required=True, help="JSON scenario file")
        p.add_argument("--seed", type=int, help="override the config seed")
        if name == "experiment":
            p.add_argument("--workers", type=int,
                           help="processes that run sweep points, this one included")
        _add_output_args(p)
        p.set_defaults(fn=fn)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows, metadata = args.fn(args)
        text = output.write(rows, metadata, args.format, args.out)
        if args.out is None:
            sys.stdout.write(text)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
