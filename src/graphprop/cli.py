"""Command-line entry point.

Subcommands: rank-sweep, missing-sweep, overlap-sim, blogs, complete,
bound-report, convert-raster. Exit codes: 0 success, 1 any other
package error (such as a violated bound), 2 configuration error, 3 data
error. Logs go to stderr.
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import ConfigError, DataError, GraphPropError, InfeasibleFraction
from .harness import EXPERIMENT_KINDS, RUNNERS, config_from_dict, convert_raster, load_config

log = logging.getLogger("graphprop")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphprop",
        description="Multi-acquisition tensor completion experiments",
    )
    parser.add_argument("--log-level", default="INFO",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"))
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out-dir", help="output directory (overrides config)")
    conv = sub.add_parser("convert-raster",
                          help="convert a flat binary raster into the tensor format")
    conv.add_argument("input", type=Path, help="band-interleaved-by-pixel binary")
    conv.add_argument("sidecar", type=Path, help="JSON sidecar (height/width/bands/dtype)")
    conv.add_argument("output", type=Path, help="output tensor file")
    return parser


def _build_config(args: argparse.Namespace):
    overrides = {"kind": args.command, "seed": args.seed, "out_dir": args.out_dir}
    if args.config is not None:
        return load_config(args.config, **overrides)
    return config_from_dict({}, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "convert-raster":
            tensor = convert_raster(args.input, args.sidecar, args.output)
            log.info("wrote %s with shape %s", args.output, tensor.shape)
            return 0
        cfg = _build_config(args)
        RUNNERS[cfg.kind](cfg)
    except (ConfigError, InfeasibleFraction) as exc:
        log.error("configuration error: %s", exc)
        return 2
    except (DataError, OSError) as exc:
        log.error("data error: %s", exc)
        return 3
    except GraphPropError as exc:
        log.error("%s", exc)
        return 1
    log.info("results written to %s", cfg.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
