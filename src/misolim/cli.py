"""Command-line experiment runner.

Usage:

    misolim --experiment capacity-vs-n --out fig.csv
    misolim --config run.cfg --seed 7

Defaults reproduce the reference figure setups with zero extra arguments
beyond the experiment name. A flat key=value config file may supply any
option; command-line flags override it. Progress and warnings go to
stderr; only the CSV goes to the output file (or stdout when --out is
omitted).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    csv_text,
    run_experiment,
    write_csv,
)

_LIST_FLAGS = {"--n-grid", "--snr-db", "--kappa", "--t"}
# A list value that starts with a negative number, e.g. "-10,0,10".
_NEGATIVE_LIST = re.compile(r"-\.?\d")


def _list_of(cast):
    """argparse type of a comma- or space-separated list of ``cast``."""
    def parse(text: str) -> list:
        values = []
        for token in text.replace(",", " ").split():
            try:
                values.append(cast(token))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"invalid {cast.__name__} value: {token!r}") from None
        return values
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main prints it as one line and exits 2, not a usage block
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="misolim",
        description="Run a seeded sweep experiment and emit a CSV table.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--experiment", choices=EXPERIMENTS)
    parser.add_argument("--seed", type=int, help="master 64-bit seed (default 1)")
    parser.add_argument("--samples", type=int, dest="n_samples",
                        help="Monte-Carlo samples per grid point "
                             "(default: 10000 for N <= 256, else 1000)")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--n-grid", type=_list_of(int),
                        help="antenna counts, e.g. 1,2,4,...,1024")
    parser.add_argument("--snr-db", type=_list_of(float), help="SNR grid in dB")
    parser.add_argument("--kappa", type=_list_of(float),
                        help="impairment levels (EVM squared)")
    parser.add_argument("--t", type=_list_of(float),
                        help="power-scaling exponents")
    parser.add_argument("--workers", type=int,
                        help="worker processes for the Monte-Carlo chunks "
                             "(does not affect output values)")
    return parser


def _given(args: argparse.Namespace) -> dict:
    return {key: v for key, v in vars(args).items() if v is not None}


def parse_config_file(path: str) -> dict:
    """Flat key = value file, each line read as the flag --key=value; lists
    are comma- or space-separated. Lines starting with '#' are comments."""
    parser = build_parser()
    parser.allow_abbrev = False  # a key names its option in full
    opts: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            try:
                if not (eq and key.strip()):
                    raise ValueError("expected 'key = value'")
                given = _given(parser.parse_args([f"{flag}={value.strip()}"]))
                if "config" in given:
                    raise ValueError("a config file cannot name another")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            opts.update(given)
    return opts


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Join "--flag -10,0" into "--flag=-10,0" for the list flags: argparse
    takes a lone "-10" as a value but reads "-10,0" as an unknown option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_FLAGS and _NEGATIVE_LIST.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _check_out(path: str) -> None:
    """OSError unless ``path`` is no folder and goes in a writable one."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(folder, os.W_OK):
        raise OSError(f"cannot write --out {path}: not a file in a "
                      "writable folder")


def config_from_args(argv=None) -> ExperimentConfig:
    argv = sys.argv[1:] if argv is None else list(argv)
    opts = _given(build_parser().parse_args(_attach_negative_lists(argv)))
    path = opts.pop("config", None)
    opts = {**(parse_config_file(path) if path else {}), **opts}
    if "experiment" not in opts:
        raise ValueError("no experiment selected (use --experiment or a config file)")
    cfg = ExperimentConfig(**opts)
    if cfg.out:
        _check_out(cfg.out)  # before any grid point runs
    return cfg


def main(argv=None) -> int:
    try:
        cfg = config_from_args(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = run_experiment(cfg)
    if cfg.out:
        write_csv(rows, cfg.out)
        print(f"wrote {len(rows)} rows to {cfg.out}", file=sys.stderr)
    else:
        sys.stdout.write(csv_text(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
