"""Command-line interface.

Exit codes: 0 success, 1 usage or operational error, 2 parse rejected
(or oracle-invalid for `verify`), 3 round-trip failure, 4 trailing bytes
after a successful parse.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import TemplateError
from .runtime import DEFAULT_BUDGET


# The least value each numeric option accepts, by its argparse dest.
_LEAST = {"count": 0, "max_size": 0, "timeout_ms": 1, "jobs": 1}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is taken by "parse rejected"
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        for dest, least in _LEAST.items():
            if getattr(parsed, dest, least) < least:
                self.error(f"argument --{dest.replace('_', '-')}: must be at least {least}")
        return parsed


def _template_flag(sp):
    sp.add_argument("--template", required=True, metavar="NAME_OR_PATH",
                    help="bundled template (mini, pnglite, magic16) or a .bt file")


def _gen_flags(sp):
    sp.add_argument("--max-size", type=int, default=DEFAULT_BUDGET, metavar="BYTES",
                    help="generation budget in bytes (default %(default)s)")
    sp.add_argument("--no-evil", action="store_true",
                    help="disable low-probability deliberate format violations")


def _rng_flag(sp):
    sp.add_argument("--rng-seed", type=int, default=None, metavar="N",
                    help="master rng seed (default: random, printed to stderr)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="btfuzz",
                     description="format-aware fuzzing over binary templates")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("generate", help="generate files from random seeds")
    _template_flag(sp)
    sp.add_argument("--count", type=int, default=1)
    _rng_flag(sp)
    sp.add_argument("--out", default="out", metavar="DIR")
    _gen_flags(sp)
    sp.set_defaults(func=harness.cmd_generate)

    sp = sub.add_parser("parse", help="parse a file back into a tree and seed")
    _template_flag(sp)
    sp.add_argument("file")
    sp.add_argument("--out", default=None, metavar="DIR",
                    help="where to write .tree.json/.seed (default: beside the input)")
    sp.add_argument("--no-evil", action="store_true",
                    help="reject files that need evil decisions to represent")
    sp.set_defaults(func=harness.cmd_parse)

    sp = sub.add_parser("replay", help="regenerate a seed; optionally run a target on it")
    _template_flag(sp)
    sp.add_argument("--seed", required=True, metavar="FILE")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write the regenerated file here (default: stdout)")
    sp.add_argument("--target", default=None, metavar="CMD",
                    help="command to run; {} substitutes the input path, else stdin")
    sp.add_argument("--timeout-ms", type=int, default=1000)
    _gen_flags(sp)
    sp.set_defaults(func=harness.cmd_replay)

    sp = sub.add_parser("mutate", help="apply random smart mutations to a corpus")
    _template_flag(sp)
    sp.add_argument("--corpus", required=True, metavar="DIR")
    sp.add_argument("--count", type=int, default=100)
    _rng_flag(sp)
    sp.add_argument("--out", default="mutated", metavar="DIR")
    _gen_flags(sp)
    sp.set_defaults(func=harness.cmd_mutate)

    sp = sub.add_parser("fuzz", help="generate/mutate inputs and run a target on each")
    _template_flag(sp)
    sp.add_argument("--target", required=True, metavar="CMD",
                    help="command to run; {} substitutes the input path, else stdin")
    sp.add_argument("--count", type=int, default=1000)
    _rng_flag(sp)
    sp.add_argument("--out", default="findings", metavar="DIR")
    sp.add_argument("--timeout-ms", type=int, default=1000)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--corpus", default=None, metavar="DIR",
                    help="mutate these files instead of generating from scratch")
    _gen_flags(sp)
    sp.set_defaults(func=harness.cmd_fuzz)

    sp = sub.add_parser("roundtrip", help="check parse/generate inversion")
    _template_flag(sp)
    sp.add_argument("--corpus", default=None, metavar="DIR")
    sp.add_argument("--count", type=int, default=1000,
                    help="random seeds to round-trip (default %(default)s)")
    _rng_flag(sp)
    _gen_flags(sp)
    sp.set_defaults(func=harness.cmd_roundtrip)

    sp = sub.add_parser("coverage", help="measure declaration coverage over generations")
    _template_flag(sp)
    sp.add_argument("--count", type=int, default=10000)
    _rng_flag(sp)
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write a JSON report here")
    _gen_flags(sp)
    sp.set_defaults(func=harness.cmd_coverage)

    sp = sub.add_parser("verify", help="run the independent format oracle on files")
    _template_flag(sp)
    sp.add_argument("files", nargs="+")
    sp.set_defaults(func=harness.cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, TemplateError) as exc:
        print(f"btfuzz: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
