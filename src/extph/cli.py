"""Batch command-line interface.

Commands: ``pph`` (digraph file -> extended diagram), ``hyper``
(hypergraph file -> extended diagram), ``distance`` (two diagram files ->
per-dimension bottleneck distances), ``stability`` (seeded perturbation
trials against the stability bound).  Exit codes: 0 success, 1
internal-consistency or oracle failure, 2 input error, 3 any other
(unexpected) error.  All randomness flows from --seed; outputs are
byte-reproducible.
"""

import argparse
import functools
import math
import sys

from .diagrams import _diagram, bottleneck, diagrams, format_diagram, read_diagram, stability_trial
from .digraph import parse_digraph
from .errors import ConsistencyError, records
from .extended import extended_barcode, extended_module_oracle, interval_rank_table
from .hypergraph import parse_hypergraph

__all__ = ["main"]

_TOLERANCE = 1e-9


def _add_homology(sub):
    sub.add_argument("--pmax", type=int, default=2, help="largest homology dimension (default 2)")
    sub.add_argument("--field", type=int, default=2, help="prime field modulus (default 2)")


def _add_barcode(sub):
    _add_homology(sub)
    sub.add_argument("--no-clearing", action="store_true", help="disable the clearing optimization")
    sub.add_argument(
        "--oracle-check",
        action="store_true",
        help="verify the barcode against the rank oracle; exit 1 on mismatch",
    )


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


@functools.cache  # one tree per process, built on the first call; parse_args leaves it unchanged
def _build_parser():
    parser = argparse.ArgumentParser(prog="extph", description=__doc__.partition("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    pph = commands.add_parser("pph", help="extended persistent path homology of a weighted digraph")
    pph.add_argument("input", help="digraph file: source<TAB>target<TAB>weight per line")
    _add_barcode(pph)
    _add_common(pph)

    hyper = commands.add_parser("hyper", help="extended persistent embedded homology of a hypergraph")
    hyper.add_argument("input", help="hypergraph file: value<TAB>v1,v2,... per line")
    _add_barcode(hyper)
    _add_common(hyper)

    distance = commands.add_parser("distance", help="bottleneck distance between two diagram files")
    distance.add_argument("first")
    distance.add_argument("second")
    _add_common(distance)

    stability = commands.add_parser("stability", help="seeded perturbation trials of the stability bound")
    stability.add_argument("input", help="digraph or hypergraph file (told apart by its first record's field count)")
    stability.add_argument("--delta", type=float, default=0.1, help="perturbation bound (default 0.1)")
    stability.add_argument("--trials", type=int, default=100, help="number of trials (default 100)")
    _add_homology(stability)
    _add_common(stability)
    return parser


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _validate_config(args) -> None:
    """Reject a bad flag; the message names the flag, not a line of any file."""
    if getattr(args, "pmax", 0) < 0:
        raise ValueError("--pmax must be nonnegative")
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    delta = getattr(args, "delta", None)
    if delta is not None and not (delta >= 0 and math.isfinite(2 * delta)):
        raise ValueError("--delta must be nonnegative, with 2 * delta finite")
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 0:
        raise ValueError("--trials must be nonnegative")


def _cmd_diagram(args, parse, builder) -> int:
    front = parse(_read(args.input))
    x, asc, desc = builder(front, args.pmax, args.field)
    bc = extended_barcode(x, args.pmax, clearing=not args.no_clearing)
    if args.oracle_check:
        expected = extended_module_oracle(x, args.pmax)
        got = interval_rank_table(bc, args.pmax)
        if expected != got:
            bad = sorted(k for k in expected if expected[k] != got.get(k))[:5]
            sys.stderr.write(f"oracle mismatch at (dim, stage, stage) windows {bad}\n")
            return 1
    _emit(format_diagram(diagrams(bc, asc, desc)), args.out)
    return 0


def _cmd_pph(args) -> int:
    from .digraph import build_pph_input

    return _cmd_diagram(args, parse_digraph, build_pph_input)


def _cmd_hyper(args) -> int:
    from .hypergraph import build_hyper_input

    return _cmd_diagram(args, parse_hypergraph, build_hyper_input)


def _cmd_distance(args) -> int:
    d1, d2 = read_diagram(_read(args.first)), read_diagram(_read(args.second))
    dims = sorted(set(d1.dims()) | set(d2.dims()))
    lines = []
    overall = 0.0
    for p in dims:
        value = bottleneck(d1, d2, p)
        overall = max(overall, value)
        lines.append(f"{p}\t{value!r}")
    lines.append(f"max\t{overall!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_stability(args) -> int:
    text = _read(args.input)
    # a 2-field first record is a hypergraph; the parser rejects any later line of another width
    widths = (len(fields) for _, fields in records(text))
    subject = (parse_hypergraph if next(widths, 3) == 2 else parse_digraph)(text)
    base = _diagram(subject, args.pmax, args.field) if args.trials else None
    lines = ["trial\td_E\td_B\tstatus"]
    failures = 0
    for t in range(args.trials):
        seed = args.seed * 1_000_003 + t
        d_e, per_dim = stability_trial(subject, args.delta, seed, p_max=args.pmax, q=args.field, base=base)
        d_b = max(per_dim.values(), default=0.0)
        ok = all(v <= d_e + _TOLERANCE for v in per_dim.values())
        failures += 0 if ok else 1
        lines.append(f"{t}\t{d_e!r}\t{d_b!r}\t{'pass' if ok else 'FAIL'}")
    lines.append(f"# {args.trials - failures}/{args.trials} trials within the stability bound")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "pph": _cmd_pph,
        "hyper": _cmd_hyper,
        "distance": _cmd_distance,
        "stability": _cmd_stability,
    }[args.command]
    try:
        _validate_config(args)
        return handler(args)
    except (ValueError, OSError) as exc:  # InputFormatError and GradedValidationError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 1
    except Exception as exc:
        message = " ".join(str(exc).split())
        sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
