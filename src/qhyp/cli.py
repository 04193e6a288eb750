"""Command-line front end.

Subcommands cover each layer of the package: exact continued fractions
(cfe), knot invariants (knot), the surgery move sequences (surgery-check),
colored Jones values (jones), Turaev-Viro sweeps (tv, ltv), the fibered
monodromy (monodromy), the embedded volume tables (census), and the full
acceptance gate (verify-all).

Reports are deterministic: identical arguments produce byte-identical
output.  Numeric targets are labeled descriptively next to each computed
value so batch logs are self-documenting.  Exit status is 0 on success, 1
on a failed computation or failed verification, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from typing import Optional

from .rationals import (
    ContinuedFraction,
    ExactRational,
    RationalError,
    alternating_cfe,
    cfe_eval,
)
from .twistknots import (
    DoubleTwistKnot,
    alexander,
    fiber_genus,
    fibered_cfe,
    fraction_of,
    is_monic,
)
from . import census as census_mod
from . import surgery as surgery_mod
from . import monodromy as monodromy_mod
from . import acceptance
from .quantum.roots import RootOfUnityContext
from .quantum.jones import colored_jones
from .quantum.oracles import colored_jones_rmatrix_oracle
from .quantum.growth import (
    complement_sweep,
    default_levels,
    q_hyperbolicity_report,
    surgery_sweep,
)


def _parse_knot(text: str) -> DoubleTwistKnot:
    try:
        m, n = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'm,n' twist counts, got {text!r}"
        ) from None
    return DoubleTwistKnot(m, n)


def _parse_entries(text: str) -> ContinuedFraction:
    try:
        return ContinuedFraction(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad entries {text!r}: {exc}") from None


def _parse_slope(text: str) -> ExactRational:
    try:
        return ExactRational.parse(text)
    except (ValueError, RationalError):
        raise argparse.ArgumentTypeError(f"bad slope {text!r}") from None


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


class UsageError(Exception):
    """Arguments that parse but do not combine; reported as a usage error."""


def _knot_from_args(args) -> DoubleTwistKnot:
    if args.knot is not None and args.family is None and args.n is None:
        return args.knot
    if args.knot is None and args.family is not None and args.n is not None:
        if args.family == "D":
            return DoubleTwistKnot(2 * args.n, -3)
        return DoubleTwistKnot(2 * args.n, -2)
    raise UsageError("specify either --knot m,n or --family {D,D'} with --n")


def _levels_from_args(args) -> list[int]:
    return default_levels(args.r_min, args.r_max, args.r_step)


# --------------------------------------------------------------------------
# subcommand bodies
# --------------------------------------------------------------------------


def cmd_cfe(args) -> int:
    cfe = args.entries if args.alternating is None else alternating_cfe(args.alternating)
    value = cfe_eval(cfe)
    report = {
        "entries": list(cfe.entries),
        "value": str(value),
        "length": len(cfe),
        "all_plus_minus_two": all(abs(a) == 2 for a in cfe.entries),
    }
    _emit(args, json.dumps(report, sort_keys=True))
    return 0


def cmd_knot(args) -> int:
    knot = _knot_from_args(args)
    frac = fraction_of(knot)
    delta = alexander(frac)
    cfe = fibered_cfe(frac)
    fibered = cfe is not None
    report = {
        "knot": str(knot),
        "rolfsen_name": census_mod.rolfsen_name(knot),
        "two_bridge_fraction": str(frac),
        "alexander": delta.terms(),
        "alexander_str": str(delta),
        "monic": is_monic(delta),
        "fibered": fibered,
        "fiber_genus": fiber_genus(cfe) if fibered else None,
        "fibered_cfe": list(cfe.entries) if fibered else None,
    }
    _emit(args, json.dumps(report, sort_keys=True))
    return 0


def cmd_surgery_check(args) -> int:
    family = surgery_mod.FAMILY_D if args.family == "D" else surgery_mod.FAMILY_D_PRIME
    slope, trace = surgery_mod.shared_surgery_moves(family, args.n)
    lines = [f"move trace for family {args.family}, n = {args.n}:"]
    for step, pres in trace:
        lines.append(f"  {step}:")
        for comp in pres.to_json():
            lines.append(
                f"    {comp['id']}: coefficient {comp['coefficient']}, "
                f"linking {comp['linking']}"
            )
    knot_slope, fig8_slope = surgery_mod.shared_surgery(family, args.n)
    lines.append(f"final slope on the twist knot: {slope}")
    lines.append(
        f"shared pair: knot slope {knot_slope}, figure-eight slope {fig8_slope} "
        f"(exceptional: {surgery_mod.is_exceptional_fig8_slope(fig8_slope)})"
    )
    _emit(args, "\n".join(lines))
    return 0


def cmd_jones(args) -> int:
    knot = _knot_from_args(args)
    ctx = RootOfUnityContext(args.r)
    if args.method == "fusion":
        value = colored_jones(knot, args.color, ctx)
    else:
        value = colored_jones_rmatrix_oracle(knot, args.color, ctx)
    report = {
        "knot": str(knot),
        "color_dimension": args.color,
        "level": args.r,
        "method": args.method,
        "value": {"re": value.real, "im": value.imag},
        "abs": abs(value),
    }
    _emit(args, json.dumps(report, sort_keys=True))
    return 0


def cmd_tv(args) -> int:
    knot = _knot_from_args(args)
    levels = _levels_from_args(args)
    if args.slope is not None:
        samples = surgery_sweep(knot, args.slope, levels)
    else:
        samples = complement_sweep(knot, levels)
    _emit(args, json.dumps([asdict(s) for s in samples], sort_keys=True))
    return 0


def cmd_ltv(args) -> int:
    knot = _knot_from_args(args)
    levels = _levels_from_args(args)
    report = q_hyperbolicity_report(knot, args.slope, levels)
    _emit(args, json.dumps(report, sort_keys=True))
    return 0


def cmd_monodromy(args) -> int:
    g = args.genus
    word = monodromy_mod.monodromy_word(g)
    matrix = monodromy_mod.symplectic_action(word)
    ok, rep = monodromy_mod.fibered_monodromy_check(g)
    lines = [
        f"genus {g} monodromy word: {word}",
        "homology action:",
    ]
    for row in matrix:
        lines.append("  [" + " ".join(f"{x:4d}" for x in row) + "]")
    lines.append(f"characteristic polynomial terms: {rep['char_poly']}")
    lines.append(f"Alexander polynomial terms:      {rep['alexander']}")
    lines.append(f"stretch factor: {monodromy_mod.homological_stretch(word):.9f}")
    lines.append(f"cross-check: {'PASS' if ok else 'FAIL'}")
    _emit(args, "\n".join(lines))
    return 0 if ok else 1


def cmd_census(args) -> int:
    if args.row:
        rows = census_mod.find_all_shared(args.row)
        payload = [
            {
                "censusName": row.census_name,
                "volComplement": row.vol_complement_str,
                "slopeOnK": None if row.slope_on_knot is None else str(row.slope_on_knot),
                "slopeOn41": None if row.slope_on_fig8 is None else str(row.slope_on_fig8),
                "volFilled": row.vol_filled_str,
                "knotName": row.knot_name,
                "tetrahedra": census_mod.tetrahedra(row.census_name),
            }
            for row in rows
        ]
        _emit(args, json.dumps(payload, sort_keys=True))
        return 0
    if args.check_bounds:
        lines = []
        failed = 0
        for row in census_mod.census_rows():
            check = census_mod.check_volume_bounds(row)
            lines.append(check.describe())
            failed += 0 if check.passed else 1
        lines.append(f"{len(lines) - failed}/{len(lines)} rows pass")
        _emit(args, "\n".join(lines))
        return 0 if failed == 0 else 1
    lines = ["censusName volComplement slopes volFilled knot"]
    for row in census_mod.census_rows():
        lines.append(
            f"{row.census_name} {row.vol_complement_str} "
            f"{row.slope_on_knot or '-'}, {row.slope_on_fig8 or '-'} "
            f"{row.vol_filled_str} {row.knot_name or ''}"
        )
    _emit(args, "\n".join(lines))
    return 0


def cmd_verify_all(args) -> int:
    results = acceptance.run_all(echo=True)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_knot_options(parser) -> None:
    parser.add_argument("--knot", type=_parse_knot, default=None,
                        help="twist counts 'm,n' of the double twist knot")
    parser.add_argument("--family", choices=("D", "D'"), default=None,
                        help="tabulated family: D is D(2n,-3), D' is D(2n,-2)")
    parser.add_argument("--n", type=int, default=None, help="family parameter n")


def _add_sweep_options(parser) -> None:
    parser.add_argument("--r-min", type=int, default=51, help="first odd level")
    parser.add_argument("--r-max", type=int, default=501, help="last odd level")
    parser.add_argument("--r-step", type=int, default=50,
                        help="level step (even, to keep levels odd)")
    parser.add_argument("--output", default=None, help="write the report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhyp",
        description="verification toolkit for double twist knot surgeries "
        "and Turaev-Viro growth rates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cfe", help="evaluate a continued fraction expansion")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("entries", nargs="?", type=_parse_entries, default=None,
                       help="comma-separated nonzero integers")
    given.add_argument("--alternating", type=int, default=None,
                       help="build the length-2g alternating expansion instead")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_cfe)

    p = sub.add_parser("knot", help="fraction, Alexander polynomial, fiberedness")
    _add_knot_options(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_knot)

    p = sub.add_parser("surgery-check", help="replay the shared-surgery moves")
    p.add_argument("--family", choices=("D", "D'"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_surgery_check)

    p = sub.add_parser("jones", help="one colored Jones value")
    _add_knot_options(p)
    p.add_argument("--color", type=int, required=True, help="color dimension N")
    p.add_argument("--r", type=int, required=True, help="odd level")
    p.add_argument("--method", choices=("fusion", "rmatrix"), default="fusion",
                   help="production fusion engine or the vertex-model oracle")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("tv", help="Turaev-Viro level sweep (JSON, one object per sample)")
    _add_knot_options(p)
    p.add_argument("--slope", type=_parse_slope, default=None,
                   help="fill along this slope; omit for the complement")
    _add_sweep_options(p)
    p.set_defaults(func=cmd_tv)

    p = sub.add_parser("ltv", help="growth estimate with census targets (JSON)")
    _add_knot_options(p)
    p.add_argument("--slope", type=_parse_slope, default=None)
    _add_sweep_options(p)
    p.set_defaults(func=cmd_ltv)

    p = sub.add_parser("monodromy", help="fibered monodromy data at a genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("census", help="embedded volume tables and bound checks")
    shown = p.add_mutually_exclusive_group()
    shown.add_argument("--check-bounds", action="store_true")
    shown.add_argument("--row", default=None, help="emit one census row as JSON")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify-all", help="run the full acceptance gate")
    p.set_defaults(func=cmd_verify_all)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Keep negative numbers such as '-7/2' or '-2,3' as values.

    argparse takes such a token for an option, but no qhyp option starts
    with a digit, so it is always a value.  One right after an option joins
    it ('--slope=-7/2'); any other is a positional and moves behind '--',
    except one ahead of the subcommand, which stays for argparse to reject.
    Tokens after a '--' the user gave pass through untouched.
    """
    cut = argv.index("--") if "--" in argv else len(argv)
    out, positionals = [], []
    for tok in argv[:cut]:
        if not out or not re.match(r"-\d", tok):
            out.append(tok)
        elif out and out[-1].startswith("-") and "=" not in out[-1]:
            out[-1] += "=" + tok
        else:
            positionals.append(tok)
    if positionals or cut < len(argv):
        out += ["--"] + positionals + argv[cut + 1:]
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, KeyError, ArithmeticError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
