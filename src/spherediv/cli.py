"""Command-line interface.

Every subcommand emits canonical JSON (sorted keys, rationals as "p/q"
strings, angles in turns) with the tool version, a config echo and any seeds,
so identical invocations are byte-identical.  Exit codes: 0 for a completed
run (negative mathematical verdicts included), 2 for input errors, 3 for an
exhausted resource budget (the interpreter's recursion depth included), 4 for
a failed internal check (a verifier or gate that should never fail, such as
the witness residual or the Euler gate).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .actions import common_fixed_point_test, enumerate_group, evaluate_word, \
    minus_identity, orbit, parse_word
from .circle import ArcSet, classify, parse_angle, verify_arcset
from .errors import BudgetExceeded
from .euler import divisibility_obstruction, euler_check, face_lattice, \
    orbit_polytope
from .gegenbauer import evaluate as poly_evaluate, gegenbauer, harmonic_dimension
from .lifting import descriptor_from_json, lift_from_circle, verify_partition
from .obstruction import certify_degrees, default_n_max, extract_witness, \
    obstructed_degree_error
from .points import enumerate_points, validate_tuple
from .serialize import format_fraction, point_to_json, tuple_from_json, \
    tuple_to_json
from .tiling import TileInstance, solve as tile_solve
from .zonal import build_zonal_basis


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(args, **fields) -> dict:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "output") and v is not None}
    return {"tool": "spherediv", "version": __version__,
            "command": args.command, "config": config, **fields}


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


ALL_MODES = ("exact", "quad", "floating", "circle")


def _load_tuple(path: str, modes=ALL_MODES):
    """The validated tuple in the file; a mode outside ``modes`` (those the
    command decides) is an input error."""
    t = tuple_from_json(_load_json(path))
    if t.mode not in modes:
        raise ValueError(f"{t.mode} tuples are not accepted here; accepted modes: "
                         f"{', '.join(modes)}")
    report = validate_tuple(t)
    if not report.ok:
        raise ValueError("invalid rotation tuple: " + "; ".join(report.issues))
    return t


def _parse_point(text: str):
    return tuple(Fraction(p) for p in text.split(",") if p.strip())


def _parse_angles(text: str):
    return [parse_angle(p) for p in text.split(",") if p.strip()]


# -- subcommands ---------------------------------------------------------------


def cmd_gegenbauer(args) -> dict:
    p = gegenbauer(args.dim, args.degree)
    out = _envelope(args, coefficients=p.to_json(),
                    harmonic_dimension=harmonic_dimension(args.dim, args.degree))
    if args.eval is not None:
        out["value"] = format_fraction(poly_evaluate(p, Fraction(args.eval)))
    return out


def cmd_points(args) -> dict:
    pts = enumerate_points(args.dim, args.count)
    return _envelope(args, points=[point_to_json(p) for p in pts])


def cmd_basis(args) -> dict:
    basis = build_zonal_basis(args.dim, args.degree)
    return _envelope(args, basis=basis.to_json())


def cmd_obstruct(args) -> dict:
    rotations = _load_tuple(args.tuple)
    if args.dim is not None and args.dim != rotations.dimension:
        raise ValueError(f"--dim {args.dim} does not match tuple dimension "
                         f"{rotations.dimension}")
    if args.exact and not rotations.is_exact:
        raise ValueError("--exact requested but the tuple is floating-point")
    n_max = args.nmax if args.nmax is not None else default_n_max(rotations.dimension)
    report = certify_degrees(rotations, n_max=n_max)
    out = _envelope(args, report=report.to_json())
    if args.witness is not None:
        # an exact degree the sweep already decided as obstructed has no
        # witness: fail before building L again
        if rotations.is_exact and 1 <= args.witness <= n_max \
                and report.degrees[args.witness - 1].status == "obstructed":
            raise obstructed_degree_error(args.witness)
        out["witness"] = extract_witness(rotations, args.witness).to_json()
    return out


def cmd_circle_classify(args) -> dict:
    result = classify(_parse_angles(args.angles))
    return _envelope(args, classification=result.to_json())


def cmd_circle_verify(args) -> dict:
    angles = _parse_angles(args.angles)
    arcs = ArcSet.from_json(_load_json(args.arcs))
    ok = verify_arcset(angles, arcs)
    return _envelope(args, valid=ok)


def cmd_tile(args) -> dict:
    shifts = tuple(int(s) for s in args.shifts.split(","))
    solution = tile_solve(TileInstance(args.modulus, shifts),
                          node_budget=args.node_budget)
    return _envelope(args, solution=list(solution.members) if solution else None)


def cmd_orbit(args) -> dict:
    rotations = _load_tuple(args.tuple, ("exact", "quad", "circle"))
    report = orbit(_parse_point(args.point), rotations, cap=args.cap)
    if not report.finite:
        raise BudgetExceeded(f"orbit closure exceeded the cap {args.cap}")
    if rotations.mode == "exact":
        points = [[format_fraction(c) for c in p] for p in report.points]
    else:
        points = [[_to_float(c) for c in p] for p in report.points]
    return _envelope(args, finite=report.finite, size=report.size, cap=report.cap,
                     points=points)


def _to_float(c):
    from .scalars import scalar_to_float

    return scalar_to_float(c)


def cmd_fixed_point_test(args) -> dict:
    # a circle tuple would need a determinant over roots of unity
    rotations = _load_tuple(args.tuple, ("exact", "quad"))
    words = [parse_word(w) for w in args.words.split(",")]
    mats = [minus_identity(evaluate_word(w, rotations)) for w in words]
    found, witness = common_fixed_point_test(mats)
    if witness is not None:
        witness = [str(c) for c in witness]
    return _envelope(args, common_fixed_point=found, witness=witness)


def cmd_euler_check(args) -> dict:
    rotations = _load_tuple(args.generators, ("exact", "quad"))
    closure = enumerate_group(rotations, cap=args.cap)
    if not closure.complete:
        raise BudgetExceeded(f"group closure exceeded the cap {args.cap}")
    polytope = orbit_polytope(closure)
    lattice = face_lattice(polytope)
    chi = lattice.euler_sum
    if rotations.dimension % 2 and not euler_check(lattice):
        raise ArithmeticError(f"Euler gate failed: alternating sum {chi} != 2")
    obstructed, witness_dim = divisibility_obstruction(lattice, args.r)
    return _envelope(args, group_order=closure.order,
                     vertex_count=len(polytope.vertices),
                     face_counts=lattice.counts, chi=chi,
                     obstructed=obstructed, witness_dim=witness_dim)


def cmd_lift(args) -> dict:
    angles = _parse_angles(args.base_angles)
    result = classify(angles)
    if result.verdict != "constructive" or result.arcs is None:
        raise ValueError(f"base angles are not constructively divisible "
                         f"(verdict: {result.verdict})")
    desc = lift_from_circle(result.reduced_turns, result.arcs, args.target_dim)
    return _envelope(args, descriptor=desc.to_json())


def cmd_verify_partition(args) -> dict:
    data = _load_json(args.desc)
    if isinstance(data, dict) and "descriptor" in data:  # accept a full `lift` report
        data = data["descriptor"]
    desc = descriptor_from_json(data)
    report = verify_partition(desc, samples=args.samples, seed=args.seed)
    return _envelope(args, report=report.to_json())


def cmd_synth_generic(args) -> dict:
    # synthesis computes in numpy floats throughout; the exact commands never
    # load it
    import numpy as np

    from .synthesis import complete_rows, draw_upper_entries, epsilon_schedule, \
        genericity_diagnostics, upper_entries_from_json

    rng = np.random.default_rng(args.seed)
    if args.upper:
        upper = upper_entries_from_json(_load_json(args.upper))
        if (upper.dimension, upper.r) != (args.dim, args.r):
            raise ValueError(f"--dim {args.dim} and --r {args.r} do not match the upper "
                             f"entries (dimension {upper.dimension}, {upper.r} blocks)")
    else:
        upper = draw_upper_entries(rng, args.dim, args.r)
    if not upper.within_schedule():
        raise ValueError("upper entries exceed the schedule bounds")
    completion = complete_rows(upper)
    diagnostics = genericity_diagnostics(completion.rotations,
                                         word_length_cap=args.word_cap,
                                         n_max=args.nmax)
    return _envelope(args,
                     schedule=epsilon_schedule(upper.dimension),
                     tuple=tuple_to_json(completion.rotations),
                     orthonormality_residuals=completion.orthonormality_residuals,
                     determinant_residuals=completion.determinant_residuals,
                     identity_distances=completion.identity_distances,
                     diagnostics=diagnostics.to_json())


# -- parser ----------------------------------------------------------------------


def non_negative_int(text: str) -> int:
    """A budget flag's value: a cap, node budget or sample count."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog="spherediv",
        description="decide, certify and construct divisibility of spheres "
                    "under tuples of rotations")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gegenbauer", parents=[common],
                       help="orthogonal polynomial coefficients and harmonic "
                            "space dimensions")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--eval", help="also evaluate at this rational argument")
    p.set_defaults(func=cmd_gegenbauer)

    p = sub.add_parser("points", parents=[common],
                       help="rational points on the sphere by increasing height")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("basis", parents=[common],
                       help="rational-point zonal basis with exact Gram data")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("obstruct", parents=[common],
                       help="determinant certificates against fractional "
                            "divisions, degree by degree")
    p.add_argument("--dim", type=int)
    p.add_argument("--tuple", required=True, help="rotation tuple JSON file")
    p.add_argument("--nmax", type=int)
    p.add_argument("--exact", action="store_true",
                   help="require an exact-mode tuple")
    p.add_argument("--witness", type=int,
                   help="also extract the witness at this degree")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("circle", parents=[],
                       help="measurable divisibility of the circle")
    csub = p.add_subparsers(dest="circle_command", required=True)
    pc = csub.add_parser("classify", parents=[common])
    pc.add_argument("--angles", required=True,
                    help='comma-separated turns, e.g. "1/3,2/3,0" or "1/2 + tau,0"')
    pc.set_defaults(func=cmd_circle_classify)
    pv = csub.add_parser("verify", parents=[common])
    pv.add_argument("--angles", required=True)
    pv.add_argument("--arcs", required=True, help="arc set JSON file")
    pv.set_defaults(func=cmd_circle_verify)

    p = sub.add_parser("tile", parents=[common],
                       help="exact-cover tilings of Z_N by shifted copies")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--shifts", required=True, help='e.g. "2,5,3,0"')
    p.add_argument("--node-budget", type=non_negative_int, default=10 ** 7)
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("orbit", parents=[common],
                       help="breadth-first orbit of a point under the tuple")
    p.add_argument("--tuple", required=True)
    p.add_argument("--point", required=True, help='e.g. "1,0,0"')
    p.add_argument("--cap", type=non_negative_int, default=10 ** 4)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("fixed-point-test", parents=[common],
                       help="do the given words share a fixed vector?")
    p.add_argument("--tuple", required=True)
    p.add_argument("--words", required=True, help='e.g. "g1 g2 g1^-1, g2"')
    p.set_defaults(func=cmd_fixed_point_test)

    p = sub.add_parser("euler-check", parents=[common],
                       help="orbit polytope face counts and the r-divisibility "
                            "obstruction for finite groups")
    p.add_argument("--generators", required=True, help="rotation tuple JSON file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--cap", type=non_negative_int, default=500)
    p.set_defaults(func=cmd_euler_check)

    p = sub.add_parser("lift", parents=[common],
                       help="lift a circle division to a higher-dimensional sphere")
    p.add_argument("--base-angles", required=True)
    p.add_argument("--target-dim", type=int, required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify-partition", parents=[common],
                       help="randomized check that lifted pieces partition the sphere")
    p.add_argument("--desc", required=True, help="division descriptor JSON file")
    p.add_argument("--samples", type=non_negative_int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_partition)

    p = sub.add_parser("synth-generic", parents=[common],
                       help="complete small upper-triangular entries to a "
                            "rotation tuple near the identity, with diagnostics")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--upper", help="JSON file with prescribed upper entries")
    p.add_argument("--word-cap", type=int, default=6)
    p.add_argument("--nmax", type=int, default=6)
    p.set_defaults(func=cmd_synth_generic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"resource budget exceeded: {exc}\n")
        return 3
    except RecursionError:
        sys.stderr.write("resource budget exceeded: recursion depth\n")
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError, ZeroDivisionError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 4
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
