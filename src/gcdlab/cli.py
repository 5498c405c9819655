"""Command-line front end.

Subcommands: stats, structure, defect, measure, family {remark2, remark3,
sec5, squarefree}, search {exhaustive, hunt}, verify all.  Every run emits
one structured report document (JSON, or CSV with one row per record) on
standard output.  Exit codes: 0 success, 1 a violation or internal
inconsistency was found, 2 invalid input.

The same seed and configuration always produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .arith import is_prime, rational_valuations
from .instance import (
    GcdInstance,
    InstanceError,
    InternalConsistencyError,
    _members,
    _omega_rows,
    build_omega_gcd,
    decimal_fraction,
    epsilon_fraction,
    instance_to_json,
    p0_natural,
    prime_sets,
    read_instance,
    theorem1_bound,
)
from .reports import make_report, render

# structure, measure, families, search and verify are imported by the
# subcommands that run them, so a cold start loads only what it uses (the
# README lists the modules each subcommand loads).

__all__ = ["main"]

_DEFAULTS = {"epsilon": Fraction(1, 2), "p0": 100, "seed": 0}


def _config(args, inst: GcdInstance | None = None) -> dict:
    """The shared options this subcommand took, as its run uses them: a flag
    wins over the instance file's value, which wins over the default."""
    cfg = {key: getattr(args, key) for key in (*_DEFAULTS, "format") if hasattr(args, key)}
    for key, default in _DEFAULTS.items():
        if key in cfg and cfg[key] is None:
            cfg[key] = getattr(inst, key, default)
    if "epsilon" in cfg:
        cfg["epsilon"] = epsilon_fraction(cfg["epsilon"])
    if "p0" in cfg:
        cfg["p0"] = p0_natural(cfg["p0"])
    return cfg


def _echo(cfg: dict) -> dict:
    """cfg with epsilon as a float, whose repr is epsilon's decimal text."""
    return {**cfg, "epsilon": float(cfg["epsilon"])}


def _int(text: str) -> int:
    """ASCII digits after an optional '-': int() alone also reads '1_0' and ' 12'."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer")
    return int(text)


def _number(text: str) -> Fraction:
    """digits, digits.digits or digits/digits, read exactly (decimal_fraction)."""
    try:
        return decimal_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (document, exit_code)
# ---------------------------------------------------------------------------


def cmd_stats(args) -> tuple[dict, int]:
    inst = read_instance(args.instance)
    cfg = _config(args, inst)
    inst = inst._replace(epsilon=cfg["epsilon"], p0=cfg["p0"])
    # each row is counted and dropped: stats never holds all of Omega
    size = sum(row.bit_count() for row in _omega_rows(inst.A, inst.B, inst.D))
    delta = Fraction(size, inst.size_product())
    pset, psml = prime_sets(inst.A + inst.B, inst.p0)
    summary = {
        "n_a": len(inst.A),
        "n_b": len(inst.B),
        "size_product": inst.size_product(),
        "X": inst.X,
        "Y": inst.Y,
        "D": inst.D,
        "epsilon": float(inst.epsilon),
        "p0": inst.p0,
        "delta": delta,
        "omega_size": size,
        "primes": sorted(pset),
        "primes_small": sorted(psml),
    }
    if delta == 0:
        summary["notice"] = "empty pair set; bound check skipped"
        summary.update(bound=None, bound_log10=None, holds=None)
    else:
        bound, log10_bound, holds = theorem1_bound(inst, delta, psml)
        summary.update(bound=_finite(bound), bound_log10=log10_bound, holds=holds)
    return make_report("stats", _echo(cfg), summary), 0


def cmd_structure(args) -> tuple[dict, int]:
    from .structure import find_modulus, witness_chain

    inst = read_instance(args.instance)
    omega = build_omega_gcd(inst)
    si = find_modulus(inst, omega)
    records = []
    op = si.omega_prime
    index, col_degrees = range(op.n_right), [0] * op.n_right  # each b's pairs in Omega'
    for row in op.rows:
        for j in _members(index, row):
            col_degrees[j] += 1
    row_degrees = map(int.bit_count, op.rows)
    for side, elems, degrees in (("A", op.A, row_degrees), ("B", op.B, col_degrees)):
        for el, degree in zip(elems, degrees):
            if degree:
                d = si.defects[el]
                records.append(
                    {
                        "side": side,
                        "value": str(el.value),
                        "a_plus": str(d.a_plus),
                        "a_minus": str(d.a_minus),
                        "a_star": str(d.a_star),
                        "degree": degree,
                    }
                )
    chain = witness_chain(si)
    if not chain.chain_ok:
        raise InternalConsistencyError("witness chain failed to verify")
    summary = {
        "N": str(si.n.value),
        "N_factors": [[p, e] for p, e in si.n.factors],
        "omega_size": len(omega),
        "omega_prime_size": len(si.omega_prime),
        "fraction": si.fraction,
        "delta": omega.delta,
        "delta_prime": si.delta_prime,
        "witness": _witness_summary(si, chain),
        "holds": chain.holds,
    }
    if si.fraction < Fraction(1, 2):
        summary["warning"] = "pivotal fraction below 1/2 (possible for non-minimal instances)"
    return make_report("structure", _config(args), summary, records), 0


def _witness_summary(si, chain) -> dict:
    """structure's witness section: witness_chain's pair and verdicts, with
    each threshold it passed as an exact Fraction (m = |Omega'|)."""
    from .structure import product_bound

    inst, m = si.base, len(si.omega_prime)
    nA, nB = len(inst.A), len(inst.B)
    return {
        "a": inst.A[chain.ia].value,
        "b": inst.B[chain.ib].value,
        "a_star": chain.a_star,
        "b_star": chain.b_star,
        "delta_prime": si.delta_prime,
        "delta_omega": si.omega.delta,
        "tilde_a_size": chain.tilde_a_size,
        "tilde_a_lower": Fraction(m, 4 * nB),
        "deg_a": chain.deg_a,
        "deg_lower": Fraction(m, 4 * nA),
        "a_star_lower": Fraction(m, 8 * nB),
        "b_star_lower": Fraction(m, 8 * nA),
        "quad_product": chain.a_star * chain.b_star,
        "quad_cap": 4 * inst.X * inst.Y / (inst.D * inst.D),
        "size_product": inst.size_product(),
        "prop_bound": product_bound(si),
        "holds": chain.holds,
        "chain_ok": chain.chain_ok,
    }


def cmd_defect(args) -> tuple[dict, int]:
    from .structure import defect, quad_identity

    d = defect(args.a, args.n)
    summary = {
        "a": str(args.a),
        "N": str(args.n),
        "a_plus": str(d.a_plus),
        "a_minus": str(d.a_minus),
        "a_star": str(d.a_star),
    }
    records = []
    if args.b is not None:
        try:
            quad = quad_identity(args.a, args.b, args.n)
        except ValueError:  # not pivotal; a b that is no natural number raises again below
            quad = None
        summary["b"] = str(args.b)
        summary["pivotal"] = quad is not None
        summary["quad_identity"] = None if quad is None else quad.holds
        if quad is not None:
            records = [{**row._asdict(), "ok": row.ok} for row in quad.witnesses]
        else:
            va = rational_valuations(args.a, args.n)
            vb = rational_valuations(args.b, args.n)
            for p in sorted(va.keys() | vb.keys()):
                v_a, v_b = va.get(p, 0), vb.get(p, 0)
                records.append(
                    {"p": p, "v_a_over_n": v_a, "v_b_over_n": v_b, "sum_abs": abs(v_a) + abs(v_b)}
                )
    return make_report("defect", _config(args), summary, records), 0


def _finite(x: float) -> float | None:
    """x, or None past the float range (as stats reports its bound)."""
    return x if math.isfinite(x) else None


def _measure_summary(rep) -> dict:
    return {
        "c_min": _finite(rep.c_min),
        "c_interval": [_finite(v) for v in rep.c_interval],
        "c_lower_ok": rep.c_lower_ok,
        "k": rep.k,
        "tail": rep.tail,
        "ratio": _finite(rep.ratio),
        "lambda": rep.lam,
        "q": rep.q,
        "epsilon": float(rep.epsilon),
        "gamma": rep.gamma,
        "sigma": [s / rep.sigma.total for s in rep.sigma.sigma],
    }


def cmd_measure(args) -> tuple[dict, int]:
    from .measure import (
        Measure2D,
        WeightPair,
        concentration_report,
        random_admissible_config,
        sweep_extremes,
        valuation_measure,
    )

    modes = {"--point-mass": args.point_mass, "--instance": args.instance, "--random": args.random}
    given = [flag for flag, value in modes.items() if value is not None]
    if len(given) != 1:
        raise InstanceError("give exactly one of --point-mass, --instance, or --random")
    for flag, value, mode in (
        ("--lambda", args.lam, "--point-mass"),
        ("--prime", args.prime, "--instance"),
    ):
        if (value is not None) != (given[0] == mode):
            verb = "is required with" if value is None else "applies only to"
            raise InstanceError(f"{flag} {verb} {mode}")
    # only the random sweep reads a seed, so only its config echoes one
    if given[0] != "--random" and vars(args).pop("seed") is not None:
        raise InstanceError("--seed applies only to --random")
    if given[0] == "--instance" and not is_prime(args.prime):
        raise InstanceError(f"--prime {args.prime} is not prime")
    inst = None if args.instance is None else read_instance(args.instance)
    cfg = _config(args, inst)
    records = []
    if args.point_mass is not None:
        i, j = args.point_mass
        w = WeightPair.from_densities({i: 1}, {j: 1})
        rep = concentration_report(Measure2D.point_mass(i, j), w, args.lam, cfg["epsilon"])
        summary = _measure_summary(rep)
        summary["source"] = f"point-mass ({i}, {j})"
    elif inst is not None:
        mu, w, lam = valuation_measure(build_omega_gcd(inst), args.prime)
        rep = concentration_report(mu, w, lam, cfg["epsilon"])
        summary = _measure_summary(rep)
        summary["source"] = f"valuation measure at p = {args.prime}"
        records = [{"i": i, "j": j, "weight": Fraction(m, mu.total)} for (i, j), m in mu.weights]
    else:
        import random as _random

        if args.random < 1:
            raise InstanceError(f"--random: {args.random} must be a positive count")
        rng = _random.Random(cfg["seed"])
        configs = (random_admissible_config(rng) for _ in range(args.random))
        sweep = sweep_extremes(configs, epsilon=cfg["epsilon"])
        summary = {
            "source": f"random sweep ({args.random} configs)",
            "min_c_seen": sweep.min_c,
            "max_ratio_seen": sweep.max_ratio,
            "all_c_lower_ok": sweep.c_lower_ok,
        }
    return make_report("measure", _echo(cfg), summary, records), 0


def _family_doc(report, A, B, cfg: dict):
    summary = {
        "family": report.family,
        "parameters": report.parameters,
        "n_a": report.set_sizes[0],
        "n_b": report.set_sizes[1],
        "measured_delta": report.measured_delta,
        "extremal_ratio": report.extremal_ratio,
        "checks_passed": list(report.checks_passed),
        "details": report.details,
    }
    records = []
    if len(A) <= 64 and (B is None or len(B) <= 64):
        records.append({"set": "A", "elements": [str(v) for v in A]})
        if B is not None:
            records.append({"set": "B", "elements": [str(v) for v in B]})
    return make_report("family", _echo(cfg), summary, records)


def _emit_set(path: str, A, B, D, cfg: dict) -> None:
    try:
        text = instance_to_json(GcdInstance.build(A, B, D, epsilon=cfg["epsilon"], p0=cfg["p0"]))
    except InstanceError:
        # not a dyadic instance; write the sets without X, Y so readers see
        # the range diagnostics on load
        inst = GcdInstance.build(
            A, B, D, min(A), min(B), epsilon=cfg["epsilon"], p0=cfg["p0"], check_ranges=False
        )
        text = instance_to_json(inst, ranges=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_family(args) -> tuple[dict, int]:
    from .families import remark2_family, remark3_family, sec5_family, squarefree_instance

    cfg = _config(args)
    if args.family == "remark2":
        A, B, report = remark2_family(args.X, args.X if args.Y is None else args.Y, args.D)
        D = args.D
    elif args.family == "remark3":
        A, B, report = remark3_family(args.X, args.D, args.delta)
        D = args.D
    elif args.family == "sec5":
        A, report = sec5_family(args.X)
        B = None
        D = 1
    else:
        A, B, report = squarefree_instance(args.n, args.Q, epsilon=cfg["epsilon"], p0=cfg["p0"])
        D = 1
    if args.emit_set:
        _emit_set(args.emit_set, A, B if B is not None else A, D, cfg)
    return _family_doc(report, A, B, cfg), 0


def cmd_search(args) -> tuple[dict, int]:
    from .search import SearchSpace, exhaustive_max, hunt_violations

    cfg = _config(args)
    if args.action == "exhaustive":
        space = SearchSpace(
            X=args.X,
            Y=args.X if args.Y is None else args.Y,
            D=args.D,
            delta_target=args.delta_target,
            force_equal=args.force_equal,
        )
        res = exhaustive_max(space)
        summary = {
            "mode": space.mode,
            "X": space.X,
            "Y": space.Y,
            "D": space.D,
            "best_a": [str(v) for v in res.best_a],
            "best_b": [str(v) for v in res.best_b],
            "max_product": res.max_product,
        }
        return make_report("search", cfg, summary), 0
    for flag, count in (("--scale-limit", args.scale_limit), ("--structured", args.structured)):
        if count < 0:
            raise InstanceError(f"{flag}: {count} must be a natural number")
    violations = hunt_violations(
        args.scale_limit, cfg["seed"], n_structured=args.structured
    )
    summary = {
        "scale_limit": args.scale_limit,
        "structured_instances": args.structured,
        "violations_found": len(violations),
    }
    records = [{"kind": v.kind, **v.detail} for v in violations]
    return make_report("hunt", cfg, summary, records), (1 if violations else 0)


def cmd_verify(args) -> tuple[dict, int]:
    from .verify import run_all

    cfg = _config(args)
    results = run_all(quick=args.quick, seed_offset=cfg["seed"])
    records = [
        {"check": r.name, "ok": r.ok, "detail": r.detail} for r in results
    ]
    ok = all(r.ok for r in results)
    summary = {
        "checks": len(results),
        "passed": sum(1 for r in results if r.ok),
        "all_ok": ok,
        "mode": "quick" if args.quick else "full",
    }
    return make_report("verify", cfg, summary, records), (0 if ok else 1)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr.

    A parser with subcommands (leaves) takes no option but --help, so a
    flag before the leaf name is reported as one; argparse would read the
    flag's value as the leaf name."""

    leaves = None  # the subparsers action, on a parser that has one

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        first = args[0] if args else ""
        if self.leaves and first.startswith("-") and first not in ("-h", "--help"):
            flag = first.split("=", 1)[0]
            names = ", ".join(self.leaves.choices)
            self.error(f"{flag} goes after the {self.leaves.dest} name ({names})")
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    # one parent per shared option: each leaf takes those that some run of it reads
    eps, p0, seed, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    eps.add_argument(
        "--epsilon", type=_number, default=None,
        help="exponent offset in (0, 1); default the instance file's, else 0.5",
    )
    p0.add_argument(
        "--p0", type=_int, default=None,
        help="small-prime threshold; default the instance file's, else 100",
    )
    seed.add_argument("--seed", type=_int, default=None, help="seed of the random draws; default 0")
    fmt.add_argument("--format", choices=("json", "csv"), default="json")

    parser = _Parser(
        prog="gcdlab",
        description="Exact census, structure, and search laboratory for GCD-pair statistics",
    )
    sub = parser.leaves = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[eps, p0, fmt], help="pair census and bound check")
    p.add_argument("instance", help="instance file (JSON)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("structure", parents=[fmt], help="modulus search, defects, witnesses")
    p.add_argument("instance")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("defect", parents=[fmt], help="defect decomposition of a relative to N")
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--n", "--N", type=_int, required=True, dest="n")
    p.add_argument("--b", type=_int, default=None, help="optional partner for the pair identity")
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("measure", parents=[eps, seed, fmt], help="concentration numerics")
    p.add_argument("--point-mass", nargs=2, type=_int, metavar=("I", "J"), default=None)
    p.add_argument("--lambda", dest="lam", type=_number, default=None)
    p.add_argument("--instance", default=None, help="derive the edge measure from an instance")
    p.add_argument("--prime", type=_int, default=None)
    p.add_argument("--random", type=_int, default=None, help="seeded random sweep of n configs")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("family", help="construct and verify an example family")
    fam = p.leaves = p.add_subparsers(dest="family", required=True)
    family_options = [eps, p0, fmt]
    f2 = fam.add_parser("remark2", parents=family_options)
    f2.add_argument("--X", type=_int, required=True)
    f2.add_argument("--Y", type=_int, default=None)
    f2.add_argument("--D", type=_int, required=True)
    f2.add_argument("--emit-set", default=None, help="write the sets as an instance file")
    f2.set_defaults(func=cmd_family)
    f3 = fam.add_parser("remark3", parents=family_options)
    f3.add_argument("--X", type=_int, required=True)
    f3.add_argument("--D", type=_int, required=True)
    f3.add_argument("--delta", type=_number, required=True, help="target density, e.g. 1/3")
    f3.add_argument("--emit-set", default=None)
    f3.set_defaults(func=cmd_family)
    f5 = fam.add_parser("sec5", parents=family_options)
    f5.add_argument("--X", type=_int, required=True)
    f5.add_argument("--emit-set", default=None)
    f5.set_defaults(func=cmd_family)
    fsq = fam.add_parser("squarefree", parents=family_options)
    fsq.add_argument("--n", type=_int, required=True)
    fsq.add_argument("--Q", type=_number, required=True)
    fsq.add_argument("--emit-set", default=None)
    fsq.set_defaults(func=cmd_family)

    p = sub.add_parser("search", help="extremal search and violation hunt")
    act = p.leaves = p.add_subparsers(dest="action", required=True)
    ex = act.add_parser("exhaustive", parents=[fmt])
    ex.add_argument("--X", type=_int, required=True)
    ex.add_argument("--Y", type=_int, default=None)
    ex.add_argument("--D", type=_int, required=True)
    ex.add_argument(
        "--delta-target", dest="delta_target", type=_number, help="(0, 1]; selects threshold-delta"
    )
    ex.add_argument("--force-equal", action="store_true", dest="force_equal")
    ex.set_defaults(func=cmd_search)
    hv = act.add_parser("hunt", parents=[seed, fmt])
    hv.add_argument("--scale-limit", type=_int, default=16, dest="scale_limit")
    hv.add_argument("--structured", type=_int, default=1000)
    hv.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", parents=[seed, fmt], help="run the built-in verification battery")
    p.add_argument("what", choices=("all",))
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.func(args)
    except (OSError, ValueError) as exc:  # InstanceError and DefectError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(render(doc, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
