"""Command-line front end.

Every subcommand is a thin shell over the library: it parses the map,
opens one MapAtPrime session for it, runs one analysis on that session,
and prints either JSON or a text summary, rendering only what it prints.
JSON is deterministic (sorted keys, fixed indentation, canonically
ordered factorizations) so runs with the same arguments are
byte-identical.  Integers that can exceed native JSON precision
(resultants, discriminants, determinants) are emitted as strings,
rationals as "num/den", and infinite valuations as "inf".

JSON is rendered by ``render_json``, which writes the bytes of
``json.dumps(payload, sort_keys=True, indent=2)`` by string joins: with
an indent, ``json`` always runs its pure-Python encoder, one generator
step per value, and an answer lists O(p) residues twice.  Strings go
through ``json``'s own C escaper, and the ints of a list are formatted
in place.  Payloads hold only str-keyed dicts, lists, tuples, str, int,
bool and None; anything else, floats included, raises TypeError.

A map that begins with a minus sign, as maps print (-7*z^2+3*z+6),
would read as an unknown option; ``main`` moves a word that begins with
one "-" and names z behind "--", where argparse takes it as the map.

Exit codes: 0 success, 1 failed example battery or a reader that closed
stdout before the answer was written (a broken pipe, as under ``| head``),
2 input error, 3 resource cap exceeded, 4 internal alarm.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterator
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str

from .errors import InputError, InternalError, PadicDynError, ResourceLimitError
from .finitefield import FIELD_SIZE_CAP
from .golden import battery_passed, run_battery
from .maps import DEGREE_CAP, HEIGHT_CAP_BITS, ProjPointQ, parse_map
from .orbits import forward_orbit, moduli_search, orbital_report
from .padics import INFINITY
from .qpolys import rational_str
from .reduction import ClosedPoint, MapAtPrime, condition2_check
from .towers import preimage_tree, tower_levels

__all__ = ["main"]


# -- JSON value rendering ------------------------------------------------------

def render_json(value, indent: str = "\n") -> str:
    """value as ``json.dumps(value, sort_keys=True, indent=2)`` writes it;
    indent is the newline and indentation of value's own line."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_json_str(k) + ": " + render_json(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [int.__repr__(v) if type(v) is int else render_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"no JSON rendering for {kind.__name__}")


def _big(value) -> str | None:
    """Big integers and rationals as canonical strings."""
    if value is None:
        return None
    return rational_str(value)


def _val(v):
    """A valuation: plain int, or "inf" for the zero polynomial/point."""
    return "inf" if v == INFINITY else int(v)


def _residue(r) -> object:
    return "inf" if r is None else int(r)


def _point_label(q: ClosedPoint) -> str:
    """Residues for rational closed points, minimal polynomials otherwise."""
    if q.is_infinity:
        return "inf"
    if q.degree == 1:
        return str((-q.poly[0]) % q.p)
    return q.render()


def _pc_json(pc) -> dict | None:
    if pc is None:
        return None
    return {
        "points": [_point_label(q) for q in pc.sorted_points()],
        "everything": pc.everything,
        "stable_depth": pc.stable_depth,
        "critical_points": [_point_label(q) for q in sorted(pc.crit, key=ClosedPoint.sort_key)],
    }


def _locus_json(locus) -> list:
    return ["inf" if r is None else r for r in locus]


def _newton_json(newton):
    if newton is None:
        return None
    return [[_big(slope), length] for slope, length in newton]


def _fiber_json(rep) -> dict:
    return {
        "n": rep.n,
        "x": str(rep.x),
        "integral": rep.integral,
        "lc": _big(rep.lc),
        "lc_valuation": _val(rep.lc_valuation),
        "disc": _big(rep.disc),
        "disc_valuation": _val(rep.disc_valuation),
        "degree_full": rep.degree_full,
        "certificate": rep.certificate,
        "reduced_factor_degrees": rep.reduced_factor_degrees,
        "newton_polygon": _newton_json(rep.newton),
    }


# -- subcommand payloads --------------------------------------------------------

def _cmd_analyze(args) -> tuple[dict, Callable[[], Iterator[str]], int]:
    model = parse_map(args.map, args.prime)
    mp = MapAtPrime(model, args.prime, cap_field=args.cap_field)
    c2 = condition2_check(mp)
    sgr, pc = mp.sgr, mp.pc
    payload = {
        "map": model.map_str(),
        "prime": args.prime,
        "sgr": {
            "degree": sgr.d,
            "resultant": _big(sgr.resultant),
            "res_valuation": sgr.res_valuation,
            "reduced_degree": sgr.reduced_degree,
            "reduced_map": mp.rmap.map_str(),
            "is_strict_good_reduction": sgr.is_strict_good_reduction,
            "inseparable_reduction": sgr.inseparable_reduction,
        },
        "pc": _pc_json(pc),
        "locus": _locus_json(c2.locus),
        "condition2": {
            "holds": c2.holds,
            "separable": c2.separable,
            "reduced_degree_full": c2.reduced_degree_full,
            "witnesses": _locus_json(c2.witnesses),
            "violations": _locus_json(c2.violations),
        },
    }
    if model.d == 1:
        # the 2x2 Sylvester determinant F[1]*G[0] - F[0]*G[1] is the resultant
        payload["sgr"]["det"] = _big(sgr.resultant)
        payload["sgr"]["det_valuation"] = sgr.res_valuation

    def text():
        yield f"map: {model.map_str()}"
        yield f"prime: {args.prime}"
        yield f"degree: {sgr.d}   reduced degree: {sgr.reduced_degree}"
        yield f"resultant: {_big(sgr.resultant)} (valuation {sgr.res_valuation})"
        yield f"strict good reduction: {'yes' if sgr.is_strict_good_reduction else 'no'}"
        yield f"reduced map: {mp.rmap.map_str()}"
        if sgr.inseparable_reduction:
            yield "inseparable reduction (the reduced map is a p-th power composite)"
        if pc is None:
            yield "postcritical set: undefined (constant reduction)"
        elif pc.everything:
            yield "postcritical set: all of P^1"
        else:
            pts = " ".join(_point_label(q) for q in pc.sorted_points()) or "(empty)"
            yield f"postcritical set: {pts} (stable depth {pc.stable_depth})"
        locus = " ".join(str(_residue(r)) for r in c2.locus) or "(empty)"
        yield f"good residue locus: {locus}"
        yield f"degree-d etale fibers over the locus: {'yes' if c2.holds else 'no'}"
        if c2.violations:
            bad = " ".join(str(_residue(r)) for r in c2.violations)
            yield f"violating residues: {bad}"
    return payload, text, 0


def _tree_json(tree) -> dict:
    return {
        "field_degree": tree.m,
        "level_sizes": list(tree.level_sizes),
        "levels": [[_residue(e) for e in level] for level in tree.levels],
        "parents": [list(row) for row in tree.parents],
        "frobenius": [list(row) for row in tree.frob],
        "cycle_types": [
            list(tree.cycle_type(n)) for n in range(1, len(tree.levels))
        ],
    }


def _cmd_tower(args) -> tuple[dict, Callable[[], Iterator[str]], int]:
    if args.n < 1:
        raise InputError(f"-n: tower depth must be >= 1, got {args.n}")
    model = parse_map(args.map, args.prime)
    mp = MapAtPrime(model, args.prime, cap_degree=args.cap_degree, cap_field=args.cap_field)
    x = ProjPointQ.from_value(args.x)
    levels = [_fiber_json(rep) | {"cycle_type": cycle} for rep, cycle in tower_levels(mp, x, args.n)]
    xbar = x.reduce(args.prime)

    warnings = []
    if not x.is_integral(args.prime):
        warnings.append("basepoint is not integral; its reduction is inf")
    if mp.pc_refusal is not None:
        warnings.append(f"basepoint not checked against the postcritical set: {mp.pc_refusal}")
    elif mp.in_pc(xbar):
        warnings.append("basepoint reduces into the postcritical set; no certificate is expected")
    tree_payload = tree_note = None
    try:
        tree = preimage_tree(mp, args.n, xbar)
    except (InputError, ResourceLimitError) as exc:
        tree_note = str(exc)
    else:
        tree_payload = _tree_json(tree)

    payload = {
        "map": model.map_str(),
        "prime": args.prime,
        "towers": {
            "x": str(x),
            "reduction": _residue(xbar),
            "integral": x.is_integral(args.prime),
            "levels": levels,
            "warnings": warnings,
            "tree": tree_payload,
            "tree_note": tree_note,
        },
    }

    def text():
        yield f"map: {model.map_str()}"
        yield f"prime: {args.prime}"
        yield f"x: {x} (reduction {_residue(xbar)}, {'integral' if x.is_integral(args.prime) else 'not integral'})"
        yield " n | lc_val | disc_val | certificate    | cycle type | factor degrees"
        for entry in levels:
            cyc = (
                ",".join(str(c) for c in entry["cycle_type"])
                if entry["cycle_type"]
                else "-"
            )
            fac = (
                ",".join(str(c) for c in entry["reduced_factor_degrees"])
                if entry["reduced_factor_degrees"]
                else "-"
            )
            yield (
                f" {entry['n']} | {entry['lc_valuation']:>6} | {entry['disc_valuation']!s:>8} "
                f"| {entry['certificate']:<14} | {cyc:<10} | {fac}"
            )
        for w in warnings:
            yield f"warning: {w}"
        if tree_payload is not None:
            yield (
                f"reduced preimage tree over F_{args.prime}^{tree_payload['field_degree']}: "
                f"level sizes {','.join(str(s) for s in tree_payload['level_sizes'])}"
            )
        elif tree_note is not None:
            yield f"no reduced preimage tree: {tree_note}"
    return payload, text, 0


def _cmd_orbit(args) -> tuple[dict, Callable[[], Iterator[str]], int]:
    if args.n < 0:
        raise InputError(f"-n: tower depth must be >= 0, got {args.n}")
    model = parse_map(args.map, args.prime)
    mp = MapAtPrime(
        model, args.prime,
        cap_degree=args.cap_degree, cap_field=args.cap_field, cap_height=args.cap_height,
    )
    x = ProjPointQ.from_value(args.x)
    if args.n >= 1:
        rep = orbital_report(mp, x, args.N, args.n)
        profile = rep.profile
    else:
        rep = None
        profile = forward_orbit(mp, x, args.N)

    orbit_payload = {
        "points": [str(pt) for pt in profile.points],
        "preperiod": profile.preperiod,
        "period": profile.period,
        "reductions": [_residue(r) for r in profile.reductions],
        "integral": list(profile.integral_flags),
        "in_postcritical_set": list(profile.in_pc_flags),
    }
    if rep is not None:
        orbit_payload["n_max"] = args.n
        orbit_payload["basepoints"] = [
            {
                "index": j,
                "point": str(pt),
                "levels": [_fiber_json(r) for r, _ in pt_levels],
                "cycle_types": [c for _, c in pt_levels],
            }
            for j, (pt, pt_levels) in enumerate(zip(profile.points, rep.levels))
        ]
        orbit_payload["all_unramified_on_locus"] = rep.all_unramified_on_locus
    if mp.pc_refusal is not None:
        orbit_payload["pc_note"] = mp.pc_refusal

    payload = {"map": model.map_str(), "prime": args.prime, "orbit": orbit_payload}

    def text():
        yield f"map: {model.map_str()}"
        yield f"prime: {args.prime}"
        yield "orbit: " + " -> ".join(str(pt) for pt in profile.points)
        if profile.period is not None:
            yield f"cycle: preperiod {profile.preperiod}, period {profile.period}"
        else:
            yield f"cycle: none within {args.N} steps"
        yield "reductions: " + " ".join(str(_residue(r)) for r in profile.reductions)
        if mp.pc_refusal is not None:
            yield f"note: no postcritical flags: {mp.pc_refusal}"
        if rep is not None:
            for j, (pt, pt_levels) in enumerate(zip(profile.points, rep.levels)):
                certs = " ".join(r.certificate for r, _ in pt_levels)
                yield f"x_{j} = {pt}: {certs}"
            yield (
                "all basepoints off the postcritical set certified unramified: "
                + {True: "yes", False: "no", None: "unknown"}[rep.all_unramified_on_locus]
            )
    return payload, text, 0


def _cmd_moduli(args) -> tuple[dict, Callable[[], Iterator[str]], int]:
    model = parse_map(args.map, args.prime)
    rep = moduli_search(model, args.prime)
    payload = {
        "map": model.map_str(),
        "prime": args.prime,
        "moduli": {
            "initial_valuation": rep.initial_valuation,
            "best_valuation": rep.best_valuation,
            "achieved_zero": rep.achieved_zero,
            "mobius": rep.best_mobius.formula(),
            "conjugate": rep.best_model.map_str(),
            "tried": rep.tried,
        },
    }
    def text():
        yield f"map: {model.map_str()}"
        yield f"prime: {args.prime}"
        yield f"resultant valuation of the given model: {rep.initial_valuation}"
        yield f"best conjugate: M(z) = {rep.best_mobius.formula()} giving {rep.best_model.map_str()}"
        yield f"best resultant valuation: {rep.best_valuation}" + (
            " (good reduction witness)" if rep.achieved_zero else " (inconclusive)"
        )
    return payload, text, 0


def _cmd_examples(args) -> tuple[dict, Callable[[], Iterator[str]], int]:
    checks = run_battery(args.prime)
    passed = battery_passed(checks)
    payload = {
        "prime": args.prime,
        "examples": [
            {"name": c.name, "ok": c.ok, "expected": c.expected, "got": c.got}
            for c in checks
        ],
        "passed": passed,
    }
    def text():
        for c in checks:
            if c.ok:
                yield f"PASS {c.name}"
            else:
                yield f"FAIL {c.name} (expected {c.expected}, got {c.got})"
        yield f"{sum(c.ok for c in checks)}/{len(checks)} worked-example checks passed"
    return payload, text, 0 if passed else 1


# -- argument parsing -----------------------------------------------------------

_CAPS = {  # each subcommand offers only the caps that bound its work
    "degree": ("--cap-degree", DEGREE_CAP, "max polynomial degree"),
    "field": ("--cap-field", FIELD_SIZE_CAP, "max residue field size p^m"),
    "height": ("--cap-height", HEIGHT_CAP_BITS, "max orbit coordinate size in bits"),
}


def _add_common(sub, *caps, needs_map=True):
    if needs_map:
        sub.add_argument(
            "map",
            help="rational map in z, e.g. 'z^2+p' (p is the prime); one with a leading "
            "minus sign may also follow -- ('-- -z^2+1') or be parenthesized ('(-z^2+1)')",
        )
    sub.add_argument("-p", "--prime", type=int, required=True, help="prime of the base field Q_p")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    for cap in caps:
        flag, default, help_text = _CAPS[cap]
        sub.add_argument(flag, type=int, default=default, help=help_text)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The subcommand tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="padicdyn",
        description="reduction, postcritical sets and unramified preimage towers of rational maps over Q_p",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("analyze", help="strict good reduction, postcritical set, fiber criterion")
    _add_common(sub, "field")

    sub = subs.add_parser("tower", help="fiber certificates and Frobenius data over one basepoint")
    _add_common(sub, "degree", "field")
    sub.add_argument("-x", required=True, help="basepoint in P^1(Q): rational number or 'inf' (-x=-2/3 for a negative fraction)")
    sub.add_argument("-n", type=int, default=2, help="tower depth")

    sub = subs.add_parser("orbit", help="forward orbit with per-basepoint tower reports")
    _add_common(sub, "degree", "field", "height")
    sub.add_argument("-x", required=True, help="starting point: rational number or 'inf' (-x=-2/3 for a negative fraction)")
    sub.add_argument("-N", type=int, default=8, help="orbit length")
    sub.add_argument("-n", type=int, default=1, help="tower depth per basepoint (0 for none)")

    sub = subs.add_parser("moduli", help="search affine/inversion conjugates for a unit resultant")
    _add_common(sub)

    sub = subs.add_parser("examples", help="re-run the built-in worked examples at a chosen prime")
    _add_common(sub, needs_map=False)

    return parser


_DISPATCH = {
    "analyze": _cmd_analyze,
    "tower": _cmd_tower,
    "orbit": _cmd_orbit,
    "moduli": _cmd_moduli,
    "examples": _cmd_examples,
}


def _map_behind_dashes(argv: list) -> list:
    """argv with each word that begins with one "-" and names z moved
    behind "--", unless argv already has one or its subcommand takes no map."""
    if "--" in argv or argv[:1] == ["examples"]:
        return argv
    maps = [a for a in argv if a[:1] == "-" and a[1:2] != "-" and "z" in a]
    if not maps:
        return argv
    return [a for a in argv if a not in maps] + ["--"] + maps


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_map_behind_dashes(sys.argv[1:] if argv is None else list(argv)))
    try:
        payload, text, code = _DISPATCH[args.command](args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except PadicDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(render_json(payload) if args.format == "json" else "\n".join(text()))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull, so the flush at
        # exit raises no second error (the SIGPIPE note of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code
