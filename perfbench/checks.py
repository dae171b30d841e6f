"""Output checks made apart from the program.

Each ``check_<workload>(query, payload)`` returns a list of problems; an
empty list means the JSON the program printed for ``query`` is right.  The
checks recompute from the generator's own forms (``perfbench/maps.py``),
with exact ``Fraction`` arithmetic, brute force over P^1(F_p), and sympy
as an independent oracle for resultants, discriminants and gcds.  They
run after the timed region, once per distinct query.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from maps import evaluate, evaluate_mod, iterate, p_primitive, vp

Z, A = sympy.symbols("z a")


def _val(v):
    return v if v != "inf" else float("inf")


def _poly(coeffs, modulus=None):
    """Ascending coefficients as a sympy Poly in z."""
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if modulus is None:
        return sympy.Poly(list(reversed(coeffs)), Z)
    return sympy.Poly(list(reversed(coeffs)), Z, modulus=modulus)


def _form_resultant(F, G):
    """Resultant of two binary forms of formal degree d (Sylvester matrix)."""
    d = len(F) - 1
    rows = []
    for coeffs in (F, G):
        desc = list(reversed(coeffs))
        for i in range(d):
            rows.append([0] * i + desc + [0] * (d - 1 - i))
    return sympy.Matrix(rows).det(method="bareiss")


def _res_valuation(F, G, p):
    d = len(F) - 1
    prim = p_primitive(list(F) + list(G), p)
    return vp(p, int(_form_resultant(prim[: d + 1], prim[d + 1:])))


def _form_squarefree(coeffs, p):
    """Does the form of formal degree d have d distinct roots in P^1 over F_p-bar?"""
    coeffs = [c % p for c in coeffs]
    affine = list(coeffs)
    while affine and affine[-1] == 0:
        affine.pop()
    if not affine:
        return False
    if (len(coeffs) - 1) - (len(affine) - 1) > 1:  # infinity with multiplicity
        return False
    if len(affine) <= 2:
        return True
    poly = _poly(affine, p)
    return poly.gcd(poly.diff(Z)).degree() == 0


# -- tower ---------------------------------------------------------------------


def _fiber_count(F, G, n, xbar, p):
    """Brute force: points of P^1(F_p) that the n-th reduced iterate sends to xbar."""
    count = 0
    for y in list(range(p)) + [None]:
        image = y
        for _ in range(n):
            image = evaluate_mod(F, G, image, p)
        count += image == xbar
    return count


def check_tower(query, payload):
    meta, problems = query.meta, []
    F, G, p, n, x = meta["F"], meta["G"], meta["p"], meta["n"], meta["x"]
    d = len(F) - 1
    towers = payload["towers"]
    xbar = x % p
    off_pc = xbar not in meta["pc"]
    warned = any("postcritical" in w for w in towers["warnings"])
    if warned == off_pc:
        problems.append("postcritical warning disagrees with the benchmark's PC")
    for k, level in enumerate(towers["levels"], start=1):
        fiber = iterate(F, G, k)
        fiber = p_primitive([f - x * g for f, g in zip(*fiber)], p)
        poly = _poly(fiber)
        if _val(level["lc_valuation"]) != vp(p, int(poly.LC())):
            problems.append(f"level {k}: lc valuation")
        if level["disc"] is not None and _val(level["disc_valuation"]) != vp(p, int(poly.discriminant())):
            problems.append(f"level {k}: discriminant valuation")
        if off_pc and level["certificate"] != "UNRAMIFIED":
            problems.append(f"level {k}: off the PC set but not certified unramified")
        cycle = level["cycle_type"]
        if cycle is None:
            if off_pc:
                problems.append(f"level {k}: no cycle type off the PC set")
            continue
        if sum(cycle) != d**k:
            problems.append(f"level {k}: cycle type does not sum to d^n")
        if cycle.count(1) != _fiber_count(F, G, k, xbar, p):
            problems.append(f"level {k}: rational fiber points differ from brute force")
        if level["certificate"] == "UNRAMIFIED" and sorted(level["reduced_factor_degrees"]) != sorted(cycle):
            problems.append(f"level {k}: factor degrees differ from the cycle type")
    tree = towers["tree"]
    if tree is not None:
        for k, level in enumerate(towers["levels"], start=1):
            if tree["level_sizes"][k] != d**k:
                problems.append(f"tree level {k} has {tree['level_sizes'][k]} points")
            if sorted(tree["cycle_types"][k - 1]) != sorted(level["cycle_type"] or []):
                problems.append(f"tree level {k}: Frobenius cycle type differs")
    return problems


# -- orbit ---------------------------------------------------------------------


def check_orbit(query, payload):
    meta, problems = query.meta, []
    F, G, p, N, x0 = meta["F"], meta["G"], meta["p"], meta["N"], meta["x"]
    d = len(F) - 1
    orbit = payload["orbit"]
    points = [Fraction(x0)]
    for _ in range(N):
        points.append(evaluate(F, G, points[-1]))
    got = [None if s == "inf" else Fraction(s) for s in orbit["points"]]
    if got != points:
        return ["orbit points differ from the Fraction recomputation"]
    seen, preperiod, period = {}, None, None
    for j, pt in enumerate(points):
        if pt in seen:
            preperiod, period = seen[pt], j - seen[pt]
            break
        seen[pt] = j
    if (orbit["preperiod"], orbit["period"]) != (preperiod, period):
        problems.append("preperiod or period differs")
    for j, (pt, bp) in enumerate(zip(points, orbit["basepoints"])):
        integral = pt is not None and vp(p, pt) >= 0
        xbar = pt.numerator * pow(pt.denominator, -1, p) % p if integral else None
        if orbit["integral"][j] != integral:
            problems.append(f"x_{j}: integrality flag")
        if orbit["reductions"][j] != ("inf" if xbar is None else xbar):
            problems.append(f"x_{j}: reduction")
        on_pc = xbar in meta["pc"]
        if orbit["in_postcritical_set"][j] != on_pc:
            problems.append(f"x_{j}: postcritical flag")
        for k, cycle in enumerate(bp["cycle_types"], start=1):
            if cycle is not None and sum(cycle) != d**k:
                problems.append(f"x_{j}: cycle type at level {k} does not sum to d^n")
        # strict good reduction: off the PC set, every level is unramified
        if integral and not on_pc:
            if any(level["certificate"] != "UNRAMIFIED" for level in bp["levels"]):
                problems.append(f"x_{j}: integral, off the PC set, not unramified")
    if not orbit["all_unramified_on_locus"]:
        problems.append("all_unramified_on_locus is false for a map of good reduction")
    return problems


# -- analyze -------------------------------------------------------------------


def _locus_fibers_squarefree(F, G, locus, p):
    """Every residue of the locus has a squarefree level-1 fiber of degree d.

    For residues a where F - a G keeps degree d, that is D(a) != 0 mod p,
    with D the discriminant of F(z) - a G(z) over Z[a]; the few others are
    checked directly with a gcd over GF(p).
    """
    d = len(F) - 1
    family = sum((f - A * g) * Z**i for i, (f, g) in enumerate(zip(F, G)))
    D = [int(c) for c in sympy.Poly(sympy.discriminant(family, Z), A).all_coeffs()]
    bad = []
    for r in locus:
        if r == "inf":
            ok = _form_squarefree([-g for g in G], p)
        elif (F[d] - r * G[d]) % p == 0:
            ok = _form_squarefree([f - r * g for f, g in zip(F, G)], p)
        else:
            value = 0
            for c in D:
                value = (value * r + c) % p
            ok = value != 0
        if not ok:
            bad.append(r)
    return bad


def check_analyze(query, payload):
    meta, problems = query.meta, []
    F, G, p, d = meta["F"], meta["G"], meta["p"], meta["d"]
    sgr = payload["sgr"]
    val = _res_valuation(F, G, p)
    if sgr["degree"] != d:
        problems.append("degree")
    if sgr["res_valuation"] != val:
        problems.append(f"res_valuation {sgr['res_valuation']} != {val}")
    if sgr["is_strict_good_reduction"] != (val == 0):
        problems.append("is_strict_good_reduction disagrees with the resultant")
    c2 = payload["condition2"]
    if c2["holds"] != sgr["is_strict_good_reduction"]:
        problems.append("condition2.holds disagrees with strict good reduction")
    if sgr["is_strict_good_reduction"]:
        prim = p_primitive(list(F) + list(G), p)
        bad = _locus_fibers_squarefree(prim[: d + 1], prim[d + 1:], payload["locus"], p)
        if bad:
            problems.append(f"locus residues without a squarefree fiber: {bad[:5]}")
        if c2["witnesses"] != payload["locus"] or c2["violations"]:
            problems.append("witnesses are not the whole locus")
    return problems


# -- moduli --------------------------------------------------------------------


def _parse(text):
    return sympy.parse_expr(text.replace("^", "**"), local_dict={"z": Z})


def _forms_of(expr, d):
    num, den = sympy.fraction(sympy.together(expr))
    F = list(reversed(sympy.Poly(num, Z).all_coeffs()))
    G = list(reversed(sympy.Poly(den, Z).all_coeffs()))
    pad = lambda c: [Fraction(int(x.p), int(x.q)) for x in c] + [Fraction(0)] * (d + 1 - len(c))
    return pad(F), pad(G)


SAMPLE_POINTS = [Fraction(2, 7), Fraction(-3, 11), Fraction(5, 3), Fraction(7), Fraction(-13, 5), Fraction(17, 19)]


def check_moduli(query, payload):
    meta, problems = query.meta, []
    F, G, p, d, kind = meta["F"], meta["G"], meta["p"], meta["d"], meta["kind"]
    mod = payload["moduli"]
    M = _parse(mod["mobius"])
    psi = _parse(mod["conjugate"])
    matched = 0
    for t in SAMPLE_POINTS:
        phi_t = evaluate(F, G, t)
        m_t = M.subs(Z, sympy.Rational(t.numerator, t.denominator))
        if phi_t is None or not m_t.is_finite:
            continue
        lhs = M.subs(Z, sympy.Rational(phi_t.numerator, phi_t.denominator))
        rhs = psi.subs(Z, m_t)
        if not (lhs.is_finite and rhs.is_finite):
            continue
        if lhs != rhs:
            problems.append(f"M o phi != psi o M at z = {t}")
        matched += 1
    if matched < 3:
        problems.append("fewer than three sample points to compare M o phi with psi o M")
    best = _res_valuation(*_forms_of(psi, d), p)
    initial = _res_valuation(F, G, p)
    if mod["best_valuation"] != best:
        problems.append(f"best_valuation {mod['best_valuation']} != {best}")
    if mod["initial_valuation"] != initial:
        problems.append(f"initial_valuation {mod['initial_valuation']} != {initial}")
    if mod["achieved_zero"] != (mod["best_valuation"] == 0):
        problems.append("achieved_zero disagrees with best_valuation")
    if kind == "walk":
        if mod["achieved_zero"] or mod["tried"] != 21 * p:
            problems.append("a map without potential good reduction did not walk the grid")
    elif not mod["achieved_zero"]:
        problems.append("no zero witness for a conjugate of a good map")
    return problems


CHECKS = {
    "tower": check_tower,
    "orbit": check_orbit,
    "analyze": check_analyze,
    "moduli": check_moduli,
}
