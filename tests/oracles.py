"""Independent oracles that only the tests use."""

from padicdyn.errors import InputError
from padicdyn.finitefield import FqField, form_degree


def form_resultant(field: FqField, F, G) -> int:
    """Determinant of the formal-degree Sylvester matrix over the field."""
    d = form_degree(F)
    if form_degree(G) != d:
        raise InputError("forms must share a formal degree")
    size = 2 * d
    rows = []
    fd = list(reversed(F))
    gd = list(reversed(G))
    for i in range(d):
        row = [0] * size
        for j, c in enumerate(fd):
            row[i + j] = c
        rows.append(row)
    for i in range(d):
        row = [0] * size
        for j, c in enumerate(gd):
            row[i + j] = c
        rows.append(row)
    det = field.of_int(1)
    for k in range(size):
        pivot_row = None
        for i in range(k, size):
            if rows[i][k] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = field.neg(det)
        pivot = rows[k][k]
        det = field.mul(det, pivot)
        inv = field.inv(pivot)
        for i in range(k + 1, size):
            factor = rows[i][k]
            if factor:
                scale = field.mul(factor, inv)
                rows[i] = [
                    field.sub(rows[i][j], field.mul(scale, rows[k][j]))
                    for j in range(size)
                ]
    return det


def map_table(field: FqField, F, G) -> dict:
    """[F : G] at every point of P^1(field), with None for infinity.

    F and G are integer binary forms of one formal degree (entry i is the
    coefficient of X^i Y^(D-i)), reduced through Z -> F_p and evaluated
    point by point, so they must have no common zero mod p.
    """

    def value(form, z):
        acc = 0
        for c in reversed(form):
            acc = field.add(field.mul(acc, z), field.of_int(c))
        return acc

    table = {}
    for z in [*field.elements(), None]:
        if z is None:
            fz, gz = field.of_int(F[-1]), field.of_int(G[-1])
        else:
            fz, gz = value(F, z), value(G, z)
        if fz == 0 and gz == 0:
            raise InputError("the forms share a zero mod p")
        table[z] = None if gz == 0 else field.mul(fz, field.inv(gz))
    return table
