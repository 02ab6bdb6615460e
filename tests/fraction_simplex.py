"""The rational simplex that rcx.linprog's integer tableau replaced.

Kept verbatim as a test-only reference: every tableau entry is a
Fraction, the pivots follow Bland's rule, and `_solve_standard` takes
rational rows and one objective. The library's core takes integer rows
(coeffs, rhs, scale), scale times a rational row, and one objective
too, and gives each vector as (integers, denominator) with its
multipliers on the integer rows; `to_core` and `from_core` at the end
convert between the two forms. The differential tests require both
cores to give identical answers.
"""

from fractions import Fraction
from math import lcm

from rcx.linprog import LPOutcome
from rcx.rational import _int_row


def _div(a, b):
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return a / b
    return Fraction(a, b)


class _Tableau:
    """Standard form max c.z : A z <= b, z >= 0, dense rational tableau."""

    def __init__(self, ncols, rows):
        self.n = ncols
        self.m = len(rows)
        self.T = []      # each row: coefficients over all columns, rhs last
        self.basis = []
        self.red = []    # reduced costs of the current objective
        self.val = 0
        neg = [i for i, (_, rhs) in enumerate(rows) if rhs < 0]
        self.art0 = self.n + self.m
        ncols_total = self.art0 + len(neg)
        art_of = {r: self.art0 + k for k, r in enumerate(neg)}
        for i, (coeffs, rhs) in enumerate(rows):
            row = [0] * (ncols_total + 1)
            flip = -1 if rhs < 0 else 1
            for j, v in enumerate(coeffs):
                if v:
                    row[j] = flip * v
            row[self.n + i] = flip
            row[-1] = flip * rhs
            if flip < 0:
                row[art_of[i]] = 1
                self.basis.append(art_of[i])
            else:
                self.basis.append(self.n + i)
            self.T.append(row)
        self.n_art = len(neg)

    def price_out(self, costs):
        """Install an objective (list over all columns) as reduced costs."""
        red = list(costs) + [0] * (len(self.T[0]) - 1 - len(costs))
        val = 0
        for i, b in enumerate(self.basis):
            f = red[b]
            if f:
                row = self.T[i]
                val += f * row[-1]
                red = [x - f * y for x, y in zip(red, row)]
        self.red = red
        self.val = val

    def pivot(self, r, e):
        row = self.T[r]
        piv = row[e]
        if not isinstance(piv, Fraction):
            piv = Fraction(piv)
        row = [v / piv for v in row]
        self.T[r] = row
        for i, other in enumerate(self.T):
            if i != r:
                f = other[e]
                if f:
                    self.T[i] = [x - f * y for x, y in zip(other, row)]
        f = self.red[e]
        if f:
            self.val += f * row[-1]
            self.red = [x - f * y for x, y in zip(self.red, row)]
        self.basis[r] = e

    def run(self, last_col):
        """Bland's rule until optimal or unbounded; entering cols < last_col."""
        while True:
            e = None
            red = self.red
            for j in range(last_col):
                if red[j] > 0:
                    e = j
                    break
            if e is None:
                return "optimal", None
            best_key, best_row = None, None
            for i, row in enumerate(self.T):
                coef = row[e]
                if coef > 0:
                    key = (_div(row[-1], coef), self.basis[i])
                    if best_key is None or key < best_key:
                        best_key, best_row = key, i
            if best_row is None:
                return "unbounded", e
            self.pivot(best_row, e)

    def drop_artificials(self):
        """After a zero-value phase 1: pivot artificials out, drop their columns.

        Rows that reduce to 0 = 0 are implied by the others and are deleted.
        """
        cut = self.art0
        keep = []
        for r in range(len(self.T)):
            if self.basis[r] >= cut:
                e = next((j for j in range(cut) if self.T[r][j] != 0), None)
                if e is None:
                    continue
                self.pivot(r, e)
            keep.append(r)
        self.T = [self.T[r][:cut] + [self.T[r][-1]] for r in keep]
        self.basis = [self.basis[r] for r in keep]

    def solution(self):
        x = [0] * self.n
        for i, b in enumerate(self.basis):
            if b < self.n:
                x[b] = self.T[i][-1]
        return tuple(x)

    def slack_duals(self):
        return tuple(-self.red[self.n + i] for i in range(self.m))

    def ray(self, e):
        r = [0] * self.n
        if e < self.n:
            r[e] = 1
        for i, b in enumerate(self.basis):
            if b < self.n:
                r[b] = -self.T[i][e]
        return tuple(r)


def _solve_standard(ncols, rows, costs):
    """max costs . z subject to rows (coeffs, rhs) as <=, z >= 0.

    Returns (status, x, value, duals, farkas, ray); duals/farkas are over
    the rows, everything exact.
    """
    tab = _Tableau(ncols, rows)
    if tab.n_art:
        phase1 = [0] * tab.art0 + [-1] * tab.n_art
        tab.price_out(phase1)
        status, _ = tab.run(tab.art0)
        if status != "optimal":  # pragma: no cover - box below is bounded
            raise RuntimeError("phase 1 cannot be unbounded")
        if tab.val < 0:
            return "infeasible", None, None, None, tab.slack_duals(), None
        tab.drop_artificials()
    tab.price_out(list(costs))
    status, e = tab.run(tab.n + tab.m)
    if status == "unbounded":
        return "unbounded", tab.solution(), None, None, None, tab.ray(e)
    return "optimal", tab.solution(), tab.val, tab.slack_duals(), None, None


# --- conversion to and from the library core's form ------------------------


def rational_rows(rows):
    """Integer rows (coeffs, rhs, scale) as the rational rows they scale."""
    return [([Fraction(v, m) for v in coeffs], Fraction(rhs, m))
            for coeffs, rhs, m in rows]


def tableau_rows(rows):
    """Rational rows (coeffs, rhs) as the core's integer rows (coeffs, rhs, scale)."""
    out = []
    for coeffs, rhs in rows:
        ints, scale = _int_row([*coeffs, rhs])
        out.append((ints[:-1], ints[-1], scale))
    return out


def _over_den(vec):
    den = lcm(*(Fraction(v).denominator for v in vec))
    return [int(Fraction(v) * den) for v in vec], den


def to_core(out, rows):
    """A reference answer over rows in the core's form."""
    status, x, value, duals, farkas, ray = out

    def on_int_rows(y):
        return None if y is None else _over_den(
            [Fraction(v) / m for v, (_, _, m) in zip(y, rows)])

    return (status, None if x is None else _over_den(x),
            None if value is None else Fraction(value).as_integer_ratio(),
            on_int_rows(duals), on_int_rows(farkas),
            None if ray is None else _over_den(ray))


def from_core(out, rows):
    """A core answer over rows in the reference's form."""
    status, x, value, duals, farkas, ray = out

    def vec(p):
        return None if p is None else tuple(Fraction(v, p[1]) for v in p[0])

    def on_rational_rows(p):
        return None if p is None else tuple(
            Fraction(v * m, p[1]) for v, (_, _, m) in zip(p[0], rows))

    return (status, vec(x), None if value is None else Fraction(*value),
            on_rational_rows(duals), on_rational_rows(farkas), vec(ray))


# --- solve_lp as it was built on this core -----------------------------------


def solve_lp(P, objective, maximize=True):
    """rcx.linprog.solve_lp's answer, unchecked, from this core: the standard
    form is built from each row's rational data h.a / h.rhs, so no row
    scale enters; every coordinate is a Fraction."""
    d = P.dim
    c = [Fraction(v) for v in objective]
    c0 = c if maximize else [-v for v in c]
    rows, prov = [], []
    for i, h in enumerate(P.constraints):
        for s in (1, -1) if h.sense == "=" else ({"<=": 1, ">=": -1}[h.sense],):
            rows.append(([s * v for v in h.a] + [-s * v for v in h.a], s * h.rhs))
            prov.append((i, s))
    status, z, value, y, farkas, ray = _solve_standard(2 * d, rows, c0 + [-v for v in c0])

    def fold(ys, sign=1):
        out = [Fraction(0)] * len(P.constraints)
        for (i, s), yk in zip(prov, ys):
            out[i] += sign * s * yk
        return tuple(out)

    def split(zs):
        return tuple(Fraction(zs[j] - zs[d + j]) for j in range(d))

    if status == "infeasible":
        return LPOutcome(status, farkas=fold(farkas))
    if status == "unbounded":
        return LPOutcome(status, point=split(z), ray=split(ray))
    sign = 1 if maximize else -1
    return LPOutcome(status, value=sign * Fraction(value), point=split(z),
                     dual=fold(y, sign))
