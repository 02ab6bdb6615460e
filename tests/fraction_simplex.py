"""The rational simplex that rcx.linprog's integer tableau replaced.

Kept verbatim as a test-only reference: every tableau entry is a
Fraction, the pivots follow Bland's rule, and `_solve_standard` returns
the same tuple shape as the library's. The differential tests require
both cores to give identical answers.
"""

from fractions import Fraction


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
