"""Differential tests: the integer simplex against the Fraction reference.

`rcx.linprog` pivots a fraction-free integer tableau; `fraction_simplex`
is the Fraction tableau it replaced, kept verbatim. Both follow Bland's
rule, and rescaling rows and columns by positive factors changes no sign
or ratio that the rule compares, so both must take the same pivots and
return identical points, values, duals, Farkas rows and rays, and every
caller must give identical answers.
"""

import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

import fraction_simplex
from rcx import (
    Halfspace,
    HPolyhedron,
    bounding_box,
    build_cube_relaxation,
    build_rado_permutahedron,
    build_subtour_relaxation,
    generate,
    irredundant_count,
    recession_nontrivial,
)
from rcx import linprog
from rcx.linprog import (
    conv_membership,
    segment_hits_hull,
    solve_lp,
    strict_separation,
)


def assert_same(want, got):
    """Reference output (tuples) equals the integer core's output (lists)."""
    assert len(want) == len(got) == 6
    names = ("status", "x", "value", "duals", "farkas", "ray")
    for name, u, v in zip(names, want, got):
        if isinstance(u, tuple):
            u = list(u)
        assert u == v, name


def run_both(monkeypatch, fn):
    """fn() under the reference core, then under the integer core.

    Every standard-form LP of the reference run is replayed on the
    integer core and must give the identical output; then the two runs'
    answers must be equal. Returns the number of standard-form LPs and
    the answers.
    """
    calls = []

    def reference(ncols, rows, costs):
        out = fraction_simplex._solve_standard(ncols, rows, costs)
        calls.append(((ncols, rows, costs), out))
        return out

    with monkeypatch.context() as m:
        m.setattr(linprog, "_solve_standard", reference)
        want = fn()
    for args, out in calls:
        assert_same(out, linprog._solve_standard(*args))
    got = fn()
    assert got == want
    return len(calls), got


class _DropRecorder(fraction_simplex._Tableau):
    """Reference tableau that notes the sign of each drop_artificials pivot."""

    signs = []

    def drop_artificials(self):
        for r in range(len(self.T)):
            if self.basis[r] >= self.art0:
                e = next((j for j in range(self.art0) if self.T[r][j] != 0), None)
                if e is not None:
                    _DropRecorder.signs.append(self.T[r][e] > 0)
        super().drop_artificials()


# Each case names the scale factor a core must undo or apply; a core that
# skips it returns a different certificate on that case.
NAMED = {
    # rows scaled by 2 and 1; the Farkas row must be multiplied back by
    # the row scales, and the artificials cost -1/2 and -1 in phase 1
    "farkas_fractional_negative_rhs": (
        1, [([4], F(-3, 2)), ([0], -3)], [-1], "infeasible"),
    "farkas_two_scaled_rows": (
        2, [([0, F(1, 2)], -3), ([0, F(-1, 4)], F(-3))], [0, 0], "infeasible"),
    # phase 2 enters the slack of the row scaled by 3: the ray's basic
    # entries are multiplied back by 3
    "ray_entering_slack": (
        1, [([-1], -1), ([-1], F(-5, 3)), ([-2], -1)], [2], "unbounded"),
    "ray_entering_slack_2d": (
        2, [([F(1, 3), -3], F(-5, 3)), ([1, -2], F(-1, 3))], [0, 3], "unbounded"),
    # the equality 3x/2 = 2/3 as a pair: the artificial stays basic at 0
    # and is pivoted out on a -1 entry (its slack column)
    "drop_artificial_negative_entry": (
        1, [([F(-3, 2)], F(-2, 3)), ([F(3, 2)], F(2, 3)), ([0], 0)], [1], "optimal"),
    # costs over a common denominator of 15: value and duals divide by it
    "fractional_objective": (
        2, [([1, 1], 1), ([F(1, 2), -1], F(1, 3))], [F(2, 3), F(-1, 5)], "optimal"),
    # the row scaled by 2 carries the dual: it is multiplied back by 2
    "dual_of_scaled_row": (
        1, [([-3], F(-5, 2)), ([0], 0), ([0], 0)], [F(-3)], "optimal"),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_cases(name):
    ncols, rows, costs, status = NAMED[name]
    want = fraction_simplex._solve_standard(ncols, rows, costs)
    got = linprog._solve_standard(ncols, rows, costs)
    assert want[0] == status
    assert_same(want, got)


def test_named_case_pivots_an_artificial_out_on_a_negative_entry(monkeypatch):
    ncols, rows, costs, _ = NAMED["drop_artificial_negative_entry"]
    _DropRecorder.signs = []
    monkeypatch.setattr(fraction_simplex, "_Tableau", _DropRecorder)
    fraction_simplex._solve_standard(ncols, rows, costs)
    assert _DropRecorder.signs == [False]


class _RayRecorder(linprog._Tableau):
    """Integer tableau that notes (entering column, its row scale) of a ray."""

    entering = []

    def ray(self, e):
        _RayRecorder.entering.append((e - self.n, self.mult[e - self.n]))
        return super().ray(e)


@pytest.mark.parametrize("name,row,scale", [("ray_entering_slack", 1, 3),
                                            ("ray_entering_slack_2d", 0, 3)])
def test_named_rays_enter_a_scaled_slack(monkeypatch, name, row, scale):
    ncols, rows, costs, _ = NAMED[name]
    _RayRecorder.entering = []
    monkeypatch.setattr(linprog, "_Tableau", _RayRecorder)
    linprog._solve_standard(ncols, rows, costs)
    assert _RayRecorder.entering == [(row, scale)]


def _rand_value(rng):
    r = rng.random()
    if r < 0.35:
        return 0
    if r < 0.7:
        return rng.randint(-4, 4)
    return F(rng.randint(-6, 6), rng.randint(1, 5))


def test_seeded_standard_form_corpus():
    """Fractional data, negative right-hand sides and zero rows."""
    rng = random.Random(20261018)
    seen = set()
    zero_rows = 0
    for _ in range(2000):
        n = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.1:
                coeffs = [0] * n
                zero_rows += 1
            else:
                coeffs = [_rand_value(rng) for _ in range(n)]
            rows.append((coeffs, _rand_value(rng)))
        costs = [_rand_value(rng) for _ in range(n)]
        want = fraction_simplex._solve_standard(n, rows, costs)
        assert_same(want, linprog._solve_standard(n, rows, costs))
        seen.add(want[0])
    assert seen == {"optimal", "infeasible", "unbounded"}
    assert zero_rows > 0


def test_no_rows():
    # the reference core cannot price out an empty tableau
    assert linprog._solve_standard(2, [], [1, 0]) == (
        "unbounded", [0, 0], None, None, None, [1, 0])
    assert linprog._solve_standard(2, [], [0, 0]) == (
        "optimal", [0, 0], 0, [], None, None)


def test_criterion_11_generator(monkeypatch):
    rng = random.Random(20240814)

    def rand_row(d):
        while True:
            a = tuple(rng.randint(-3, 3) for _ in range(d))
            if any(a):
                return Halfspace(a, rng.choice(("<=", ">=", "=")),
                                 rng.randint(-4, 4))

    cases = []
    for _ in range(1000):
        d = rng.randint(1, 3)
        rows = [rand_row(d) for _ in range(rng.randint(1, 5))]
        c = [rng.randint(-3, 3) for _ in range(d)]
        cases.append((HPolyhedron(d, rows), c, rng.random() < 0.5))
    n, _ = run_both(monkeypatch, lambda: [solve_lp(P, c, maximize=m)
                                          for P, c, m in cases])
    assert n == 1000


def test_fractional_solve_lp_corpus(monkeypatch):
    rng = random.Random(4)
    cases = []
    for _ in range(500):
        d = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 6)):
            a = [_rand_value(rng) for _ in range(d)]
            if not any(a):
                a[0] = F(1, 2)
            rows.append(Halfspace(a, rng.choice(("<=", ">=", "=")),
                                  _rand_value(rng)))
        c = [_rand_value(rng) for _ in range(d)]
        cases.append((HPolyhedron(d, rows), c, rng.random() < 0.5))
    _, outs = run_both(monkeypatch, lambda: [solve_lp(P, c, maximize=m)
                                             for P, c, m in cases])
    assert {o.status for o in outs} == {"optimal", "infeasible", "unbounded"}


SYSTEMS = [("subtour", n) for n in (4, 5)] + [("perm", n) for n in (4, 5)] \
    + [("cube", d) for d in range(1, 7)]


def _system(kind, n):
    if kind == "subtour":
        return build_subtour_relaxation(n)
    if kind == "perm":
        return build_rado_permutahedron(n)
    return build_cube_relaxation(n)


@pytest.mark.parametrize("kind,n", SYSTEMS, ids=[f"{k}{n}" for k, n in SYSTEMS])
def test_explicit_systems(monkeypatch, kind, n):
    P = _system(kind, n)
    rng = random.Random(n)
    objectives = [[rng.randint(-9, 9) for _ in range(P.dim)] for _ in range(2)]

    def answers():
        out = [bounding_box(P)]
        out += [solve_lp(P, c, maximize=m) for c in objectives for m in (True, False)]
        if kind == "cube":
            out.append(recession_nontrivial(P))
        if (kind, n) == ("perm", 4):
            out.append(irredundant_count(P))
        return out

    n, _ = run_both(monkeypatch, answers)
    assert n > 0


def test_hull_oracles_even4(monkeypatch):
    X = generate("even", 4)
    odd = list(generate("odd", 4))
    grid = list(product((0, F(1, 2), 1), repeat=4))
    probes = grid + [(F(1, 3), F(2, 3), 0, 1), (F(1, 4),) * 4]

    def answers():
        out = [conv_membership(p, X) for p in probes]
        out += [segment_hits_hull(a, b, X) for a, b in combinations(odd, 2)]
        out += [segment_hits_hull(a, (2, 2, 2, 2), X) for a in odd]
        out += [strict_separation(X, [y]) for y in odd]
        out += [strict_separation(X, list(pair)) for pair in combinations(odd, 2)]
        return out

    n, _ = run_both(monkeypatch, answers)
    assert n > 100


def test_hull_oracles_simplex2(monkeypatch):
    X = generate("simplex", 2)
    box = list(product(range(-1, 3), repeat=2))
    outside = [p for p in box if p not in set(X)]

    def answers():
        out = [conv_membership(p, X) for p in product((F(-1, 2), 0, F(1, 3), F(1, 2), 1),
                                                      repeat=2)]
        out += [segment_hits_hull(a, b, X) for a, b in combinations(box, 2)]
        out += [strict_separation(X, [a, b]) for a, b in combinations(outside, 2)]
        return out

    n, _ = run_both(monkeypatch, answers)
    assert n > 100
