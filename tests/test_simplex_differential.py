"""Differential tests: the integer simplex against the Fraction reference.

`rcx.linprog` pivots a fraction-free integer tableau; `fraction_simplex`
is the Fraction tableau it replaced, kept verbatim. Both follow Bland's
rule, and rescaling rows and columns by positive factors changes no sign
or ratio that the rule compares, so both must take the same pivots and
return identical points, values, duals, Farkas rows and rays, and every
caller must give identical answers. The integer core keeps the phase 1
of the last polyhedron it solved an LP over for the next LP over the
same object; the reference solves each LP from scratch, so each shared
LP is replayed too. The
core stores no x- and no artificial columns, so the reference writes
them out; an LP that leaves rows out (irredundant_count's) is solved
by the reference on the rows it keeps, and only its answer, not its
pivots, must match.
"""

import random
import sys
from collections import Counter
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
from rcx import linprog, relaxations
from rcx.errors import Infeasible, UnboundedCoordinate
from rcx.linprog import (
    conv_membership,
    segment_hits_hull,
    solve_lp,
    strict_separation,
)


def assert_same(want, got, rows):
    """Reference output equals the integer core's output over rows."""
    assert len(want) == len(got) == 6
    names = ("status", "x", "value", "duals", "farkas", "ray")
    for name, u, v in zip(names, want, fraction_simplex.from_core(got, rows)):
        assert u == v, name


def solve_one(ncols, rows, costs):
    """The integer core on rational rows (coeffs, rhs) and one objective,
    with the rows it was given."""
    rows = fraction_simplex.tableau_rows(rows)
    return linprog._solve_standard(ncols, rows, costs), rows


def run_both(monkeypatch, fn):
    """fn() under the reference core, then under the integer core.

    Every standard-form LP of the reference run is replayed on the
    integer core alone and must give the identical output; then the two
    runs' answers must be equal. The reference ignores `start`, the
    integer core's phase 1 that _solve keeps for its last polyhedron,
    and solves every LP from scratch; it must have answered as many LPs
    as _solve returned, so an LP that skips the seam fails here. The
    reference writes each mirror column out as minus its column, and
    solves an LP that drops rows from scratch on the rows it keeps (that
    LP is the one replayed), its multipliers 0 on the dropped rows. The
    second run starts from the phase 1 the first one left. Returns the
    number of standard-form LPs and the answers.
    """
    calls = []
    asked = []

    def reference(ncols, rows, costs, free=0, start=None, dropped=()):
        caller = sys._getframe(1).f_code.co_name  # the frame that asks
        kept = [row for k, row in enumerate(rows) if k not in dropped]
        full = [(a + [-v for v in a[:free]], b, m) for a, b, m in kept]
        out = fraction_simplex._solve_standard(
            ncols + free, fraction_simplex.rational_rows(full),
            costs + [-v for v in costs[:free]])
        calls.append((caller, (ncols, kept, costs, free), out))
        return _on_all_rows(fraction_simplex.to_core(out, full), dropped, len(rows))

    def counted(*args, _solve=linprog._solve, **kwargs):
        out = _solve(*args, **kwargs)
        asked.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(linprog, "_solve_standard", reference)
        for module in (linprog, relaxations):
            m.setattr(module, "_solve", counted)
        want = fn()
    callers = Counter(caller for caller, *_ in calls)
    assert set(callers) <= {"_solve", "_hull_point"}, callers
    assert callers["_solve"] == len(asked), "an LP bypassed the reference"
    for _, (ncols, rows, costs, free), out in calls:
        assert_same(out, linprog._solve_standard(ncols, rows, costs, free=free), rows)
    got = fn()
    assert got == want
    return len(calls), got


def _on_all_rows(out, dropped, m):
    """A core answer over the kept rows, its multipliers put back on all m
    rows with 0 on the dropped ones."""
    if not dropped:
        return out

    def spread(y):
        if y is None:
            return None
        values = iter(y[0])
        return [0 if k in dropped else next(values) for k in range(m)], y[1]

    status, x, value, duals, farkas, ray = out
    return status, x, value, spread(duals), spread(farkas), ray


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
    got, int_rows = solve_one(ncols, rows, costs)
    assert want[0] == status
    assert_same(want, got, int_rows)


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
    solve_one(ncols, rows, costs)
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
        assert_same(want, *solve_one(n, rows, costs))
        seen.add(want[0])
    assert seen == {"optimal", "infeasible", "unbounded"}
    assert zero_rows > 0


def test_no_rows():
    # the reference core cannot price out an empty tableau
    assert [linprog._solve_standard(2, [], costs) for costs in ([1, 0], [0, 0])] == [
        ("unbounded", ([0, 0], 1), None, None, None, ([1, 0], 1)),
        ("optimal", ([0, 0], 1), (0, 1), ([], 1), None, None)]


def _criterion_11_cases():
    """The LPs of acceptance criterion 11: (P, c, maximize), 1,000 of them."""
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
    return cases


def test_criterion_11_generator(monkeypatch):
    cases = _criterion_11_cases()
    n, _ = run_both(monkeypatch, lambda: [solve_lp(P, c, maximize=m)
                                          for P, c, m in cases])
    assert n == 1000


def test_criterion_11_pivots(monkeypatch):
    # the count of the tableau that stored its x- and artificial columns:
    # storing fewer columns changes no pivot
    pivots = []

    class Counting(linprog._Tableau):
        def pivot(self, r, e):
            pivots.append(e)
            super().pivot(r, e)

    cases = _criterion_11_cases()
    monkeypatch.setattr(linprog, "_Tableau", Counting)
    for P, c, m in cases:
        solve_lp(P, c, maximize=m)
    assert len(pivots) == 2545


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
    # the same answers from the rows' rational data, with no row scale
    for (P, c, m), out in zip(cases, outs):
        assert_fields(out, fraction_simplex.solve_lp(P, c, m))


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


# --- one phase 1 shared by many objectives -----------------------------------

FIELDS = ("status", "value", "point", "dual", "farkas", "ray")


def shared_against_one_shot(monkeypatch, fn, rational=False):
    """fn(), recording every answer bounding_box and recession_nontrivial
    take from _solve; each must equal, field by field and with every
    coordinate a Fraction, solve_lp's own answer for its objective over
    an equal polyhedron no LP has seen (its own phase 1), and with
    `rational` also the answer of the Fraction core on the rows'
    rational data. Returns the statuses seen."""
    seen = []
    solve = linprog._solve

    def recording(P, c, maximize=True):
        out = solve(P, c, maximize)
        seen.append((P, c, maximize, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(linprog, "_solve", recording)
        m.setattr(relaxations, "_solve", recording)
        try:
            fn()
        except (Infeasible, UnboundedCoordinate):
            pass  # no points, or an open side
    for P, c, maximize, out in seen:
        assert_fields(out, solve_lp(fresh(P), c, maximize=maximize))
        if rational:
            assert_fields(out, fraction_simplex.solve_lp(P, c, maximize))
    return [out.status for *_, out in seen]


def fresh(P):
    """A polyhedron equal to P that no LP has seen, so its first LP runs
    phase 1 (_solve keeps the phase 1 of the last object it saw)."""
    return HPolyhedron(P.dim, P.constraints)


def assert_fields(got, want):
    """Equal LPOutcomes, field by field, with every coordinate a Fraction."""
    for name in FIELDS:
        u, v = getattr(got, name), getattr(want, name)
        assert u == v, name
        if isinstance(u, tuple):
            assert all(type(x) is F for x in u + v), name


@pytest.mark.parametrize("kind,n", [("perm", 4), ("perm", 5), ("subtour", 4),
                                    ("subtour", 5)] + [("cube", d) for d in range(1, 7)],
                         ids=lambda v: str(v))
def test_shared_phase1_explicit_systems(monkeypatch, kind, n):
    P = _system(kind, n)
    statuses = shared_against_one_shot(
        monkeypatch, lambda: (bounding_box(P), recession_nontrivial(P)))
    assert statuses == ["optimal"] * 4 * P.dim


def test_shared_phase1_seeded_corpus(monkeypatch):
    """3,000 polyhedra in 1-4 dimensions with rows over denominators 1-4.

    The bounding LPs of every third polyhedron are also solved on the
    rows' rational data: a row scale that fails to reach the tableau
    prices phase 1 differently and changes Farkas rows, rays and optima.
    The recession rows have right-hand side 0, so their probes need no
    phase 1.
    """
    rng = random.Random(14)
    polyhedra = []
    for _ in range(3000):
        d = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 6)):
            a = [F(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.7 else 0
                 for _ in range(d)]
            if not any(a):
                a[rng.randrange(d)] = F(1, rng.randint(1, 4))
            rows.append(Halfspace(a, rng.choice(("<=", ">=", "=")),
                                  F(rng.randint(-6, 6), rng.randint(1, 4))))
        polyhedra.append(HPolyhedron(d, rows))
    statuses = Counter()
    for k, P in enumerate(polyhedra):
        statuses.update(shared_against_one_shot(monkeypatch, lambda: bounding_box(P),
                                                rational=k % 3 == 0))
        statuses.update(shared_against_one_shot(monkeypatch,
                                                lambda: recession_nontrivial(P)))
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) > 500


# --- one phase 1 across calls over one polyhedron ----------------------------


def _built(monkeypatch):
    """A list that gains one entry per integer tableau built (copies are not)."""
    built = []

    class Counting(linprog._Tableau):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(linprog, "_Tableau", Counting)
    return built


def test_criterion_11_warm_equals_cold(monkeypatch):
    # each LP twice on one object: the second starts from the first's phase 1
    built = _built(monkeypatch)
    for P, c, m in _criterion_11_cases():
        cold = solve_lp(P, c, maximize=m)
        assert_fields(solve_lp(P, c, maximize=m), cold)
    assert len(built) == 1000


def _lp_bounds_objectives(seed):
    """perfbench lp-bounds' seeded objectives: four maximized over Rado 5,
    then four over subtour 4, each with its sense."""
    rng = random.Random(seed)
    perm5 = [([rng.randint(-9, 9) for _ in range(5)], True) for _ in range(4)]
    sub4 = []
    for _ in range(4):
        c = [rng.randint(-9, 9) for _ in range(6)]
        sub4.append((c, rng.random() < 0.5))
    return perm5, sub4


@pytest.mark.parametrize("seed", [1, 21, 22, 23])
def test_lp_bounds_objectives_warm_equal_cold(monkeypatch, seed):
    built = _built(monkeypatch)
    perm5, sub4 = _lp_bounds_objectives(seed)
    for build, objectives in ((lambda: build_rado_permutahedron(5), perm5),
                              (lambda: build_subtour_relaxation(4), sub4)):
        P = build()
        warm = [solve_lp(P, c, maximize=m) for c, m in objectives]
        cold = [solve_lp(build(), c, maximize=m) for c, m in objectives]
        assert [out.status for out in warm] == ["optimal"] * 4
        for got, want in zip(warm, cold):
            assert_fields(got, want)
    assert len(built) == 2 * (1 + 4)  # one per object


def test_interleaved_polyhedra_keep_their_cold_answers(monkeypatch):
    # a solve_lp(B) after each of bounding_box(A)'s LPs replaces the slot,
    # so every LP over A and over B runs its own phase 1, and neither
    # sees the other's
    A, B = build_rado_permutahedron(4), build_subtour_relaxation(4)
    c = [3, -1, 4, -1, 5, -9]
    want_box = bounding_box(fresh(A))
    want_A = [solve_lp(fresh(A), [int(j == k) for j in range(A.dim)], maximize=m)
              for k in range(A.dim) for m in (True, False)]
    want_B = solve_lp(fresh(B), c)
    got_A, got_B = [], []
    solve = relaxations._solve

    def interleaved(*args, **kwargs):
        out = solve(*args, **kwargs)
        got_B.append(solve_lp(B, c))
        got_A.append(out)
        return out

    built = _built(monkeypatch)
    monkeypatch.setattr(relaxations, "_solve", interleaved)
    assert bounding_box(A) == want_box
    assert got_A == want_A and len(got_A) == 2 * A.dim
    assert got_B == [want_B] * len(got_A)
    assert len(built) == 2 * 2 * A.dim  # one phase 1 per LP over A and over B
    # A after B starts cold again, and answers as a fresh object does
    d = [1, 2, 3, 4]
    assert solve_lp(A, d) == solve_lp(fresh(A), d)
    assert len(built) == 2 * 2 * A.dim + 2
