"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every check is exact (Fraction arithmetic end to end).  The lines are
also echoed in the terminal summary (see conftest), so they stay
visible without -s.
"""

import random
import time
from collections import Counter
from itertools import combinations, product

from conftest import criterion_lines

from rcx import (
    Halfspace,
    HPolyhedron,
    LatticeBox,
    PointSet,
    build_arb_hiding,
    build_cube_relaxation,
    build_diff_hiding,
    build_parity_hiding,
    build_perm_hiding,
    build_rado_permutahedron,
    build_subtour_relaxation,
    build_tjoin_hiding,
    build_tsp_hiding,
    conv_membership,
    enumerate_lattice,
    generate,
    irredundant_count,
    jeroslow_index,
    max_hiding_in_box,
    rationalize_halfspace,
    recession_nontrivial,
    solve_lp,
    verify_hiding,
    verify_relaxation,
)


def report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    criterion_lines.append(line)
    print(line)
    assert ok, line


def vdot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_criterion_01_cube_relaxations():
    t0 = time.perf_counter()
    for d in range(1, 7):
        rep = verify_relaxation(build_cube_relaxation(d), generate("cube", d))
        assert rep.status == "verified" and rep.lattice_count == 2**d, (d, rep)
    elapsed = time.perf_counter() - t0
    # every row is load-bearing: dropping any one lets an extra integer
    # point in, and a witness already shows up inside [-8, 8]^d (the body
    # left is unbounded, so verify_relaxation names a recession ray)
    dropped = 0
    for d in range(1, 5):
        P = build_cube_relaxation(d)
        X = generate("cube", d)
        box = LatticeBox((-8,) * d, (8,) * d)
        for i in range(len(P.constraints)):
            Q = P.without_row(i)
            w = next(p for p in enumerate_lattice(Q, box=box) if p not in X.points)
            assert all(-8 <= v <= 8 for v in w) and list(w) not in [list(p) for p in X]
            assert not conv_membership(w, X)[0], (d, i, w)
            assert verify_relaxation(Q, X).status == "failed", (d, i)
            dropped += 1
    ok = elapsed < 10.0
    report(1, ok,
           f"cube d=1..6 verified in {elapsed:.2f}s; all {dropped} dropped-row "
           f"variants caught with a witness in the [-8,8] box")


def test_criterion_02_parity_index():
    t0 = time.perf_counter()
    got = {}
    for d in (2, 3, 4):
        E = generate("even", d)
        k, system = jeroslow_index(E)
        got[d] = k
        inside = set(E.points)
        for z in product((0, 1), repeat=d):
            sat = all(
                (vdot(h.a, z) <= h.rhs if h.sense == "<=" else vdot(h.a, z) >= h.rhs)
                for h in system.halfspaces)
            assert sat == (z in inside), (d, z)
    elapsed = time.perf_counter() - t0
    ok = got == {2: 2, 3: 4, 4: 8} and elapsed < 60.0
    report(2, ok, f"minimum separating systems for even(2,3,4) = "
                  f"{got[2]},{got[3]},{got[4]} in {elapsed:.2f}s")


def test_criterion_03_hiding_certificates():
    t0 = time.perf_counter()
    failures = []
    checked = 0

    def check(name, H, X, bound):
        nonlocal checked
        checked += 1
        cert = verify_hiding(H, X)
        if not (cert.valid and cert.bound == bound):
            failures.append(f"{name} ({cert.failure[0] if cert.failure else cert.bound})")

    check("three points around the 2-simplex",
          PointSet(2, [(1, 1), (-1, 1), (1, -1)]), generate("simplex", 2), 3)
    for N in (1, 2, 3):
        check(f"two-cycles vs directed tours N={N}",
              build_tsp_hiding(N, directed=True),
              generate("atsp", 2 * (N + 1)), 2 ** (N - 1))
    for N in (2, 3):
        check(f"two-cycles vs undirected tours N={N}",
              build_tsp_hiding(N, directed=False),
              generate("stsp", 2 * (N + 1)), 2 ** (N - 1))
    for N in (1, 2):
        check(f"cycle+path vs arborescences N={N}",
              build_arb_hiding(N, directed=True),
              generate("arb", 2 * (N + 1)), 2 ** (N - 1))
        check(f"cycle+path vs spanning trees N={N}",
              build_arb_hiding(N, directed=False),
              generate("spt", 2 * (N + 1)), 2 ** (N - 1))
    for n in (1, 2, 3):
        check(f"duplicated blocks vs distinct-rows n={n}",
              build_diff_hiding(n), generate("diff", 2, n), 2**n)
    for n in (4, 5):
        check(f"adjacent transposition midpoints vs permutations n={n}",
              build_perm_hiding(n), generate("perm", n), n * (n - 1) // 2)
    for n in (2, 3, 4):
        check(f"odd vs even parity n={n}",
              build_parity_hiding(n), generate("even", n), 2 ** (n - 1))
    X = generate("tjoins", 8, (1, 2, 3, 4), max_candidates=2**28)
    H1, H2 = build_tjoin_hiding(8, (1, 2, 3, 4))
    check("wrong-parity joins vs T-joins (part 1)", H1, X, 2)
    check("wrong-parity joins vs T-joins (part 2)", H2, X, 2)
    del X
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    detail = f"{checked} hiding certificates in {elapsed:.1f}s"
    if failures:
        detail += "; failed: " + "; ".join(failures)
    report(3, ok, detail)


def test_criterion_04_exhaustive_box_search():
    s2, w = max_hiding_in_box(generate("simplex", 2), ((-3, -3), (3, 3)))
    assert verify_hiding(w, generate("simplex", 2)).valid
    s3, _ = max_hiding_in_box(generate("simplex", 3), ((-2, -2, -2), (2, 2, 2)))
    ok = s2 == 3 and s3 <= 3
    report(4, ok, f"largest hiding sets: 2-simplex in [-3,3]^2 -> {s2}, "
                  f"3-simplex in [-2,2]^3 -> {s3}")


def test_criterion_05_subtour_lattice_points():
    t0 = time.perf_counter()
    counts = {}
    for n in (4, 5, 6):
        lat = enumerate_lattice(build_subtour_relaxation(n))
        X = generate("stsp", n)
        assert lat.points == X.points, n
        counts[n] = len(lat.points)
    elapsed = time.perf_counter() - t0
    ok = counts == {4: 3, 5: 12, 6: 60} and elapsed < 120.0
    report(5, ok, f"subtour systems carry exactly the tours: "
                  f"{counts[4]}/{counts[5]}/{counts[6]} for n=4/5/6 in {elapsed:.1f}s")


def test_criterion_06_permutahedron():
    details = []
    ok = True
    for n, want_kept in ((3, 6), (4, 14)):
        P = build_rado_permutahedron(n)
        rep = verify_relaxation(P, generate("perm", n))
        kept, _ = irredundant_count(P)
        ok = ok and rep.status == "verified" and kept == want_kept
        details.append(f"n={n} {rep.status}, {kept} surviving rows")
    report(6, ok, "; ".join(details))


def test_criterion_07_pattern_pairing_identity():
    from rcx.hiding import cycle_pair_arcs, flip_pair

    checked = 0
    for N in (1, 2, 3, 4):
        evens = [b for b in product((0, 1), repeat=N) if sum(b) % 2 == 0]
        for b, bp in combinations(evens, 2):
            c, cp, j = flip_pair(b, bp)
            assert sum(c) % 2 == 1 and sum(cp) % 2 == 1, (b, bp)
            assert b[j] != bp[j]
            assert all(b[i] == c[i] and bp[i] == cp[i]
                       for i in range(N) if i != j)
            lhs = Counter(cycle_pair_arcs(N, b)) + Counter(cycle_pair_arcs(N, bp))
            rhs = Counter(cycle_pair_arcs(N, c)) + Counter(cycle_pair_arcs(N, cp))
            assert lhs == rhs, (N, b, bp)
            checked += 1
    report(7, True, f"all {checked} even pattern pairs with N<=4 flip to odd "
                    f"pairs with the same arc multiset")


def test_criterion_08_single_cycle_iff_odd():
    from rcx.hiding import cycle_pair_arcs

    def cycles(N, b):
        arcs = cycle_pair_arcs(N, b)
        succ = dict(arcs)
        assert len(succ) == 2 * (N + 1) == len(arcs)
        nodes = set(succ)
        count = 0
        while nodes:
            count += 1
            start = v = min(nodes)
            while True:
                nodes.remove(v)
                v = succ[v]
                if v == start:
                    break
        return count

    checked = 0
    for N in range(1, 6):
        for b in product((0, 1), repeat=N):
            assert (cycles(N, b) == 1) == (sum(b) % 2 == 1), (N, b)
            checked += 1
    report(8, True, f"all {checked} patterns with N<=5: one cycle exactly "
                    f"when the crossing count is odd")


def test_criterion_09_single_row_recovery():
    t0 = time.perf_counter()
    rng = random.Random(20240814)
    cube4 = [tuple(p) for p in product((0, 1), repeat=4)]
    done = 0
    while done < 200:
        a = tuple(rng.randint(-4, 4) for _ in range(4))
        g = rng.randint(-6, 6)
        inside = {z for z in cube4 if vdot(a, z) <= g}
        if not inside:
            continue
        h = rationalize_halfspace(PointSet(4, sorted(inside)))
        assert h is not None, (a, g)
        for z in cube4:
            assert (vdot(h.a, z) <= h.rhs) == (z in inside), (a, g, z)
        done += 1
    assert rationalize_halfspace(generate("even", 2)) is None
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(9, ok, f"200 random halfspace classifications recovered exactly "
                  f"in {elapsed:.1f}s; parity correctly refused")


def test_criterion_10_unboundedness_guard():
    quadrant = HPolyhedron(2, [Halfspace((1, 0), ">=", 0),
                               Halfspace((0, 1), ">=", 0)])
    rep = verify_relaxation(quadrant, generate("simplex", 2))
    kind, ray = rep.reason if rep.reason else (None, None)
    ray_ok = (rep.status == "failed" and kind == "unbounded_with_finite_X"
              and ray is not None and any(ray)
              and all(vdot(h.a, ray) >= 0 for h in quadrant.constraints))
    trivial = all(not recession_nontrivial(build_cube_relaxation(d))[0]
                  for d in range(1, 7))
    ray_txt = "(" + ", ".join(str(v) for v in ray) + ")"
    report(10, ray_ok and trivial,
           f"quadrant rejected with recession ray {ray_txt}; "
           f"cube relaxations d=1..6 all bounded")


def test_criterion_11_certified_lp_solver():
    rng = random.Random(20240814)

    def rand_row(d):
        while True:
            a = tuple(rng.randint(-3, 3) for _ in range(d))
            if any(a):
                return Halfspace(a, rng.choice(("<=", ">=", "=")),
                                 rng.randint(-4, 4))

    counts = Counter()
    for _ in range(1000):
        d = rng.randint(1, 3)
        rows = [rand_row(d) for _ in range(rng.randint(1, 5))]
        P = HPolyhedron(d, rows)
        c = [rng.randint(-3, 3) for _ in range(d)]
        maximize = rng.random() < 0.5
        out = solve_lp(P, c, maximize=maximize)
        counts[out.status] += 1
        if out.status == "optimal":
            for h in rows:
                v = vdot(h.a, out.point)
                assert (v <= h.rhs if h.sense == "<=" else
                        v >= h.rhs if h.sense == ">=" else v == h.rhs)
            assert vdot(c, out.point) == out.value
            for h, y in zip(rows, out.dual):
                if h.sense == "<=":
                    assert (y >= 0) if maximize else (y <= 0)
                elif h.sense == ">=":
                    assert (y <= 0) if maximize else (y >= 0)
            for j in range(d):
                assert sum(y * h.a[j] for h, y in zip(rows, out.dual)) == c[j]
            assert sum(y * h.rhs for h, y in zip(rows, out.dual)) == out.value
        elif out.status == "infeasible":
            y = out.farkas
            for h, yk in zip(rows, y):
                if h.sense == "<=":
                    assert yk >= 0
                elif h.sense == ">=":
                    assert yk <= 0
            for j in range(d):
                assert sum(yk * h.a[j] for h, yk in zip(rows, y)) == 0
            assert sum(yk * h.rhs for h, yk in zip(rows, y)) < 0
        else:
            assert out.status == "unbounded"
            assert P.contains(out.point) and any(out.ray)
    ok = counts["optimal"] > 0 and counts["infeasible"] > 0
    report(11, ok,
           f"1000 random LPs replayed: {counts['optimal']} optimal duals, "
           f"{counts['infeasible']} Farkas certificates, "
           f"{counts['unbounded']} rays, every identity exact")
