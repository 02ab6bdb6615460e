"""The three workloads: their seeded inputs, operations and checks.

A workload is built once per process (its set-up) and yields a fixed
list of operations. Each operation is (name, call, check): `call` runs
rcx and is the only timed part; `check` hands the answer to an
independent computation in `checks`, which raises CheckError when they
disagree. Operations build their rcx objects from plain data inside
`call`, so no cached digest or bound carries over from one round to the
next. Calls go through module attributes at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from itertools import product

import rcx
import rcx.cli
import rcx.separation

import checks


def _rows(P):
    """An rcx polyhedron as plain (a, sense, rhs) rows."""
    return [(h.a, h.sense, h.rhs) for h in P.constraints]


def _replay(rows, c, maximize, out):
    checks.replay_lp(rows, c, maximize, out.status, value=out.value,
                     point=out.point, dual=out.dual, farkas=out.farkas,
                     ray=out.ray)


def _optimal(rows, c, maximize, out):
    checks.require(out.status == "optimal", f"bounded LP answered {out.status}")
    _replay(rows, c, maximize, out)


# --- lp-bounds --------------------------------------------------------------


def lp_bounds(seed, workdir):
    """The exact simplex under many objectives over explicit relaxations."""
    rng = random.Random(seed)
    perm5 = rcx.build_rado_permutahedron(5)
    sub4 = rcx.build_subtour_relaxation(4)
    perm5_rows, sub4_rows = _rows(perm5), _rows(sub4)
    ops = []
    for n in (4, 5):
        ops.append((f"subtour{n}.lattice",
                    lambda n=n: rcx.enumerate_lattice(rcx.build_subtour_relaxation(n)),
                    lambda L, n=n: checks.check_tour_lattice(L.points, n)))
    ops.append(("permutahedron5.box",
                lambda: rcx.bounding_box(rcx.build_rado_permutahedron(5)),
                lambda B: checks.check_permutahedron_box(B.lower, B.upper, 5)))
    ops.append(("permutahedron4.irredundant",
                lambda: rcx.irredundant_count(rcx.build_rado_permutahedron(4)),
                lambda out: checks.check_permutahedron_irredundant(*out, 4)))
    for d in range(1, 7):
        ops.append((f"cube{d}.verify",
                    lambda d=d: rcx.verify_relaxation(rcx.build_cube_relaxation(d),
                                                      rcx.generate("cube", d)),
                    lambda rep, d=d: checks.check_cube_relaxation(
                        rep.status, rep.lattice_count, d)))

    # seeded objectives over fixed polytopes
    for k in range(4):
        c = [rng.randint(-9, 9) for _ in range(5)]

        def check(out, c=c):
            _optimal(perm5_rows, c, True, out)
            checks.check_permutahedron_optimum(out.value, out.point, c)

        ops.append((f"permutahedron5.objective{k}",
                    lambda c=c: rcx.solve_lp(perm5, c, maximize=True), check))
    for k in range(4):
        c = [rng.randint(-9, 9) for _ in range(6)]
        maximize = rng.random() < 0.5

        def check(out, c=c, maximize=maximize):
            _optimal(sub4_rows, c, maximize, out)
            checks.check_tour_optimum(out.value, c, 4, maximize)

        ops.append((f"subtour4.objective{k}",
                    lambda c=c, m=maximize: rcx.solve_lp(sub4, c, maximize=m),
                    check))
    return ops


# --- family-certify ---------------------------------------------------------


CHAINS = [("atsp", 8), ("stsp", 8), ("conn", 6), ("arb", 6), ("spt", 6)]
REPORTS = [("perm", (4,)), ("diff", (2, 3)), ("even", (5,)), ("stsp", (6,)),
           ("tjoins", (6, (1, 2, 3, 4)))]


class _FileChecks:
    """Runs each kind of check on a file's bytes once; identical bytes pass again."""

    def __init__(self):
        self.passed = {}

    def __call__(self, path, kind, check):
        with open(path, "rb") as fh:
            raw = fh.read()
        key = (path, kind, hashlib.sha256(raw).hexdigest())
        if key not in self.passed:
            self.passed[key] = check(json.loads(raw))
        return self.passed[key]


def family_certify(seed, workdir):
    """rcx gen / hiding build / hiding verify / report through the CLI.

    The inputs are fixed; the seed orders the five generate-build-verify
    chains and the five reports.
    """
    rng = random.Random(seed)
    chains = list(CHAINS)
    reports = list(REPORTS)
    rng.shuffle(chains)
    rng.shuffle(reports)
    files = _FileChecks()
    ops = []

    def cli(name, argv, check_files):
        def check(res):
            checks.require(res.exit_code == 0,
                           f"rcx {name}: exit {res.exit_code} ({res.summary})")
            check_files()
        return name, lambda: rcx.cli.run(argv), check

    for fam, n in chains:
        X, H, C = (os.path.join(workdir, f"{fam}{n}.{part}.json")
                   for part in ("points", "hiding", "cert"))
        floor = checks.expected_floor(fam, (n,))
        kind = "tsp" if fam in ("atsp", "stsp", "conn") else "arb"
        undirected = [] if fam in ("atsp", "arb") else ["--undirected"]

        def family(X=X, fam=fam, n=n):
            return files(X, "family", lambda doc: checks.check_family_file(doc, fam, n))

        def hiding(X=X, H=H, floor=floor):
            def check(doc):
                pts = [tuple(p) for p in doc["points"]]
                checks.require(len(pts) == floor,
                               f"{len(pts)} hiding points, want {floor}")
                checks.check_01_hiding(pts, family(X))
                return pts
            return files(H, "hiding", check)

        def cert(C=C, X=X, H=H, floor=floor):
            files(C, "cert", lambda doc: checks.check_hiding_certificate(
                doc, floor, family(X), hiding(X, H)))

        ops.append(cli(f"gen {fam} {n}", ["gen", fam, str(n), "-o", X], family))
        ops.append(cli(f"hiding build {fam} {n}",
                       ["hiding", "build", kind, str(n // 2 - 1), "-o", H] + undirected,
                       hiding))
        ops.append(cli(f"hiding verify {fam} {n}",
                       ["hiding", "verify", H, X, "--report", C], cert))

    for fam, params in reports:
        args = [",".join(map(str, p)) if isinstance(p, tuple) else str(p)
                for p in params]
        R = os.path.join(workdir, f"report.{fam}.{'.'.join(args)}.json")

        def report(R=R, fam=fam, params=params):
            files(R, "report", lambda doc: checks.check_report(
                doc, fam, params, rcx.separation._LOWER_CERT_MAX[fam],
                rcx.separation._UPPER_CERT_MAX[fam]))

        ops.append(cli(f"report {fam} {' '.join(args)}",
                       ["report", fam, *args, "-o", R], report))
    return ops


# --- small-oracles ----------------------------------------------------------


def _random_row(rng, d):
    while True:
        a = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(a):
            return a, rng.choice(("<=", ">=", "=")), rng.randint(-4, 4)


# known hiding sets, each checked against the facets at set-up
BOX_SEARCHES = [
    ("simplex2", ("simplex", 2), ((-3, -3), (3, 3)), checks.simplex_facets(2),
     [(1, 1), (-1, 1), (1, -1)]),
    ("simplex3", ("simplex", 3), ((-1,) * 3, (1,) * 3), checks.simplex_facets(3),
     [(1, 1, -1), (1, -1, 1), (-1, 1, 1)]),
    ("even3", ("even", 3), ((-1,) * 3, (1,) * 3), checks.EVEN3_FACETS,
     [z for z in product((0, 1), repeat=3) if sum(z) % 2]),
]


def small_oracles(seed, workdir):
    """Thousands of tiny oracle and simplex calls, many answering "no"."""
    rng = random.Random(seed)
    ops = []
    for name, family, box, facets, known in BOX_SEARCHES:
        checks.check_facet_hiding(known, facets, box)
        ops.append((f"{name}.box_search",
                    lambda f=family, b=box: rcx.max_hiding_in_box(rcx.generate(*f), b),
                    lambda out, b=box, f=facets, k=known: checks.check_box_search(
                        out[0], [tuple(p) for p in out[1].points], f, b, k)))
    for d in (2, 3, 4):
        ops.append((f"even{d}.index",
                    lambda d=d: rcx.jeroslow_index(rcx.generate("even", d)),
                    lambda out, d=d: checks.check_parity_index(
                        out[0], [(h.a, h.sense, h.rhs) for h in out[1].halfspaces], d)))
    clique = checks.parity_conflict_pairs(5)
    ops.append(("even5.conflict_clique",
                lambda: rcx.conflict_clique_bound(rcx.generate("even", 5)),
                lambda out: checks.require(
                    out == clique, f"even 5: clique bound {out}, want {clique}")))
    # the two odd points of {0,1}^2 conflict, so no single row separates even(2)
    checks.require(checks.parity_conflict_pairs(2) == 2, "odd(2) is a conflict pair")
    ops.append(("even2.rationalize",
                lambda: rcx.rationalize_halfspace(rcx.generate("even", 2)),
                lambda out: checks.require(out is None, f"even 2 separated by {out}")))

    fixed = len(ops)
    cube4 = list(product((0, 1), repeat=4))
    while len(ops) < fixed + 200:
        a = tuple(rng.randint(-4, 4) for _ in range(4))
        g = rng.randint(-6, 6)
        inside = sorted(z for z in cube4 if checks.dot(a, z) <= g)
        if not inside:
            continue

        def check(h, inside=inside):
            checks.require(h is not None, f"halfspace set {inside} refused")
            checks.replay_rows_over_cube([(h.a, h.sense, h.rhs)], set(inside), 4)

        ops.append((f"rationalize{len(ops) - fixed}",
                    lambda pts=inside: rcx.rationalize_halfspace(rcx.PointSet(4, pts)),
                    check))

    for k in range(1000):
        d = rng.randint(1, 3)
        rows = [_random_row(rng, d) for _ in range(rng.randint(1, 5))]
        P = rcx.HPolyhedron(d, [rcx.Halfspace(*r) for r in rows])
        c = [rng.randint(-3, 3) for _ in range(d)]
        maximize = rng.random() < 0.5
        ops.append((f"lp{k}",
                    lambda P=P, c=c, m=maximize: rcx.solve_lp(P, c, maximize=m),
                    lambda out, rows=rows, c=c, m=maximize: _replay(rows, c, m, out)))
    return ops


WORKLOADS = {
    "lp-bounds": lp_bounds,
    "family-certify": family_certify,
    "small-oracles": small_oracles,
}
