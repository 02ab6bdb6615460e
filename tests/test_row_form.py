"""The lattice layer's shared decisions, each written once.

`_le_rows` is the one place a row is written as `A . x <= B`; the
propagated box, the lattice scan, the LP front end and
`irredundant_count` all read it. `_lattice_box` is the one place the
scan's box is chosen. `families._cap_check` is the one size guard.
`linprog._solve` is the one reader and writer of the slot that keeps
the last polyhedron's phase 1 (its weak reference's callback only
empties it), and, with the hull oracles' `_hull_point`, the one caller
of the simplex core, which answers one LP per call. `_hull_point` is
the one hull LP: conv_membership, segment_hits_hull and
strict_separation each ask it, and strict_separation states no LP of
its own.
`families._point_set` is the one intake of a point list,
`rational._frac` the one float rule, `rational._int_row` the one
denominator clearing and `families._parity` the one parity filter.
`irredundant_count` is checked against a sense-by-sense loop over the
rows' rational data. `bound_report` counts every floor and ceiling in
closed form and builds a hiding set or a ceiling system only up to the
family's floor or ceiling limit. `families.conn` is a cut sieve, with
no connectivity filter left in rcx. Every `PointSet` reads its bounds
off its points, and no option that only tests passed is left. Every
point file the CLI reads goes through `fileio.read_pointset`, and
`families._DigitRows` is the one layout of point rows that the writer,
the reader and the digest share, and its `pieces` the one formatter of
their text, in pieces of about 64 KB; only `families` touches a set's
digit buffer. A set with one reads its bounds, and affine_hull checks
its points, through the buffer's columns. The hull LP keeps the points
of X at its pins by `PointSet._rows_at`, the one home of X's column
bitmasks, indexes only those points, and keeps the pinned number of
them on each family-certify chain. `linprog._pinned` is the one home of
the pin rule, which the hull LP and the midpoint search of
`hiding._pair_row` share, and `_pair_row` is the one pair rule that
`verify_hiding` and the conflict graph ask; no rcx.hiding function asks
`segment_hits_hull`.
"""

import ast
import inspect
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rcx import cli, families, fileio, hiding, linprog, rational, relaxations, separation
from rcx.errors import Infeasible
from rcx.families import PointSet, _DigitRows, cube
from rcx.hiding import build_arb_hiding, build_tsp_hiding, verify_hiding
from rcx.linprog import Halfspace, HPolyhedron, _le_rows, solve_lp
from rcx.relaxations import (
    LatticeBox,
    _row_box,
    build_conn_cut_relaxation,
    build_cube_relaxation,
    build_rado_permutahedron,
    build_subtour_relaxation,
    enumerate_lattice,
    irredundant_count,
    verify_relaxation,
)
from test_fileio import READABLE_SIZES
from test_lattice_differential import FLAVORS, _random_case, outcome


def test_le_rows_on_a_mixed_polyhedron():
    P = HPolyhedron(2, [
        Halfspace((1, 2), "<=", 3),
        Halfspace((Fraction(1, 2), 0), ">=", 1),   # integer row x_1 >= 2
        Halfspace((0, 3), "=", 2),
        Halfspace((0, 0), "=", 0),
    ])
    assert list(_le_rows(P)) == [
        (0, 1, [1, 2], 3),
        (1, -1, [-1, 0], -2),
        (2, 1, [0, 3], 2),     # an = row: its + row, then its - row
        (2, -1, [0, -3], -2),
        (3, 1, [0, 0], 0),
        (3, -1, [0, 0], 0),
    ]


def irredundant_reference(P):
    """irredundant_count's sequential elimination without _le_rows: each
    row's rational data, optimized in the direction its sense bounds over
    the rows not yet dropped."""
    probe = solve_lp(P, [0] * P.dim, maximize=True)
    if probe.status == "infeasible":
        raise Infeasible("polyhedron has no points")
    redundant = []
    total = 0
    for i, c in enumerate(P.constraints):
        if c.sense == "=":
            continue
        total += 1
        kept = HPolyhedron(P.dim, [h for j, h in enumerate(P.constraints)
                                   if j != i and j not in redundant])
        out = solve_lp(kept, c.a, maximize=c.sense == "<=")
        if out.status != "optimal":
            continue
        if c.sense == "<=" and out.value <= c.rhs:
            redundant.append(i)
        elif c.sense == ">=" and out.value >= c.rhs:
            redundant.append(i)
    return total - len(redundant), redundant


SYSTEMS = {
    **{f"rado{n}": (lambda n=n: build_rado_permutahedron(n)) for n in (3, 4, 5)},
    **{f"cube{d}": (lambda d=d: build_cube_relaxation(d)) for d in range(1, 6)},
    "subtour4": lambda: build_subtour_relaxation(4),
    "subtour5": lambda: build_subtour_relaxation(5),
    "dsubtour4": lambda: build_subtour_relaxation(4, directed=True),
    "conn4": lambda: build_conn_cut_relaxation(4),
}


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_irredundant_count_on_explicit_systems(name):
    P = SYSTEMS[name]()
    assert irredundant_count(P) == irredundant_reference(P)


def test_irredundant_count_on_seeded_polyhedra():
    rng = random.Random(20261019)
    seen = {"redundant": 0, "irredundant": 0, "Infeasible": 0}
    for i in range(400):
        P = _random_case(rng, FLAVORS[i % len(FLAVORS)])
        got = outcome(irredundant_count, P)
        assert got == outcome(irredundant_reference, P), P
        if isinstance(got[0], type):
            seen[got[0].__name__] += 1
        else:
            seen["redundant" if got[1] else "irredundant"] += 1
    assert min(seen.values()) >= 40, seen


def test_each_decision_has_one_home(monkeypatch):
    # every reader of the <= form calls _le_rows itself and never reads a
    # row's sense or integer data; each box choice goes through _lattice_box
    readers, boxes = [], []

    def le_rows(P, _real=_le_rows):
        readers.append(sys._getframe(1).f_code.co_name)
        return _real(P)

    def lattice_box(*args, _real=relaxations._lattice_box):
        boxes.append(args)
        return _real(*args)

    for module in (linprog, relaxations):
        monkeypatch.setattr(module, "_le_rows", le_rows)
    monkeypatch.setattr(relaxations, "_lattice_box", lattice_box)
    P = build_cube_relaxation(3)
    for fn, want in [(lambda: _row_box(P), "_row_box"),
                     (lambda: enumerate_lattice(P, box=LatticeBox((0,) * 3, (1,) * 3)),
                      "enumerate_lattice"),
                     (lambda: solve_lp(P, [1, 0, 0]), "_solve"),
                     (lambda: irredundant_count(P), "irredundant_count")]:
        readers.clear()
        fn()
        assert want in readers, (want, readers)
        assert set(readers) <= {want, "_solve"}, (want, readers)
    for fn in (relaxations._row_box, relaxations.enumerate_lattice,
               linprog._solve, relaxations.irredundant_count):
        names = set(fn.__code__.co_names)
        for const in fn.__code__.co_consts:
            if hasattr(const, "co_names"):  # a nested function
                names |= set(const.co_names)
        assert not names & {"_int_a", "_int_rhs", "_SIGN"}, fn.__name__
        if fn is not relaxations.irredundant_count:  # it skips = rows by sense
            assert "sense" not in names, fn.__name__
    for fn in (lambda: enumerate_lattice(P),
               lambda: verify_relaxation(P, cube(3)),
               lambda: verify_relaxation(P, PointSet(3, []))):
        boxes.clear()
        fn()
        assert len(boxes) == 1


def _owned(match):
    """(module, innermost enclosing def, source) of each ast node in
    rcx's modules that match accepts."""
    src = Path(linprog.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # ast.walk is breadth-first, so the innermost enclosing def is last
        owner = {id(node): "<module>" for node in ast.walk(tree)}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                owner.update((id(node), getattr(fn, "name", "<lambda>"))
                             for node in ast.walk(fn))
        found += [(path.stem, owner[id(node)], ast.unparse(node))
                  for node in ast.walk(tree) if match(node)]
    return sorted(found)


def _calls(name):
    return lambda node: (isinstance(node, ast.Call) and name
                         == getattr(node.func, "id", getattr(node.func, "attr", None)))


def test_size_guard_has_one_home():
    # every count past a cap is refused by _cap_check; the one other
    # TooLarge is jeroslow_index's dimension limit, which is no count
    raised = _owned(_calls("TooLarge"))
    assert raised == [
        ("families", "_cap_check",
         "TooLarge(f'{what}: {count} candidates exceed the cap of {cap}')"),
        ("separation", "_kept_and_excluded",
         "TooLarge(f'dimension {d} exceeds the limit {limit}')"),
    ], raised


def test_phase1_slot_has_one_home():
    # the last polyhedron's phase 1 is defined once; only _solve reads or
    # replaces it, and only its weak reference's callback, _forget, also
    # empties it
    def slot(node):
        return ((isinstance(node, ast.Name) and node.id == "_last_phase1")
                or (isinstance(node, ast.Attribute) and node.attr == "_last_phase1")
                or (isinstance(node, ast.Global) and "_last_phase1" in node.names))

    found = _owned(slot)
    assert {f[:2] for f in found} == {("linprog", "<module>"), ("linprog", "_solve"),
                                      ("linprog", "_forget")}
    assert [f for f in found if f[1] == "<module>"] == [
        ("linprog", "<module>", "_last_phase1")]
    forget = [f[2] for f in found if f[1] == "_forget"]
    assert forget == ["_last_phase1", "_last_phase1", "_last_phase1",
                      "global _last_phase1"], forget


def test_simplex_core_answers_one_lp_per_call():
    # each LP is one call of the core: only _solve and the hull oracles'
    # _hull_point call it, and it is a plain function, not a generator
    assert [f[:2] for f in _owned(_calls("_solve_standard"))] == [
        ("linprog", "_hull_point"), ("linprog", "_solve")]
    assert not inspect.isgeneratorfunction(linprog._solve_standard)


def test_every_hull_question_is_one_hull_lp():
    # a point, a segment and a point set C each ask _hull_point whether
    # their hull meets conv(X); strict_separation builds no LP itself
    assert [f[:2] for f in _owned(_calls("_hull_point"))] == [
        ("linprog", "conv_membership"), ("linprog", "segment_hits_hull"),
        ("linprog", "strict_separation")]
    for name in ("solve_lp", "HPolyhedron", "_solve", "_solve_standard"):
        owners = [f[:2] for f in _owned(_calls(name))]
        assert ("linprog", "strict_separation") not in owners, name


def test_point_set_intake_number_rule_and_parity_have_one_home():
    # a plain list becomes a point set in families._point_set; a float is
    # refused in rational._frac; a row's denominators are cleared in
    # rational._int_row; a parity is filtered in families._parity
    def has_points(node):
        return (_calls("hasattr")(node) and len(node.args) == 2
                and getattr(node.args[1], "value", None) == "points")

    def refuses_floats(node):
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "floats are not allowed" in node.value)

    def sum_mod_2(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and _calls("sum")(node.left)
                and getattr(node.right, "value", None) == 2)

    homes = {"hasattr points": (has_points, ("families", "_point_set")),
             "float refusal": (refuses_floats, ("rational", "_frac")),
             "_den_lcm call": (_calls("_den_lcm"), ("rational", "_int_row")),
             "sum % 2": (sum_mod_2, ("families", "_parity"))}
    for what, (match, home) in homes.items():
        assert [found[:2] for found in _owned(match)] == [home], what
    assert list(inspect.signature(rational._den_lcm).parameters) == ["vals"]


def test_conn_is_a_cut_sieve():
    # conn clears the edge sets that miss a cut; rcx keeps no connectivity
    # filter, and _edge_subsets scans for forests and branch alone
    def defines_flood_fill(node):
        return isinstance(node, ast.FunctionDef) and node.name == "_spanning_connected"

    assert _owned(defines_flood_fill) == []
    assert [f[:2] for f in _owned(_calls("_edge_subsets"))] == [
        ("families", "branch"), ("families", "forests")]


def test_bounds_are_read_off_points_and_no_test_only_option_is_left():
    # no generator hands PointSet its bounds; build_binary_relaxation takes
    # no caller system, so its check, _degree_parities and InvalidSystem
    # are gone, and _validate_system raises one error type
    def passes_bounds(node):
        return _calls("PointSet")(node) and any(k.arg == "bounds" for k in node.keywords)

    def names_gone(node):
        name = getattr(node, "name", getattr(node, "id", getattr(node, "attr", None)))
        if isinstance(node, ast.Constant):
            name = node.value
        return name in {"_degree_parities", "InvalidSystem"}

    assert _owned(passes_bounds) == []
    assert _owned(names_gone) == []
    assert list(inspect.signature(PointSet).parameters) == [
        "dim", "points", "family", "legend", "validate"]
    assert list(inspect.signature(separation.build_binary_relaxation).parameters) == ["X"]
    assert list(inspect.signature(separation._validate_system).parameters) == [
        "rows", "pts", "ypts", "d"]


def test_point_files_are_read_and_digit_rows_laid_out_in_one_place():
    # every point file the CLI reads goes through fileio.read_pointset,
    # whose two paths parse the header with parse_pointset and no _field
    # call of their own, and _DigitRows is the one strided row layout: the writer, the reader and
    # the digest build it, and only it assigns to strided slices, besides
    # affine_hull's check, which widens a digit column into lanes of a
    # column sum (rational._lanes)
    def strided_store(node):
        return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and isinstance(node.slice, ast.Slice) and node.slice.step is not None)

    assert [f[:2] for f in _owned(_calls("read_pointset"))] == [
        ("cli", "_cmd_hiding_max"), ("cli", "_cmd_hiding_verify"),
        ("cli", "_cmd_hiding_verify"), ("cli", "_cmd_index"),
        ("cli", "_cmd_rationalize"), ("cli", "_cmd_relax_verify")]
    assert [f[:2] for f in _owned(_calls("parse_pointset"))] == [
        ("fileio", "_digit_pointset"), ("fileio", "read_pointset")]
    assert {f[1] for f in _owned(_calls("_field"))} == {"parse_pointset", "parse_polyhedron",
                                                         "parse_row"}
    assert [f[:2] for f in _owned(_calls("_DigitRows"))] == [
        ("families", "digest"), ("fileio", "_point_rows")]
    assert [f[:2] for f in _owned(_calls("_point_rows"))] == [
        ("fileio", "_digit_pointset"), ("fileio", "_encode")]
    assert [f[:2] for f in _owned(strided_store)] == [
        ("families", "read"), ("families", "text"), ("rational", "_lanes")]
    # and the strided reads are the layout's and a set's buffer columns:
    # all of them for _columns, one per new mask for _rows_at
    def strided_load(node):
        return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Slice) and node.slice.step is not None)

    assert [f[:2] for f in _owned(strided_load)] == [
        ("families", "_columns"), ("families", "_rows_at"), ("families", "read"),
        ("families", "text")]
    # the buffer is PointSet's private cache: nothing outside families
    # reads or sets it
    assert {f[0] for f in _owned(lambda node: getattr(node, "attr", None) == "_digits")} == {
        "families"}


def test_point_row_text_has_one_formatter():
    # _DigitRows.pieces writes the text of every point row, in pieces of
    # about 64 KB: the writer, the digest and the reader's re-encoding
    # check call it, and no "%d" row template, _joined or row count per
    # writer piece is left
    def gone(node):
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str) and "%d" in node.value
        name = getattr(node, "name", getattr(node, "id", getattr(node, "attr", None)))
        return name in {"_joined", "_ROWS_PER_PIECE", "template"}

    assert _owned(gone) == []
    assert [f[:2] for f in _owned(_calls("pieces"))] == [
        ("families", "digest"), ("families", "read"), ("fileio", "_encode")]
    assert list(inspect.signature(_DigitRows.pieces).parameters) == [
        "self", "rows", "digits"]


def test_generated_sets_carry_their_digit_buffer(monkeypatch, tmp_path):
    # every 0/1 family is generated straight into its digit buffer: rcx gen
    # writes it, and digest() and bounds() read it, without checking or
    # packing any value again
    def refuse(*args):
        raise AssertionError("a generated set's values were checked or packed again")

    for module in (families, fileio):
        monkeypatch.setattr(module, "_int_rows", refuse)
        monkeypatch.setattr(module, "_as_digits", refuse)
    zero_one = [(name, params) for name, params in READABLE_SIZES if name != "perm"]
    assert {name for name, _ in zero_one} == set(families.FAMILIES) - {"perm"}
    for name, params in zero_one:
        args = [",".join(map(str, p)) if isinstance(p, tuple) else str(p) for p in params]
        res = cli.run(["gen", name, *args, "-o", str(tmp_path / "x.json")])
        assert res.exit_code == 0, (name, res.summary)
        X = families.generate(name, *params)
        assert X.digest() and X.bounds()


def test_digit_sets_are_read_through_their_columns(monkeypatch, tmp_path):
    # bounds() of a set with a digit buffer, one that bounds() builds or one
    # read from a file, searches the buffer's columns and makes no
    # zip(*points) pass; affine_hull's every-point check sums the columns
    # and runs no per-point sum(map(mul, ...))
    X = families.generate("stsp", 8)
    fileio.write_doc(tmp_path / "x.json", fileio.pointset_doc(X))
    read = fileio.read_pointset(tmp_path / "x.json")
    expect = (tuple(map(min, zip(*X.points))), tuple(map(max, zip(*X.points))))

    def no_zip(*args):
        raise AssertionError("bounds() zipped the points")

    monkeypatch.setattr(families, "zip", no_zip, raising=False)
    assert X.bounds() == expect and read.bounds() == expect
    monkeypatch.delattr(families, "zip")

    checks, products = [], []
    real_mul, real_check = rational.mul, rational._check

    def mul(a, b):
        if checks and checks[-1]:
            products.append((a, b))
        return real_mul(a, b)

    def check(*args):
        checks.append(True)
        try:
            return real_check(*args)
        finally:
            checks.append(False)

    monkeypatch.setattr(rational, "mul", mul)
    monkeypatch.setattr(rational, "_check", check)
    for Y in (X, read):
        checks.clear()
        assert len(rational.affine_hull(Y).equations) == 8
        assert checks == [True, False] and products == []


def test_hull_lp_indexes_only_the_points_its_masks_keep(monkeypatch):
    # _hull_point asks PointSet._rows_at, through _pinned, for the points
    # of X at v on every pin, as the pair rule's midpoint search does;
    # no comprehension there filters or walks X's points, the masks
    # are kept and read only in _rows_at, and a hull LP indexes X's rows
    # at the kept indices and nowhere else
    def walks_points(node):
        return isinstance(node, ast.comprehension) and (
            ast.unparse(node.iter) in {"pts", "S.points", "range(len(pts))"}
            or any("pts[" in ast.unparse(cond) for cond in node.ifs))

    assert [f for f in _owned(walks_points) if f[:2] == ("linprog", "_hull_point")] == []
    assert [f[:2] for f in _owned(_calls("_rows_at"))] == [("linprog", "_pinned")]
    assert [f[:2] for f in _owned(_calls("_pinned"))] == [
        ("hiding", "_pair_row"), ("linprog", "_hull_point")]
    masks = {f[:2] for f in _owned(lambda node: getattr(node, "attr", None) == "_masks")}
    assert masks == {("families", "__init__"), ("families", "_rows_at")}

    class Rows(list):
        def __getitem__(self, i):
            read.append(i)
            return list.__getitem__(self, i)

        def __iter__(self):
            raise AssertionError("a hull LP walked X's points")

    def rows_at(self, pins, _real=PointSet._rows_at):
        kept.append(_real(self, pins))
        return kept[-1]

    monkeypatch.setattr(PointSet, "_rows_at", rows_at)
    X = families.generate("conn", 6)
    X.bounds()
    X.points = Rows(X.points)
    H = build_tsp_hiding(2, directed=False).points
    for a, b in [(H[0], H[0]), (H[1], H[1]), (H[0], H[1])]:
        read, kept = [], []
        linprog.segment_hits_hull(a, b, X)
        assert read == list(kept[0])
    assert len(kept[0]) == 189


def test_pin_rule_has_one_home():
    # the hull LP's presolve and the pair rule's midpoint search pin the
    # same coordinates: _pinned alone reads X's bounds for them and asks
    # _rows_at. _pair_row is the one pair rule of rcx.hiding, which
    # verify_hiding and the conflict graph both ask: it alone asks
    # _pinned and strict_separation, and no LP but strict_separation
    def reads_bounds(node):
        return _calls("bounds")(node) or (
            isinstance(node, ast.Subscript) and ast.unparse(node.value) in {"lo", "hi"})

    assert {f[:2] for f in _owned(reads_bounds) if f[0] in {"hiding", "linprog"}} == {
        ("linprog", "_pinned")}
    assert not [f for name in ("segment_hits_hull", "_hull_point")
                for f in _owned(_calls(name)) if f[0] == "hiding"]
    assert not [f for f in _owned(_calls("conv_membership"))
                if f[:2] in {("hiding", "_pair_row"), ("hiding", "_conflict_graph")}]
    for name in ("_pinned", "strict_separation"):
        assert [f[:2] for f in _owned(_calls(name)) if f[0] == "hiding"] == [
            ("hiding", "_pair_row")], name
    assert [f[:2] for f in _owned(_calls("_pair_row"))] == [
        ("hiding", "_conflict_graph"), ("hiding", "verify_hiding")]


# each family-certify chain: the family, its size and its hiding set
CHAINS = {("atsp", 8): lambda: build_tsp_hiding(3),
          ("stsp", 8): lambda: build_tsp_hiding(3, directed=False),
          ("conn", 6): lambda: build_tsp_hiding(2, directed=False),
          ("arb", 6): lambda: build_arb_hiding(2),
          ("spt", 6): lambda: build_arb_hiding(2, directed=False)}
# the points each hull LP of its verify_hiding keeps, each point of H and
# then each pair in turn; the parent's per-pin filter kept the same
KEPT = {("atsp", 8): [0, 0, 0, 0, 2, 2, 2, 2, 2, 2],
        ("stsp", 8): [0, 0, 0, 0, 4, 2, 4, 4, 2, 4],
        ("conn", 6): [0, 0, 189],
        ("arb", 6): [0, 0, 8],
        ("spt", 6): [0, 0, 32]}


@pytest.mark.parametrize("chain", list(CHAINS), ids=[f"{f}{n}" for f, n in CHAINS])
def test_hull_lps_keep_the_pinned_number_of_points(monkeypatch, chain):
    kept = []

    def rows_at(self, pins, _real=PointSet._rows_at):
        idx = _real(self, pins)
        kept.append(len(idx))
        return idx

    monkeypatch.setattr(PointSet, "_rows_at", rows_at)
    assert verify_hiding(CHAINS[chain](), families.generate(*chain)).valid
    assert kept == KEPT[chain]


# the report hiding sets of family-certify, next to its chains' sets
REPORT_SETS = [("perm", 4), ("diff", 2, 3), ("even", 5), ("stsp", 6)]


@pytest.mark.parametrize("args", list(CHAINS) + REPORT_SETS,
                         ids=lambda a: "".join(map(str, a)))
def test_verify_hiding_witnesses_every_pair(monkeypatch, args):
    # each pair of these hiding sets has a midpoint witness, so
    # verify_hiding asks strict_separation, and so the hull LP, for none
    found = []

    def midpoint(*a, _real=hiding._midpoint):
        found.append(_real(*a))
        return found[-1]

    def refuse(*a):
        raise AssertionError("verify_hiding asked strict_separation")

    monkeypatch.setattr(hiding, "_midpoint", midpoint)
    monkeypatch.setattr(hiding, "strict_separation", refuse)
    if args in CHAINS:
        H = CHAINS[args]()
    else:
        spec = separation._REPORTS[args[0]]
        H = spec.hiding(**spec.parse(*args[1:]))
    n = len(H.points)
    assert verify_hiding(H, families.generate(*args)).valid
    assert len(found) == n * (n - 1) // 2 and None not in found


# the smallest valid size past each family's floor limit
PAST_THE_FLOOR = {"stsp": (12,), "atsp": (12,), "conn": (8,), "spt": (8,),
                  "arb": (6,), "diff": (2, 5), "perm": (8,), "even": (7,),
                  "tjoins": (8, (1, 2))}


@pytest.mark.parametrize("family", list(PAST_THE_FLOOR))
def test_no_hiding_set_is_built_past_its_limit(monkeypatch, family):
    def refuse(*args, **kwargs):
        raise AssertionError("a hiding set was built past its limit")

    builders = {"build_tsp_hiding", "build_arb_hiding", "build_diff_hiding",
                "build_perm_hiding", "build_parity_hiding", "build_tjoin_hiding"}
    for name in builders:
        monkeypatch.setattr(separation, name, refuse)
    assert set(PAST_THE_FLOOR) == set(separation._REPORTS)
    spec, args = separation._REPORTS[family], PAST_THE_FLOOR[family]
    n = spec.parse(*args)["n"]
    assert spec.limits[0] < n <= spec.limits[0] + 2
    r = separation.bound_report(family, *args)
    assert r.lower_bound == spec.floor(**r.params)[0] and not r.lower_certified
    assert "floor carries the construction count only at this size" in r.notes


# the smallest valid size past each family's ceiling limit
PAST_THE_CEILING = {"stsp": (8,), "atsp": (6,), "conn": (6,), "spt": (6,),
                    "arb": (4,), "diff": (2, 4), "perm": (5,), "even": (7,),
                    "tjoins": (6, (1, 2))}


@pytest.mark.parametrize("family", list(PAST_THE_CEILING))
def test_no_ceiling_system_is_built_past_its_limit(monkeypatch, family):
    def refuse(*args, **kwargs):
        raise AssertionError("a ceiling system was built past its limit")

    builders = {"build_binary_relaxation", "build_subtour_relaxation",
                "build_conn_cut_relaxation", "build_rado_permutahedron"}
    for name in builders:
        monkeypatch.setattr(separation, name, refuse)
    # each family's builder calls only patched names
    for name, spec in separation._REPORTS.items():
        if spec.build is not None:
            assert set(spec.build.__code__.co_names) <= builders, name
    assert set(PAST_THE_CEILING) == set(separation._REPORTS)
    spec, args = separation._REPORTS[family], PAST_THE_CEILING[family]
    n = spec.parse(*args)["n"]
    assert spec.limits[1] < n <= spec.limits[1] + 2
    r = separation.bound_report(family, *args)
    assert r.upper_bound == spec.rows(**r.params) and not r.upper_certified
    assert "ceiling carries the row count only at this size" in r.notes
