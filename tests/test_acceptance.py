"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N: PASS` line directly to the terminal
(or lets pytest report FAILED).  Timed criteria assert their budgets.
"""

import itertools
import random
import time
from fractions import Fraction
from importlib import resources

import pytest

from chordlab import chord as ch
from chordlab import fatgraph as fg
from chordlab import formats, generate, moves, tqft
from chordlab.fatgraph import TopType


@pytest.fixture
def announce(capsys):
    def _announce(text):
        with capsys.disabled():
            print(text)
    return _announce


CONNECT_TYPES = [(0, 1, 2), (0, 2, 1), (0, 2, 2), (1, 1, 1), (1, 1, 2)]
ALL_SMALL_TYPES = [
    (g, p, q)
    for g in range(3)
    for p in range(1, 4)
    for q in range(1, 4)
    if (g, p, q) != (0, 1, 1)
]
FIELDS = [tqft.Rationals(), tqft.PrimeField(2), tqft.PrimeField(3),
          tqft.PrimeField(5)]


def test_criterion_01_boundary_tracing_partition(announce):
    start = time.monotonic()
    rng = random.Random(2026)
    for _ in range(1000):
        G = generate.random_fatgraph(rng, max_edges=12)
        cycles = fg.boundary_cycles(G)
        seen = sorted(h for cyc in cycles for h in cyc)
        assert seen == list(range(G.n_half_edges))
        g, n = fg.topological_type(G)
        assert g >= 0
        assert 2 - 2 * g - n == fg.euler_characteristic(G)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    announce(f"criterion 1 (boundary partition, 1000 graphs, "
             f"{elapsed:.1f}s < 10s): PASS")


def test_criterion_02_chi_identity(announce):
    rng = random.Random(2027)
    count = 0
    for g, p, q in ALL_SMALL_TYPES:
        for _ in range(20):
            d = generate.random_diagram(rng, g, p, q)
            assert ch.chi_defect(d) == -fg.euler_characteristic(d.graph)
            count += 1
    assert count >= 500
    announce(f"criterion 2 (chi identity on {count} diagrams): PASS")


def test_criterion_03_canonical_gamma0_grid(announce):
    start = time.monotonic()
    for g in range(4):
        for p in range(1, 5):
            for q in range(1, 5):
                if (g, p, q) == (0, 1, 1):
                    continue
                d = ch.canonical_gamma0(g, p, q)
                assert d.top_type() == TopType(g, p, q)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    announce(f"criterion 3 (gamma0 grid, {elapsed:.2f}s < 1s): PASS")


def test_criterion_04_gluing_arithmetic(announce):
    start = time.monotonic()
    rng = random.Random(2028)
    for _ in range(200):
        c1, c2 = generate.random_gluable_pair(rng)
        t1, t2 = c1.top_type(), c2.top_type()
        glued = ch.glue(c1, c2)
        assert glued.top_type() == TopType(
            t1.genus + t2.genus + t1.q - 1, t1.p, t2.q)
    # the shipped fixture instance: (0;1,2) # (0;2,2) = (1;1,2)
    left = formats.parse(
        resources.files("chordlab.data").joinpath(
            "glue_left_0_1_2.chord").read_text())
    right = formats.parse(
        resources.files("chordlab.data").joinpath(
            "glue_right_0_2_2.chord").read_text())
    assert ch.glue(left, right).top_type() == TopType(1, 1, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    announce(f"criterion 4 (gluing arithmetic, 200 pairs + fixture, "
             f"{elapsed:.1f}s < 10s): PASS")


def test_criterion_05_connectivity(announce):
    start = time.monotonic()
    for g, p, q in CONNECT_TYPES:
        bound = ch.canonical_gamma0(g, p, q).graph.n_edges + 4
        report = moves.explore(TopType(g, p, q), bound)
        assert report.component_count == 1, (g, p, q)
        assert report.unreached == [], (g, p, q)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"{elapsed:.0f}s"
    announce(f"criterion 5 (connectivity of 5 types at gamma0+4, "
             f"{elapsed:.0f}s < 300s): PASS")


def test_criterion_06_move_invariance(announce):
    violations = 0
    total = 0
    for g, p, q in CONNECT_TYPES:
        top = TopType(g, p, q)
        bound = ch.canonical_gamma0(g, p, q).graph.n_edges + 4
        for rep in generate.enumerate_classes(top, bound).values():
            for _code, neighbor, _fwd, _inv in moves.neighbors_with_moves(
                rep, bound
            ):
                total += 1
                if neighbor.top_type() != top:
                    violations += 1
    assert total > 0
    assert violations == 0
    announce(f"criterion 6 (type preserved on all {total} enumerated moves): "
             "PASS")


def test_criterion_07_tqft_sewing(announce):
    start = time.monotonic()
    for maker in (tqft.pd2, tqft.st2):
        for field_ in FIELDS:
            A = maker(field_)
            for p, q, r in itertools.product((1, 2, 3), repeat=3):
                for g1, g2 in itertools.product((0, 1, 2), repeat=2):
                    ok, _ = tqft.verify_gluing(A, p, q, r, g1, g2)
                    assert ok, (maker.__name__, field_.name, p, q, r, g1, g2)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    announce(f"criterion 7 (sewing identity, full grid, 2 algebras x 4 "
             f"fields, {elapsed:.1f}s < 30s): PASS")


def test_criterion_08_degree_shift(announce):
    A = tqft.st2()
    d = A.dim

    def tensor_degree(index, arity):
        return sum(
            A.degrees[(index // d ** (arity - 1 - i)) % d]
            for i in range(arity)
        )

    checked = 0
    for p, q in itertools.product((1, 2, 3), repeat=2):
        for g in (0, 1, 2, 3, 4):
            op = tqft.mu(A, p, q, g)
            shift = tqft.degree_shift(p, q, g, A.ambient_n)
            assert op.degree_shift == shift
            for row, rv in enumerate(op.rows()):
                for col, value in enumerate(rv):
                    if value != A.field_.zero:
                        assert tensor_degree(row, q) - tensor_degree(
                            col, p) == shift
                        checked += 1
    assert checked > 0
    announce(f"criterion 8 (graded consistency, {checked} nonzero entries): "
             "PASS")


def test_criterion_09_counit_obstruction(announce):
    theta, nondegenerate = tqft.counit_solve(tqft.pd2())
    assert theta == (Fraction(0), Fraction(1))
    assert nondegenerate
    assert tqft.counit_solve(tqft.st2()) is None
    assert tqft.counit_solve(tqft.zero_coproduct_algebra()) is None
    announce("criterion 9 (counit: pd2 yes, st2 no, zero-coproduct no): PASS")


def test_criterion_10_diagram_algebra_coherence(announce):
    rng = random.Random(2029)
    for _ in range(50):
        c1, c2 = generate.random_gluable_pair(rng)
        glued = ch.glue(c1, c2)
        for A in (tqft.pd2(), tqft.st2()):
            F = A.field_
            lhs = tqft.operation_from_diagram(glued, A).rows()
            rhs = tqft._matmul(
                F,
                tqft.operation_from_diagram(c2, A).rows(),
                tqft.operation_from_diagram(c1, A).rows(),
            )
            assert lhs == rhs
    announce("criterion 10 (operation of glue = composition, 50 pairs x 2 "
             "algebras): PASS")


def test_criterion_11_format_round_trip_and_fuzz(announce):
    for name in ("glue_left_0_1_2.chord", "glue_right_0_2_2.chord",
                 "pd2.frob", "st2.frob"):
        text = resources.files("chordlab.data").joinpath(name).read_text()
        assert formats.serialize(formats.parse(text)) == text

    rng = random.Random(2030)
    for _ in range(300):
        G = generate.random_fatgraph(rng, max_edges=8)
        assert formats.parse(formats.serialize(G)) == G
    for _ in range(200):
        g, p, q = ALL_SMALL_TYPES[rng.randrange(len(ALL_SMALL_TYPES))]
        d = generate.random_diagram(rng, g, p, q)
        parsed = formats.parse(formats.serialize(d))
        assert parsed == d
        assert ch.diagram_code(parsed) == ch.diagram_code(d)
    algebra_count = 0
    for maker in (tqft.pd2, tqft.st2, tqft.zero_coproduct_algebra):
        for field_ in FIELDS + [tqft.PrimeField(7), tqft.PrimeField(11)]:
            A = maker(field_)
            assert formats.parse(formats.serialize(A)) == A
            algebra_count += 1
    assert 300 + 200 + algebra_count >= 500

    words = ["fatgraph", "chord", "frob", "v1", "pair", "vertex", "edge",
             "incoming", "order", "mark", "field", "Q", "Fp", "basis",
             "ambient", "unit", "m", "Delta", "->", "C", "G", "0", "1", "2",
             "3", "-1", "x", "5", "1/2", "#", "\n"]
    for _ in range(100000):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 20)))
        if rng.random() < 0.5:
            text = text.replace(" \n ", "\n")
        try:
            formats.parse(text)
        except (formats.SyntaxError, formats.ValidationError):
            pass
    announce("criterion 11 (round trips on fixtures + 500 values, 1e5-input "
             "fuzz, no crash): PASS")
