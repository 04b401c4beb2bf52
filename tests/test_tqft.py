"""Frobenius algebras and the operations mu_{p,q}(g): exact arithmetic only."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chordlab import chord as ch
from chordlab import formats, generate, tqft
from chordlab.errors import ChordLabError, NoOutgoing
from chordlab.fatgraph import TopType

from helpers import bent_cp2_frob, evaluated_rows, expansions

FIELDS = [tqft.Rationals(), tqft.PrimeField(2), tqft.PrimeField(3),
          tqft.PrimeField(5)]


# the matrix kernels as they were written before they ran on ints: one F.add
# and one F.mul per product, kept here as the reference the kernels must meet
def _reference_matmul(F, A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    assert len(A[0]) == inner
    C = tqft._zeros(F, rows, cols)
    for i in range(rows):
        Ai = A[i]
        Ci = C[i]
        for k in range(inner):
            a = Ai[k]
            if a == F.zero:
                continue
            Bk = B[k]
            for j in range(cols):
                Ci[j] = F.add(Ci[j], F.mul(a, Bk[j]))
    return C


def _reference_kron(F, A, B):
    ra, ca, rb, cb = len(A), len(A[0]), len(B), len(B[0])
    C = tqft._zeros(F, ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            a = A[i][j]
            if a == F.zero:
                continue
            for k in range(rb):
                for l in range(cb):
                    C[i * rb + k][j * cb + l] = F.mul(a, B[k][l])
    return C


@st.composite
def _matrix(draw, F, rows, cols):
    """A rows x cols matrix over F, some of its rows and columns zeroed.
    Over Q its entries mix negative numerators, zeros, entries too large for
    a machine word, and denominators from a small per-matrix pool, so that
    one row or column often holds several, coprime or not."""
    if isinstance(F, tqft.Rationals):
        pool = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 7, 35]),
                             min_size=1, max_size=3))
        element = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(pool))
        if draw(st.booleans()):
            element |= st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                                 st.integers(1, 2 ** 40))
    else:
        element = st.one_of(st.just(0), st.integers(0, F.p - 1))
    M = [[draw(element) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=1)):
        M[i] = [F.zero] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=1)):
        for row in M:
            row[j] = F.zero
    return M


_KERNEL_FIELDS = st.sampled_from([tqft.Rationals(), tqft.PrimeField(2),
                                  tqft.PrimeField(7),
                                  tqft.PrimeField(2 ** 61 - 1)])


def _assert_field_entries(F, M):
    for row in M:
        for x in row:
            if isinstance(F, tqft.Rationals):
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < F.p


class TestKernels:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matmul_matches_reference(self, data):
        F = data.draw(_KERNEL_FIELDS)
        rows, inner, cols = (data.draw(st.integers(1, 5)) for _ in range(3))
        A = data.draw(_matrix(F, rows, inner))
        B = data.draw(_matrix(F, inner, cols))
        C = tqft._matmul(F, A, B)
        assert C == _reference_matmul(F, A, B)
        _assert_field_entries(F, C)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_kron_matches_reference(self, data):
        F = data.draw(_KERNEL_FIELDS)
        ra, ca, rb, cb = (data.draw(st.integers(1, 4)) for _ in range(4))
        A = data.draw(_matrix(F, ra, ca))
        B = data.draw(_matrix(F, rb, cb))
        C = tqft._kron(F, A, B)
        assert C == _reference_kron(F, A, B)
        _assert_field_entries(F, C)


class TestAxioms:
    @pytest.mark.parametrize("maker", [tqft.pd2, tqft.st2])
    @pytest.mark.parametrize("field_", FIELDS, ids=lambda F: F.name)
    def test_builtins_pass(self, maker, field_):
        report = tqft.check_axioms(maker(field_))
        assert report.all_pass, report.passed

    def test_st2_graded_axioms_included(self):
        report = tqft.check_axioms(tqft.st2())
        assert report.passed["graded_product"]
        assert report.passed["graded_coproduct"]

    def test_broken_coproduct_fails_with_witness(self):
        F = tqft.Rationals()
        base = tqft.pd2(F)
        # Delta(x) = x (x) 1 instead of x (x) x
        coprod = tqft._constants(F, 2, {(0, 0, 1): 1, (0, 1, 0): 1, (1, 1, 0): 1})
        bad = tqft.FrobeniusAlgebra(
            field_=F, basis=base.basis, product=base.product,
            coproduct=coprod, unit=base.unit)
        report = tqft.check_axioms(bad)
        assert not report.passed["module_left"] or not report.passed["module_right"]
        failing = next(k for k, v in report.passed.items() if not v)
        assert report.witnesses[failing] is not None


class TestPrimeField:
    def test_agrees_with_trial_division(self):
        small = [n for n in range(2000) if tqft._is_prime(n)]
        assert small == [n for n in range(2, 2000)
                         if all(n % d for d in range(2, int(n ** 0.5) + 1))]

    # a Carmichael number and strong pseudoprimes to bases 2..7, 2..23 and
    # 2..37
    @pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051,
                                   318665857834031151167461])
    def test_pseudoprimes_rejected(self, n):
        with pytest.raises(ValueError):
            tqft.PrimeField(n)

    def test_large_prime_accepted(self):
        F = tqft.PrimeField(2 ** 61 - 1)
        assert F.mul(F.inv(3), 3) == F.one

    def test_above_certified_range_rejected(self):
        with pytest.raises(ValueError):
            tqft.PrimeField(2 ** 89 - 1)
        with pytest.raises(formats.ValidationError):
            formats.parse(f"frob v1\nfield Fp {2 ** 89 - 1}\n")


class TestMu:
    def test_p2_q1_is_the_product(self):
        A = tqft.pd2()
        assert tqft.mu(A, 2, 1, 0).rows() == A.m_matrix()

    def test_handle_operator_on_pd2(self):
        op = tqft.mu(tqft.pd2(), 1, 1, 1)
        # 1 -> 2x, x -> 0
        assert op.rows() == [[Fraction(0), Fraction(0)],
                             [Fraction(2), Fraction(0)]]

    def test_unit_side(self):
        op = tqft.mu(tqft.pd2(), 0, 1, 0)
        assert op.rows() == [[Fraction(1)], [Fraction(0)]]

    def test_q1_p1_g0_is_identity(self):
        for F in FIELDS:
            A = tqft.st2(F)
            assert tqft.mu(A, 1, 1, 0).rows() == tqft._identity(F, 2)

    def test_no_outgoing_rejected(self):
        with pytest.raises(NoOutgoing):
            tqft.mu(tqft.pd2(), 2, 0, 0)

    def test_cell_budget(self, monkeypatch):
        # just above the budget: (g+1)*2^1 = MU_CELL_BUDGET + 2, and 2^41
        A = tqft.pd2()
        for p, q, g in [(0, 1, tqft.MU_CELL_BUDGET // 2), (40, 1, 0)]:
            with pytest.raises(ChordLabError, match="MU_CELL_BUDGET"):
                tqft.mu(A, p, q, g)
        # at a small budget, a call of exactly that cost still runs
        monkeypatch.setattr(tqft, "MU_CELL_BUDGET", 16)
        assert len(tqft.mu(A, 1, 2, 1).rows()) == len(tqft.mu(A, 2, 2, 0).rows()) == 4
        for p, q, g in [(1, 2, 2), (2, 3, 0)]:
            with pytest.raises(ChordLabError, match="MU_CELL_BUDGET = 16"):
                tqft.mu(A, p, q, g)

    def test_genus_budget_over_q(self, monkeypatch):
        # just above the cap over Q: refused before any matrix is built; the
        # same genus over F_p, and the cap itself over Q, still run
        products, matmul = [], tqft._matmul

        def counted(*args):
            products.append(args)
            return matmul(*args)

        monkeypatch.setattr(tqft, "_matmul", counted)
        cap = tqft.MU_GENUS_BUDGET_Q
        with pytest.raises(ChordLabError, match=f"MU_GENUS_BUDGET_Q = {cap}"):
            tqft.mu(tqft.pd2(), 1, 1, cap + 1)
        assert products == []
        assert len(tqft.mu(tqft.pd2(tqft.PrimeField(3)), 1, 1, cap + 1).rows()) == 2
        assert len(tqft.mu(tqft.pd2(), 1, 1, cap).rows()) == 2
        # at a small cap, verify_gluing's glued genus g1+g2+q-1 is capped too
        monkeypatch.setattr(tqft, "MU_GENUS_BUDGET_Q", 2)
        assert tqft.verify_gluing(tqft.pd2(), 1, 2, 1, 1, 0)[0]
        for call in (lambda: tqft.mu(tqft.pd2(), 2, 1, 3),
                     lambda: tqft.verify_gluing(tqft.pd2(), 1, 2, 1, 1, 1)):
            with pytest.raises(ChordLabError, match="MU_GENUS_BUDGET_Q = 2"):
                call()
        assert tqft.verify_gluing(tqft.st2(tqft.PrimeField(5)), 1, 2, 1, 1, 1)[0]

    def test_handle_operator_is_central(self):
        # H commutes with multiplication by every basis element
        for maker in (tqft.pd2, tqft.st2):
            for field_ in FIELDS:
                A = maker(field_)
                F, d = A.field_, A.dim
                H = tqft._matmul(F, A.m_matrix(), A.delta_matrix())
                for i in range(d):
                    # L_i = m(e_i (x) -)
                    L = [[A.product[i][j][k] for j in range(d)]
                         for k in range(d)]
                    assert tqft._matmul(F, H, L) == tqft._matmul(F, L, H)


class TestSewing:
    @pytest.mark.parametrize("maker", [tqft.pd2, tqft.st2])
    @pytest.mark.parametrize("field_", FIELDS, ids=lambda F: F.name)
    def test_composition_law(self, maker, field_):
        A = maker(field_)
        for p, q, r in itertools.product((1, 2), repeat=3):
            for g1, g2 in itertools.product((0, 1), repeat=2):
                ok, diff = tqft.verify_gluing(A, p, q, r, g1, g2)
                assert ok, (p, q, r, g1, g2, diff)

    def test_definitional_identity(self):
        # m then Delta equals one handle: mu(1,2,0) then mu(2,1,0) = mu(1,1,1)
        A = tqft.pd2()
        ok, _ = tqft.verify_gluing(A, 1, 2, 1, 0, 0)
        assert ok

    def test_discrepancy_reported(self):
        # k[x]/(x^3) with one extra 1 (x) 1 in Delta(1) fails coassociativity
        # and both module axioms; of the gluings (1, q, 1, 0, 0), q <= 3, only
        # q = 3 fails, and it is reported by the witness check_axioms uses:
        # (row, column, left value, right value) of the first entry that
        # differs
        bent = formats.parse_frob(bent_cp2_frob())
        report = tqft.check_axioms(bent)
        assert [name for name, ok in report.passed.items() if not ok] == [
            "coassociativity", "module_left", "module_right"]
        assert tqft.verify_gluing(bent, 1, 1, 1, 0, 0) == (True, None)
        assert tqft.verify_gluing(bent, 1, 2, 1, 0, 0) == (True, None)
        lhs = tqft._matmul(bent.field_, tqft.mu(bent, 3, 1, 0).rows(),
                           tqft.mu(bent, 1, 3, 0).rows())
        rhs = tqft.mu(bent, 1, 1, 2).rows()
        assert tqft.verify_gluing(bent, 1, 3, 1, 0, 0) == (
            False, (2, 0, Fraction(4), Fraction(3)))
        # rows 0 and 1 agree, so (2, 0) is the first entry that differs
        assert lhs[:2] == rhs[:2] and (lhs[2][0], rhs[2][0]) == (4, 3)


class TestDiagramCoherence:
    def test_matches_type_level_mu(self):
        A = tqft.pd2()
        d = ch.canonical_gamma0(0, 1, 2)
        assert tqft.operation_from_diagram(d, A).rows() == A.delta_matrix()

    def test_invariance_across_diagrams_of_one_type(self):
        A = tqft.st2()
        d1 = ch.canonical_gamma0(1, 1, 1)
        others = expansions(d1)
        assert others
        m1 = tqft.operation_from_diagram(d1, A)
        for d2 in others:
            assert tqft.operation_from_diagram(d2, A).matrix == m1.matrix

    def test_glue_factorization(self):
        A = tqft.pd2()
        F = A.field_
        c1 = ch.canonical_gamma0(0, 1, 2)
        c2 = ch.canonical_gamma0(0, 2, 2)
        lhs = tqft.operation_from_diagram(ch.glue(c1, c2), A).rows()
        rhs = tqft._matmul(
            F,
            tqft.operation_from_diagram(c2, A).rows(),
            tqft.operation_from_diagram(c1, A).rows(),
        )
        assert lhs == rhs


class TestDiagramEvaluator:
    """The operation read off a diagram's ghost edges (helpers.evaluate), a
    computation independent of the type-level mu."""

    @pytest.mark.parametrize("top,bound", [((1, 1, 2), 9), ((0, 3, 2), 9),
                                           ((2, 1, 1), 12)])
    def test_equals_mu_on_every_class(self, top, bound):
        g, p, q = top
        classes = generate.enumerate_classes(TopType(g, p, q), bound)
        for A in (tqft.pd2(), tqft.st2()):
            expected = tqft.mu(A, p, q, g).rows()
            assert all(evaluated_rows(c, A) == expected
                       for c in classes.values())

    @pytest.mark.parametrize("maker", [tqft.pd2, tqft.st2])
    def test_respects_gluing(self, maker):
        A, rng = maker(), random.Random(2029)
        for _ in range(50):
            c1, c2 = generate.random_gluable_pair(rng)
            assert evaluated_rows(ch.glue(c1, c2), A) == tqft._matmul(
                A.field_, evaluated_rows(c2, A), evaluated_rows(c1, A))

    @pytest.mark.parametrize("top,bound,operations", [((0, 3, 2), 9, 4),
                                                      ((1, 1, 2), 9, 3)])
    def test_an_algebra_failing_the_axioms_tells_diagrams_apart(
            self, top, bound, operations):
        # pd2 with Delta(x) = 2 x(x)x; on (2;1,1)@12, where q = 1, all its
        # operations still agree, so the control needs q >= 2
        bad = tqft._dual_numbers(tqft.Rationals(), {(0, 0, 1): 1, (0, 1, 0): 1,
                                                     (1, 1, 1): 2})
        assert not tqft.check_axioms(bad).all_pass
        classes = generate.enumerate_classes(TopType(*top), bound)
        assert len({tuple(map(tuple, evaluated_rows(c, bad)))
                    for c in classes.values()}) == operations


class TestCounit:
    def test_pd2_has_counit_with_nondegenerate_pairing(self):
        theta, nondeg = tqft.counit_solve(tqft.pd2())
        assert theta == (Fraction(0), Fraction(1))
        assert nondeg

    def test_st2_has_no_counit(self):
        assert tqft.counit_solve(tqft.st2()) is None

    def test_zero_coproduct_has_no_counit(self):
        assert tqft.counit_solve(tqft.zero_coproduct_algebra()) is None


class TestDegrees:
    def test_degree_shift_values(self):
        n = 3
        assert tqft.degree_shift(2, 1, 0, n) == -n      # pair of pants
        assert tqft.degree_shift(0, 1, 0, n) == n       # disk raises by n
        assert tqft.degree_shift(1, 1, 1, 2) == -4

    def test_graded_consistency_of_st2_operations(self):
        A = tqft.st2()
        d = A.dim

        def tensor_degree(index, arity):
            return sum(
                A.degrees[(index // d ** (arity - 1 - i)) % d]
                for i in range(arity)
            )

        for p in (1, 2, 3):
            for q in (1, 2, 3):
                for g in (0, 1, 2):
                    op = tqft.mu(A, p, q, g)
                    assert op.degree_shift == tqft.degree_shift(
                        p, q, g, A.ambient_n)
                    for row, rv in enumerate(op.rows()):
                        for col, value in enumerate(rv):
                            if value != A.field_.zero:
                                assert (tensor_degree(row, q)
                                        - tensor_degree(col, p)
                                        == op.degree_shift)
