"""Text formats: canonical serialization, round trips, error locations, fuzz."""

import random
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chordlab import chord as ch
from chordlab import fatgraph as fg
from chordlab import formats, generate, tqft
from chordlab.errors import (
    BadMarking,
    IncomingNotBoundaryCycle,
    InconsistentTables,
)

from helpers import random_fatgraph


FIXTURES = [
    "glue_left_0_1_2.chord",
    "glue_right_0_2_2.chord",
    "pd2.frob",
    "st2.frob",
]


def _fixture_text(name):
    return resources.files("chordlab.data").joinpath(name).read_text()


LEFT = "glue_left_0_1_2.chord"
SYNTAX, VALIDATION = formats.SyntaxError, formats.ValidationError


def _faulty(name, record, fault):
    """The text of the data file name with its record replaced by fault;
    fault itself if name is None."""
    if name is None:
        return fault
    text = _fixture_text(name)
    assert record in text
    return text.replace(record, fault)


def _readme_block(header):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    return next(b.lstrip("\n") for b in blocks if b.lstrip("\n").startswith(header))


def test_readme_examples_parse():
    text = _readme_block("chord v1")
    d = formats.parse(text)
    assert str(d.top_type()) == "(0;1,2)"
    # the example is canonical text with comments added
    stripped = "".join(line.split("#")[0].rstrip() + "\n"
                       for line in text.splitlines())
    assert formats.serialize(d) == stripped
    assert isinstance(formats.parse(_readme_block("frob v1")),
                      tqft.FrobeniusAlgebra)


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        text = _fixture_text(name)
        value = formats.parse(text)
        assert formats.serialize(value) == text
        assert formats.parse(formats.serialize(value)) == value

    def test_random_fatgraphs(self):
        rng = random.Random(1)
        for _ in range(60):
            G = random_fatgraph(rng, max_edges=8)
            assert formats.parse(formats.serialize(G)) == G

    def test_random_diagrams(self):
        rng = random.Random(2)
        for _ in range(40):
            g, p, q = generate._SMALL_TYPES[rng.randrange(
                len(generate._SMALL_TYPES))]
            d = generate.random_diagram(rng, g, p, q)
            parsed = formats.parse(formats.serialize(d))
            assert parsed == d
            assert ch.diagram_code(parsed) == ch.diagram_code(d)

    def test_vertex_orbits_derived_once_per_parse(self, monkeypatch):
        # parse_chord derives the rotation's orbits once, in the valence
        # check, and the graph keeps them as its vertex table; the boundary
        # cycles' orbits are the other call.  The kept table is the one a
        # fresh graph derives
        texts = [formats.serialize_chord(generate.random_diagram(
            random.Random(seed), *top, steps=6))
            for top in ((1, 1, 2), (0, 3, 2), (2, 1, 1)) for seed in range(10)]
        orbits, calls = fg._orbits, []

        def counted(perm):
            calls.append(None)
            return orbits(perm)

        monkeypatch.setattr(fg, "_orbits", counted)
        parsed = [formats.parse_chord(text) for text in texts]
        assert len(calls) == 2 * len(texts)
        monkeypatch.undo()
        for d in parsed:
            fresh = fg.FatGraph(d.graph.pairing, d.graph.next_at_vertex)
            assert d.graph.__dict__["_vertex_table"] == fresh._vertex_table
            assert d.graph.vertices() == fresh.vertices()

    def test_algebras(self):
        for maker in (tqft.pd2, tqft.st2, tqft.zero_coproduct_algebra):
            for field_ in (tqft.Rationals(), tqft.PrimeField(3)):
                A = maker(field_)
                assert formats.parse(formats.serialize(A)) == A

    def test_serialization_is_canonical(self):
        d = ch.canonical_gamma0(1, 2, 1)
        assert formats.serialize(d) == formats.serialize(
            formats.parse(formats.serialize(d)))


class TestErrors:
    def test_fixed_point_reported_with_line(self):
        with pytest.raises(formats.ValidationError) as err:
            formats.parse("fatgraph v1\npair 0 0\nvertex 0 0\n")
        assert err.value.line == 2

    def test_bad_header(self):
        with pytest.raises(formats.SyntaxError) as err:
            formats.parse("something else\n")
        assert err.value.line == 1

    def test_unknown_record(self):
        with pytest.raises(formats.SyntaxError) as err:
            formats.parse("chord v1\nwhatever 1 2\n")
        assert err.value.line == 2

    def test_missing_edge_label(self):
        text = (
            "chord v1\npair 0 1\npair 2 3\npair 4 5\n"
            "vertex 0 4 3\nvertex 1 2 5\n"
            "edge 0 C\nedge 2 C\nincoming 1\norder 0 1 3\n"
        )
        with pytest.raises(formats.ValidationError):
            formats.parse(text)

    def test_mark_for_a_cycle_outside_the_order(self):
        text = formats.serialize(ch.canonical_gamma0(0, 1, 2)) + "mark 99 0\n"
        with pytest.raises(formats.ValidationError) as err:
            formats.parse(text)
        assert err.value.line == len(text.splitlines())
        assert "99" in str(err.value)

    @pytest.mark.parametrize("kind", ["mark", "incoming", "order", "edge"])
    def test_repeated_record(self, kind):
        lines = formats.serialize(ch.canonical_gamma0(0, 1, 2)).splitlines()
        first = next(i for i, line in enumerate(lines)
                     if line.split()[0] == kind)
        lines.append(lines[first])
        with pytest.raises(formats.ValidationError) as err:
            formats.parse("\n".join(lines) + "\n")
        assert err.value.line == len(lines)
        assert f"first on line {first + 1}" in str(err.value)

    @pytest.mark.parametrize("name,record,fault,cause,message", [
        # the marks left out, as parse_chord refuses a mark off the order
        ("glue_left_0_1_2.chord", "order 0 1 3\nmark 0 0\nmark 1 1\nmark 3 3",
         "order 0 1 2", InconsistentTables, "not a permutation of the cycles"),
        ("glue_left_0_1_2.chord", "incoming 1", "incoming 0",
         IncomingNotBoundaryCycle, "incoming count 0 out of range"),
        ("glue_left_0_1_2.chord", "incoming 1", "incoming 4",
         IncomingNotBoundaryCycle, "incoming count 4 out of range"),
        # the second circle's cycle is left outgoing
        ("glue_right_0_2_2.chord", "incoming 2", "incoming 1",
         IncomingNotBoundaryCycle, "do not cover every circular edge"),
        # half-edge 1 is on cycle 1, and 4, on cycle 1, is a ghost's
        ("glue_left_0_1_2.chord", "mark 0 0", "mark 0 1",
         BadMarking, "marking 1 is not a circular occurrence on 0"),
        ("glue_left_0_1_2.chord", "mark 1 1", "mark 1 4",
         BadMarking, "marking 4 is not a circular occurrence on 1"),
    ])
    def test_chord_refused_at_its_order_record(self, name, record, fault,
                                               cause, message):
        # a well-formed file whose diagram validate_chord refuses: the
        # error names the order record's line and keeps the refusal
        text = _fixture_text(name)
        assert record in text
        lines = text.replace(record, fault).splitlines()
        with pytest.raises(formats.ValidationError) as err:
            formats.parse("\n".join(lines) + "\n")
        assert lines[err.value.line - 1].startswith("order ")
        assert type(err.value.cause) is cause
        assert message in str(err.value)

    @pytest.mark.parametrize("vertex,h", [("0 1 2 3 3", 3), ("0 1 2 9", 9)])
    def test_fatgraph_refused_at_its_first_vertex_record(self, vertex, h):
        # a half-edge listed twice, or one the pairs do not make
        text = f"fatgraph v1\npair 0 1\npair 2 3\nvertex {vertex}\n"
        with pytest.raises(formats.ValidationError) as err:
            formats.parse(text)
        assert err.value.line == 4
        assert type(err.value.cause) is InconsistentTables
        assert f"half-edge {h} repeated or out of range" in str(err.value)

    @pytest.mark.parametrize("text,error,line", [
        pytest.param(_faulty(name, record, fault), error, line, id=what)
        for what, name, record, fault, error, line in [
            ("vertex arity", LEFT, "vertex 1 2 5", "vertex", SYNTAX, 6),
            ("edge arity", LEFT, "edge 4 G", "edge 4", SYNTAX, 9),
            ("incoming arity", LEFT, "incoming 1", "incoming 1 2", SYNTAX, 10),
            ("mark arity", LEFT, "mark 3 3", "mark 3", SYNTAX, 14),
            ("basis arity", "st2.frob", "basis x 0", "basis x 0 1", SYNTAX, 4),
            ("ambient arity", "st2.frob", "ambient 2", "ambient", SYNTAX, 5),
            ("Delta arity", "st2.frob", "Delta 0 -> 1 1 1", "Delta 0 -> 1 1",
             SYNTAX, 10),
            # reported at line 1, as no record is at fault
            ("no order", LEFT, "order 0 1 3\nmark 0 0\nmark 1 1\nmark 3 3\n",
             "", SYNTAX, 1),
            # 5 is the second half of the edge 4
            ("edge id", LEFT, "edge 4 G", "edge 5 G", VALIDATION, 9),
            # reported at the first mark record
            ("cycle unmarked", LEFT, "mark 3 3\n", "", VALIDATION, 12),
            ("basis index", "pd2.frob", "m 0 0 -> 0 1", "m 0 0 -> 2 1",
             VALIDATION, 6),
            ("field", "pd2.frob", "field Q", "field R", SYNTAX, 2),
            ("no basis", None, None, "frob v1\nfield Q\nunit\n", SYNTAX, 1),
            ("unit length", "pd2.frob", "unit 1 0", "unit 1", VALIDATION, 5),
            ("not an integer", LEFT, "pair 4 5", "pair 4 x", SYNTAX, 4),
        ]])
    def test_malformed_record_refused_at_its_line(self, text, error, line):
        with pytest.raises(error) as err:
            formats.parse(text)
        assert type(err.value) is error
        assert err.value.line == line

    @pytest.mark.parametrize("kind", ["field", "ambient", "unit", "m", "Delta"])
    def test_repeated_frob_record(self, kind):
        lines = formats.serialize(tqft.st2()).splitlines()
        first = next(i for i, line in enumerate(lines)
                     if line.split()[0] == kind)
        # the same key with another coefficient is refused too
        lines.append(lines[first] if kind != "m" else lines[first] + "0")
        with pytest.raises(formats.ValidationError) as err:
            formats.parse("\n".join(lines) + "\n")
        assert err.value.line == len(lines)
        assert f"first on line {first + 1}" in str(err.value)

    def test_second_field_after_coefficients(self):
        # a unit parsed over Q must not end up in an F5 algebra
        with pytest.raises(formats.ValidationError) as err:
            formats.parse("frob v1\nbasis 1\nbasis x\nfield Q\n"
                          "unit 1/2 0\nfield Fp 5\n")
        assert err.value.line == 6

    def test_basis_budget(self):
        n = formats.FROB_BASIS_BUDGET
        lines = ["frob v1", "field Q"] + [f"basis e{i}" for i in range(n)]
        unit = "unit " + " ".join(["1"] + ["0"] * (n - 1))
        assert formats.parse("\n".join(lines + [unit]) + "\n").dim == n
        # the first basis record over the budget is refused at its line
        lines += [f"basis e{n}", unit + " 0"]
        with pytest.raises(formats.ValidationError, match="FROB_BASIS_BUDGET") as err:
            formats.parse("\n".join(lines) + "\n")
        assert err.value.line == n + 3

    def test_frob_without_field(self):
        with pytest.raises(formats.SyntaxError):
            formats.parse("frob v1\nbasis e\nunit 1\n")

    def test_frob_bad_prime(self):
        with pytest.raises(formats.ValidationError):
            formats.parse("frob v1\nfield Fp 6\nbasis e\nunit 1\n")

    @pytest.mark.parametrize("coeff", ["1e5", "1E-3", "2.5e1", "1/2e3",
                                       "inf", "nan", "1_000", "0x10", "/3",
                                       "1/", ".", "+-1"])
    def test_q_coefficient_outside_the_grammar(self, coeff):
        # Fraction would read exponents, whose value can dwarf the text
        with pytest.raises(formats.SyntaxError, match=re.escape(
                f"a field element, got '{coeff}'")) as err:
            formats.parse(f"frob v1\nfield Q\nbasis e\nunit {coeff}\n")
        assert err.value.line == 4

    @pytest.mark.parametrize("coeff,value", [
        ("-3/4", Fraction(-3, 4)), ("0.5", Fraction(1, 2)), ("+7", 7),
        ("-.25", Fraction(-1, 4)), ("3.", 3), ("6/4", Fraction(3, 2)),
    ])
    def test_q_coefficient_in_the_grammar(self, coeff, value):
        A = formats.parse(f"frob v1\nfield Q\nbasis e\nunit {coeff}\n")
        assert A.unit == (value,)

    def test_pd2_file_passes_axioms(self):
        A = formats.parse(_fixture_text("pd2.frob"))
        assert tqft.check_axioms(A).all_pass


_TOKENS = [
    "fatgraph", "chord", "frob", "v1", "pair", "vertex", "edge", "incoming",
    "order", "mark", "field", "Q", "Fp", "basis", "ambient", "unit", "m",
    "Delta", "->", "C", "G", "0", "1", "2", "7", "-3", "x", "1/2", "#", "\n",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30), st.booleans())
def test_fuzz_parser_never_crashes(tokens, join_lines):
    text = (" " if join_lines else "\n").join(tokens)
    try:
        formats.parse(text)
    except (formats.SyntaxError, formats.ValidationError):
        pass


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=200))
def test_fuzz_arbitrary_text(text):
    try:
        formats.parse(text)
    except (formats.SyntaxError, formats.ValidationError):
        pass
