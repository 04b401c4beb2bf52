"""Golden outputs: sha256 of reports, serialized diagrams and move paths
that every refactor must reproduce byte for byte.  The digests were recorded
from the release before the structural tables moved onto FatGraph and
ChordDiagram (those of (0;3,2)@9 and (2;1,1)@12 from the release before the
canonical search dropped losing starts early, those of the paths from the
release in which path_to_canonical first descended to the bottom layer and
read the rest of its path off one tree per type, those of
the enumerated classes from the release before the enumerator yielded raw
tables, those of (1;1,3)@12 and (0;2,3)@9 from the release before the
ghost-forest search pruned partial forests, those of the tqft outputs from the release before the matrix kernels
accumulated in ints, those of cp2/Q and cp2/F7 from the release before a
zero sum over Q became the shared F.zero); a change that alters any of them
changes what chordlab reports."""

import hashlib
import json
import random

import pytest

from chordlab import chord as ch
from chordlab import formats, generate, moves
from chordlab.cli import main
from chordlab.errors import ChordLabError
from chordlab.fatgraph import TopType

from helpers import truncated_polynomial


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("top,bound,exit_code,digest", [
    ("1,1,2", 9, 0,
     "255ef343bb7ddc0d4bd8b373d11c528b38472479975e6f5689d4b6c13f778b94"),
    ("0,2,2", 5, 1,
     "2373b88098444c0f4f0ecd38096a03c4474d5d40773b631e069b9af87e430e7c"),
    # the two complexes the benchmark's connect workload times
    ("0,3,2", 9, 0,
     "96cd0b15ecb37c7c02d5d0cae664d472b62b1af9921d2f4916da610f7079097e"),
    ("2,1,1", 12, 0,
     "9dec3e98683302f573d3137eb0d1532952d458e45cc7fb5cb754202b1529981d"),
])
def test_connect_json(capsys, top, bound, exit_code, digest):
    code = main(["connect", "--json", "--type", top, "--max-edges", str(bound)])
    assert code == exit_code
    assert _sha(capsys.readouterr().out) == digest


def test_connect_report_file(tmp_path):
    # the indented --report file, streamed to disk; its digest was recorded
    # when the report was still written from a joined string
    path = tmp_path / "report.json"
    assert main(["connect", "--type", "1,1,2", "--max-edges", "9",
                 "--report", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "ea49fd2608b60f38df8972c3e21ca20e7145ada07502fdc9a8464b05202f7377")


def test_connect_bound_defaults_to_trivalent_maximum(capsys):
    # 3(2g+p+q-2) = 9 for (1;1,2): the same report as --max-edges 9
    assert main(["connect", "--json", "--type", "1,1,2"]) == 0
    assert _sha(capsys.readouterr().out) == (
        "255ef343bb7ddc0d4bd8b373d11c528b38472479975e6f5689d4b6c13f778b94")


@pytest.mark.parametrize("top,digest", [
    ((1, 1, 2), "9ddad6ae871d81cd7119881b818557e8c1a218d6dd4ca49800fad02bf9816ff2"),
    ((1, 2, 1), "3f304f8861b0517adbe4c9f04d7b277a4322dea72af929d4e7048ed9af6465eb"),
    ((0, 3, 2), "e88526c9fd9de3edbdf82ad0664403c93792f01ca8a22bd0dc321d98127f281b"),
    ((0, 2, 3), "3e7690deb5f28bf05cd26f97edf7676ab3b76e83e89b0fcca23ace701cfdefcc"),
    ((2, 1, 1), "cc42f726ffdc301780dc135665bbab69845e48ea35e4aa96ab23f7c3ef511af4"),
])
def test_canonical_forms_of_random_walks(top, digest):
    text = "".join(
        formats.serialize_chord(ch.canonical_form(
            generate.random_diagram(random.Random(seed), *top, steps=6)))
        for seed in range(10)
    )
    assert _sha(text) == digest


@pytest.mark.parametrize("top,digest", [
    ((1, 1, 2), "6359116258ee64570a2644b7809f15742c743fb0fd257fbe763a51ddf08d247e"),
    ((1, 2, 1), "945f48b8e0dcc843189da6e236477e3d46fce834ddc56130032eb9849ee7ab0a"),
    ((0, 3, 2), "7e2454ac1bbc4dc3a371e8e4423b4ec5a9f58217764a5562a4b09dc70bdfd681"),
    ((0, 2, 3), "4aa1edc923523e744d6cb925a8f9824f7e87952a24c7a2379cfca3e0b9386a45"),
    ((2, 1, 1), "7d928fced3ff77fbffacf6381fb49b4e956d711e255d3d6eb284e4e7ea327bd3"),
])
def test_paths_of_random_walks(top, digest):
    # path_to_canonical's answer from the end of each walk above, one line
    # per walk, each replayed to the base point
    text = "".join(_replayed_path(generate.random_diagram(
        random.Random(seed), *top, steps=6)) for seed in range(10))
    assert _sha(text) == digest


def test_paths_of_longer_walks():
    # path_to_canonical's answer from the end of 8-move walks, seeds 0-19,
    # on six types, one line per walk, each replayed to the base point:
    # these descend further and reach deeper into each type's tree
    tops = [(1, 1, 2), (0, 3, 2), (0, 2, 3), (2, 1, 1), (1, 1, 3), (2, 1, 2)]
    text = "".join(_replayed_path(generate.random_diagram(
        random.Random(seed), *top, steps=8)) for top in tops
        for seed in range(20))
    assert _sha(text) == (
        "e7700469dcc43f2c4f323766509c50559f5f647f91134cb43a763bc6f4068239")


def _replayed_path(c) -> str:
    """path_to_canonical(c) as one line, once it is replayed with apply_move
    and canonical_form from c's canonical form to the base point's class."""
    path = moves.path_to_canonical(c)
    d = ch.canonical_form(c)
    for move in path:
        d = ch.canonical_form(moves.apply_move(d, move))
    top = c.top_type()
    assert ch.diagram_code(d) == ch.diagram_code(
        ch.canonical_gamma0(top.genus, top.p, top.q))
    return repr(path) + "\n"


@pytest.mark.parametrize("top,bound,digest", [
    ((0, 3, 2), 9,
     "9c966663ca03f70b9e2d6a286e204767849788508af546fd327d851b5716e3ed"),
    ((2, 1, 1), 12,
     "a51d5cf04de2facb5645a08372050c29bc54f1f9c89c3f5d78f1d788a7198db4"),
    ((1, 1, 3), 12,
     "dfe22d3cb2e08164aee0e5ee2aeefdacba2d8fa379c30fabd7e15744033974e9"),
    ((0, 2, 3), 9,
     "012d9a0838cafafa501116158c39e78d62b95d753581ede92caa3e4ac15337ab"),
    ((0, 4, 1), 9,
     "893215911412a7d6bf4105cde3f810678794809b5df7cd779c6c8237d7375f58"),
    ((1, 2, 2), 12,
     "66ad9aaa716b406cf689398413a292328940c96e1640b2a03565b687b3fa2159"),
])
def test_enumerated_classes(top, bound, digest):
    # every class code and its stored form, in the enumerator's insertion
    # order, one line per class: which candidate reaches a class first, and
    # so the markings of its form, is pinned too
    classes = generate.enumerate_classes(TopType(*top), bound)
    text = "".join(code.decode("ascii") + "|" + formats.serialize_chord(form)
                   + "\n" for code, form in classes.items())
    assert _sha(text) == digest


# Scaling Delta by a constant keeps every axiom (each one is linear or
# quadratic in Delta on both sides), so these algebras pass them all while
# their operations carry denominators: pd2 is the rank-2 case.
_THIRDS = {"pd2/3": truncated_polynomial(2, "1/3"),
           "cp2/3": truncated_polynomial(3, "1/3")}
# the CP^2 pattern with integer Delta, over Q and F_7: the rank-3 inputs the
# benchmark's tqft workload times
_FILES = {**_THIRDS, "cp2/Q": truncated_polynomial(3),
          "cp2/F7": truncated_polynomial(3, field="Fp 7")}


def _algebra_args(tmp_path, algebra: str) -> list[str]:
    if algebra in _FILES:
        path = tmp_path / "algebra.frob"
        path.write_text(_FILES[algebra])
        return ["--algebra", str(path)]
    name, field_ = algebra.split("/")
    return ["--algebra", name, "--field", field_]


@pytest.mark.parametrize("algebra,digest", [
    ("pd2/Q",
     "10ce781131afb63fcbf501ecd6a0ee55980f916c7bd5770304a6db0ead5726e2"),
    ("st2/F5",
     "2f070d8ca063939b07f2581fbc6ad7d539889c6d55543a59a99fa4f376145245"),
    ("zero/F7",
     "372f0b96c0baa0a55747732aff451e8b0edf876e63c82daf01f55b8b2df270ca"),
    ("pd2/3",
     "aefc1d25f4126776c70294d9833c91e6207cc1741f952c6cf68d9e5e1f186c9a"),
    ("cp2/3",
     "894e259d1b7b0085b0e46db2782c245d6ea6babe2057670b8bd8f66de5f29e76"),
    # every entry of these operations is 0, 1 or 3, so the two read alike
    ("cp2/Q",
     "15d7ef06347a1118f163d78eaab5ea77c1a70d03dd16c202a42c8cf3681231e2"),
    ("cp2/F7",
     "15d7ef06347a1118f163d78eaab5ea77c1a70d03dd16c202a42c8cf3681231e2"),
])
def test_tqft_op_json(capsys, tmp_path, algebra, digest):
    # every mu_{p,q}(g) with p <= 3, 1 <= q <= 3 and g <= 3, one JSON line
    # each, then the axioms and the counit
    args = _algebra_args(tmp_path, algebra)
    for p in range(4):
        for q in range(1, 4):
            for g in range(4):
                assert main(["tqft", "op", "--json", "--p", str(p),
                             "--q", str(q), "--g", str(g)] + args) == 0
    assert main(["tqft", "axioms", "--json"] + args) == 0
    assert main(["tqft", "counit", "--json"] + args) == 0
    assert _sha(capsys.readouterr().out) == digest


@pytest.mark.parametrize("algebra", sorted(_THIRDS))
def test_tqft_verify_scaled_delta(capsys, tmp_path, algebra):
    args = _algebra_args(tmp_path, algebra)
    assert main(["tqft", "verify", "--json", "--range", "3,3,3,2,2"] + args) == 0
    assert json.loads(capsys.readouterr().out) == {"failures": [],
                                                   "all_pass": True}


def _random_schedule(rng: random.Random, c1, c2) -> list[list[int]]:
    """A schedule of the right shape for glue(c1, c2): per outgoing cycle of
    c1, one sorted occurrence index per circle vertex of c2's matching
    incoming circle."""
    return [sorted(rng.randrange(len(c1.graph.cycle_of()[c1.markings[c1.p + k]]))
                   for _ in c2.graph.cycle_of()[c2.markings[k]])
            for k in range(c1.q)]


# draws whose scheduled snaps once escaped glue as a bare StopIteration; the
# snap tests in tests/test_chord.py cover them, so they are left out here
_SNAP_CRASH_DRAWS = {3, 12, 36, 58, 93}


def test_glue_of_random_pairs():
    # 200 random_gluable_pair draws (seed 11), each glued with no schedule and
    # with two random schedules (seed 12): the serialized result or the
    # error, one entry per call; recorded before glue wrote flat tables
    rng, schedules = random.Random(11), random.Random(12)
    parts = []
    for draw in range(200):
        c1, c2 = generate.random_gluable_pair(rng)
        calls = [None, _random_schedule(schedules, c1, c2),
                 _random_schedule(schedules, c1, c2)]
        if draw in _SNAP_CRASH_DRAWS:
            continue
        for schedule in calls:
            try:
                parts.append(formats.serialize(ch.glue(c1, c2, schedule)))
            except ChordLabError as exc:
                parts.append(f"{type(exc).__name__}: {exc}\n")
    assert _sha("".join(parts)) == (
        "5ccaeb25efc35f2e1a1c688f4addc8f0a91354d9b766ebcb26e14a711e24bec1")


def test_base_point_diagrams():
    # canonical_gamma0(g, p, q) for g <= 4 and 0 <= p, q <= 4, serialized or
    # the error; recorded before canonical_gamma0 wrote flat tables
    parts = []
    for g in range(5):
        for p in range(5):
            for q in range(5):
                try:
                    parts.append(formats.serialize(ch.canonical_gamma0(g, p, q)))
                except ChordLabError as exc:
                    parts.append(f"{type(exc).__name__}: {exc}\n")
    assert _sha("".join(parts)) == (
        "6588e27f42dcb4ec07e24dbf0937bf59678bedbfcb749737063c7cfb1444f413")
