"""CLI: subcommands, exit codes, JSON output, DOT emission."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from chordlab import chord as ch
from chordlab import cli, formats, generate, tqft
from chordlab.cli import emit_dot, main
from chordlab.errors import ChordLabError

from helpers import bent_cp2_frob, expansions


@pytest.fixture
def gamma_file(tmp_path):
    def write(g, p, q, name=None):
        path = tmp_path / (name or f"g{g}{p}{q}.chord")
        path.write_text(formats.serialize(ch.canonical_gamma0(g, p, q)))
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_type(self, capsys, gamma_file):
        code, out, _ = run(capsys, "type", gamma_file(1, 3, 3))
        assert code == 0
        assert out.strip() == "(1;3,3)"

    def test_type_json(self, capsys, gamma_file):
        code, out, _ = run(capsys, "type", gamma_file(0, 2, 1), "--json")
        assert code == 0
        assert json.loads(out) == {"type": "(0;2,1)"}

    def test_validate(self, capsys, gamma_file):
        code, out, _ = run(capsys, "validate", gamma_file(0, 1, 2))
        assert code == 0
        assert "(0;1,2)" in out

    def test_boundaries_cover_half_edges(self, capsys, gamma_file):
        path = gamma_file(1, 1, 1)
        code, out, _ = run(capsys, "boundaries", path, "--json")
        cycles = json.loads(out)["cycles"]
        d = formats.parse(Path(path).read_text())
        assert sorted(h for cyc in cycles for h in cyc) == list(
            range(d.graph.n_half_edges))

    def test_code_and_iso(self, capsys, gamma_file, tmp_path):
        a = gamma_file(0, 2, 2, "a.chord")
        # a relabeled copy: canonical form of an expansion collapsed back
        d = ch.canonical_gamma0(0, 2, 2)
        x = expansions(d)[0]
        back = ch.collapse_edge(x, x.graph.n_half_edges - 2)
        b = tmp_path / "b.chord"
        b.write_text(formats.serialize(back))
        code, out, _ = run(capsys, "iso", a, str(b))
        assert code == 0
        assert out.strip() == "isomorphic"
        code, out1, _ = run(capsys, "code", a)
        code, out2, _ = run(capsys, "code", str(b))
        assert out1 == out2

    def test_glue_figure_instance(self, capsys, gamma_file, tmp_path):
        a = gamma_file(0, 1, 2)
        b = gamma_file(0, 2, 2)
        out_path = tmp_path / "glued.chord"
        code, _, _ = run(capsys, "glue", a, b, "-o", str(out_path))
        assert code == 0
        glued = formats.parse(out_path.read_text())
        assert str(glued.top_type()) == "(1;1,2)"

    def test_gamma0_command(self, capsys, tmp_path):
        out_path = tmp_path / "g.chord"
        code, _, _ = run(capsys, "gamma0", "1", "1", "2", "-o", str(out_path))
        assert code == 0
        assert formats.parse(out_path.read_text()).top_type().genus == 1


DATA = Path(cli.__file__).parent / "data"

# a planar theta graph and a one-vertex torus rose
FATGRAPHS = {
    "theta": "fatgraph v1\npair 0 3\npair 1 4\npair 2 5\n"
             "vertex 0 1 2\nvertex 5 4 3\n",
    "torus": "fatgraph v1\npair 0 1\npair 2 3\nvertex 0 2 1 3\n",
}


class TestGraphFiles:
    # the sha256 of each command's stdout
    @pytest.mark.parametrize("argv,digest", [
        ("code --marked {left}",
         "a9973775209e374f69422109ea59527bef039c729e3d29a6725224316df4ded0"),
        ("code --marked {right}",
         "08baf24c0e93946d8656d57ca212a5d03190aa544927a3faaf5b144ff4ffa5c7"),
        ("code --marked --json {right}",
         "2ac1677369c2d675f8e632725eb62c313c686e41b62f505abeb4e7d226d81e53"),
        ("validate {theta}",
         "f23eccde9323f02f3cb487dc01cacb9934881fb99d54b5e1b79f4be94018979a"),
        ("validate --json {torus}",
         "ce3df78cb8b08a898f2a30a398435d7f6f912fccbc0fc850b6ba9231176da8b5"),
        ("type {theta}",
         "409209db304f0deb8d64bfea3725558d443f3b19fa6369a7d9f39938a74f2370"),
        ("type --json {torus}",
         "9c7f0a30b438c2898c35fba89a721d084d87232dcca351fdbae82eb25bc3a9ec"),
        ("code {theta}",
         "2bd8ac02131c6efc5ccda2c71e0a6e139ec9cd89e14241b89ea058f53477a6e1"),
        ("code --json {torus}",
         "b02d496d1cdd1f86edb4f05aff558589069f0f6813965d19aa465421af182260"),
        ("iso {theta} {torus}",
         "356bbb837458718ec66598b669ee124da29f04569ba98b964c7270239f68f233"),
        ("iso --json {theta} {theta}",
         "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
        ("boundaries {theta}",
         "3d785023e481a3252ee30c1b076b7841f27a028baa9dce96b29b623f31872dac"),
        ("boundaries --json {torus}",
         "d19b28c6293976737a7bf4fc560e3b08035954c96b83dfcf217e2053e0ab5142"),
    ])
    def test_output(self, capsys, tmp_path, argv, digest):
        files = {"left": str(DATA / "glue_left_0_1_2.chord"),
                 "right": str(DATA / "glue_right_0_2_2.chord")}
        for name, text in FATGRAPHS.items():
            files[name] = str(tmp_path / f"{name}.fg")
            Path(files[name]).write_text(text)
        code, out, err = run(capsys, *argv.format(**files).split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,message", [
        ("type {frob}", "type applies to fatgraph/chord files"),
        ("boundaries {frob}", "boundaries applies to fatgraph/chord files"),
        ("code {frob}", "code applies to fatgraph/chord files"),
        ("iso {theta} {left}",
         "iso compares two files of the same graph kind"),
    ])
    def test_kind_refused(self, capsys, tmp_path, argv, message):
        theta = tmp_path / "theta.fg"
        theta.write_text(FATGRAPHS["theta"])
        code, out, err = run(capsys, *argv.format(
            frob=DATA / "pd2.frob", theta=theta,
            left=DATA / "glue_left_0_1_2.chord").split())
        assert (code, out) == (1, "")
        assert err == f"chordlab: {message}\n"


class TestExitCodes:
    def test_domain_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.fatgraph"
        bad.write_text("fatgraph v1\npair 0 0\nvertex 0 0\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "chordlab:" in err

    def test_gamma0_over_the_edge_budget_is_one_line(self, capsys):
        # (256;1,1) has 1025 edges, one past GAMMA0_EDGE_BUDGET
        code, out, err = run(capsys, "gamma0", "256", "1", "1")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "GAMMA0_EDGE_BUDGET = 1024" in err

    def test_missing_file_is_one(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x")
        assert code == 1

    @pytest.mark.parametrize("kind", ["directory", "report-directory",
                                      "binary"])
    def test_unreadable_paths_are_one_line(self, capsys, tmp_path, kind):
        # a directory given as a file, a --report path that is a directory
        # and a file that is not UTF-8 each exit 1 with one diagnostic line
        binary = tmp_path / "binary.chord"
        binary.write_bytes(b"chord v1\n\xff\xfe\n")
        argv = {"directory": ["validate", str(tmp_path)],
                "report-directory": ["connect", "--type", "1,1,2",
                                     "--report", str(tmp_path)],
                "binary": ["validate", str(binary)]}[kind]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("chordlab: ") and err.count("\n") == 1

    def test_unwritable_report_fails_before_the_search(self, capsys,
                                                       monkeypatch, tmp_path):
        def explore(*args):
            pytest.fail("connect searched before checking its --report path")

        monkeypatch.setattr(cli.moves, "explore", explore)
        code, _, err = run(capsys, "connect", "--type", "1,1,2",
                           "--report", str(tmp_path))
        assert code == 1
        assert err.startswith("chordlab: ") and err.count("\n") == 1

    def test_failed_search_keeps_an_existing_report(self, capsys, monkeypatch,
                                                    tmp_path):
        def explore(*args):
            raise ChordLabError("search refused")

        monkeypatch.setattr(cli.moves, "explore", explore)
        path = tmp_path / "report.json"
        path.write_bytes(b'{"classes": 90}\n')
        code, _, err = run(capsys, "connect", "--type", "1,1,2",
                           "--report", str(path))
        assert code == 1
        assert err == "chordlab: search refused\n"
        assert path.read_bytes() == b'{"classes": 90}\n'

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["type"])
        assert exc.value.code == 2

    def test_jobs_is_a_usage_error(self, capsys):
        # the search is serial and takes no worker count
        with pytest.raises(SystemExit) as exc:
            main(["connect", "--type", "1,1,1", "--jobs", "2"])
        assert exc.value.code == 2

    def test_color_disabled_by_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("CHORDLAB_COLOR", "never")
        bad = tmp_path / "bad.fatgraph"
        bad.write_text("fatgraph v1\npair 0 0\nvertex 0 0\n")
        _, _, err = run(capsys, "validate", str(bad))
        assert "\x1b[" not in err


@pytest.mark.parametrize("argv", [
    ["tqft", "op", "--algebra", "pd2", "--field", "F4"],
    ["tqft", "op", "--algebra", "pd2", "--field", "Fx"],
    ["tqft", "op", "--algebra", "pd2", "--field", f"F{2 ** 89 - 1}"],
    ["tqft", "verify", "--algebra", "pd2", "--range", "2,2"],
    ["connect", "--type", "1,1,x", "--max-edges", "6"],
    ["connect", "--type=-1,1,1", "--max-edges", "6"],
    ["connect", "--type", "0,1,2", "--max-edges", "2"],
    ["tqft", "verify", "--algebra", "pd2", "--range", "0,0,0,0,0"],
    ["tqft", "verify", "--algebra", "pd2", "--range", "2,2,2,-1,1"],
    ["tqft", "op", "--algebra", "pd2", "--p", "40", "--q", "1"],
    ["tqft", "verify", "--algebra", "pd2", "--range", "5,5,1,40,0"],
])
def test_bad_option_values_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("chordlab: ")


class TestConnect:
    def test_connect_json_and_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "connect", "--type", "1,1,1",
                           "--max-edges", "8", "--json",
                           "--report", str(report_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["components"] == 1
        on_disk = json.loads(report_path.read_text())
        assert on_disk["classes"] == payload["classes"]


    def test_disconnected_within_bound_exits_one(self, capsys):
        code, out, _ = run(capsys, "connect", "--type", "0,2,2",
                           "--max-edges", "5")
        assert code == 1
        assert out == ("type (0;2,2): 12 classes, 12 component(s), "
                       "11 unreached within 5 edges\n")


@pytest.mark.parametrize("schedule", [
    "[1,2]", "5", '[["x","y"],[0]]', "[[0,0.5],[0]]",
])
def test_malformed_schedule_exits_one(capsys, gamma_file, tmp_path, schedule):
    path = tmp_path / "schedule.json"
    path.write_text(schedule)
    code, _, err = run(capsys, "glue", gamma_file(0, 1, 2), gamma_file(0, 2, 2),
                       "--schedule", str(path))
    assert code == 1
    assert err.startswith("chordlab: ")


def test_glue_snap_failure_exits_one(capsys, gamma_file, tmp_path):
    # the snap of test_chord.py's reproducer, through the CLI: one
    # diagnostic line, no traceback
    path = tmp_path / "schedule.json"
    path.write_text("[[1, 1]]")
    code, out, err = run(capsys, "glue", gamma_file(0, 2, 1),
                         gamma_file(0, 1, 2), "--schedule", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("chordlab: ") and err.count("\n") == 1


# the axioms check_axioms reports, in its order
AXIOMS = ("associativity", "commutativity", "unit", "coassociativity",
          "cocommutativity", "module_left", "module_right")


class TestTqftCommands:
    def test_op_json(self, capsys):
        code, out, _ = run(capsys, "tqft", "op", "--algebra", "pd2",
                           "--p", "1", "--q", "1", "--g", "1", "--json")
        assert code == 0
        assert json.loads(out)["matrix"] == [["0", "0"], ["2", "0"]]

    def test_verify_exit_zero(self, capsys):
        code, out, _ = run(capsys, "tqft", "verify", "--algebra", "st2",
                           "--field", "F2", "--range", "2,2,2,1,1")
        assert code == 0

    def test_verify_grid_budget(self, capsys, monkeypatch):
        calls, verify = [], cli.tqft.verify_gluing

        def counted(*args):
            calls.append(args)
            return verify(*args)

        monkeypatch.setattr(cli.tqft, "verify_gluing", counted)
        # just above the budget: 5*5*1*41*1 = VERIFY_GRID_BUDGET + 1 points
        assert 5 * 5 * 41 == cli.VERIFY_GRID_BUDGET + 1
        code, _, err = run(capsys, "tqft", "verify", "--algebra", "pd2",
                           "--range", "5,5,1,40,0")
        assert code == 1 and "VERIFY_GRID_BUDGET = 1024" in err
        assert calls == []
        # at a small budget, a grid of exactly that size still runs
        monkeypatch.setattr(cli, "VERIFY_GRID_BUDGET", 4)
        code, _, _ = run(capsys, "tqft", "verify", "--algebra", "pd2",
                         "--range", "2,2,1,0,0")
        assert code == 0 and len(calls) == 4
        code, _, err = run(capsys, "tqft", "verify", "--algebra", "pd2",
                           "--range", "2,2,1,1,0")
        assert code == 1 and "VERIFY_GRID_BUDGET = 4" in err
        assert len(calls) == 4

    def test_verify_reports_a_failed_gluing(self, capsys, tmp_path):
        # of the three points of --range 1,3,1,0,0 on the bent k[x]/(x^3),
        # only (1,3,1,0,0) fails, and verify exits 1
        path = tmp_path / "bent.frob"
        path.write_text(bent_cp2_frob())
        code, out, _ = run(capsys, "tqft", "verify", "--algebra", str(path),
                           "--range", "1,3,1,0,0", "--json")
        assert code == 1
        assert out == '{"failures": [[1, 3, 1, 0, 0]], "all_pass": false}\n'

    def test_counit(self, capsys):
        code, out, _ = run(capsys, "tqft", "counit", "--algebra", "st2")
        assert code == 0
        assert "no counit" in out

    def test_axioms(self, capsys):
        code, out, _ = run(capsys, "tqft", "axioms", "--algebra", "pd2",
                           "--json")
        assert code == 0
        assert json.loads(out)["all_pass"]

    @pytest.mark.parametrize("argv,text", [
        (["op", "--algebra", "pd2", "--g", "1"], "0 0\n2 0\n"),
        (["op", "--algebra", "st2", "--field", "F3", "--p", "2"],
         "1 0 0 0\n0 1 1 0\n"),
        (["axioms", "--algebra", "pd2"],
         "".join(f"{name}: pass\n" for name in AXIOMS)),
        (["counit", "--algebra", "pd2"],
         "counit: 0 1\npairing nondegenerate: True\n"),
    ])
    def test_plain_text(self, capsys, argv, text):
        assert run(capsys, "tqft", *argv) == (0, text, "")

    def test_axioms_of_a_failing_algebra(self, capsys, tmp_path):
        # the bent k[x]/(x^3) fails three axioms; each witness is the first
        # mismatching (row, column, left value, right value)
        path = tmp_path / "bent.frob"
        path.write_text(bent_cp2_frob())
        failed = ("coassociativity", "module_left", "module_right")
        code, out, _ = run(capsys, "tqft", "axioms", "--algebra", str(path))
        assert code == 1
        assert out == "".join(
            f"{name}: {'FAIL' if name in failed else 'pass'}\n"
            for name in AXIOMS)
        code, out, _ = run(capsys, "tqft", "axioms", "--algebra", str(path),
                           "--json")
        assert code == 1
        assert json.loads(out) == {
            "all_pass": False,
            "axioms": {name: name not in failed for name in AXIOMS},
            "witnesses": {"coassociativity": ["4", "0", "0", "1"],
                          "module_left": ["3", "3", "0", "1"],
                          "module_right": ["1", "1", "0", "1"]}}

    def test_field_of_a_frob_file_refused(self, capsys, tmp_path):
        # a frob file names its own field, so --field would be ignored
        path = tmp_path / "pd2.frob"
        path.write_text(formats.serialize(tqft.pd2()))
        code, out, err = run(capsys, "tqft", "op", "--algebra", str(path),
                             "--field", "F5")
        assert (code, out) == (1, "")
        assert err.startswith("chordlab: --field") and err.count("\n") == 1
        assert run(capsys, "tqft", "op", "--algebra", str(path)) == (
            0, "1 0\n0 1\n", "")


class TestDot:
    def test_counts_match(self, capsys):
        d = ch.canonical_gamma0(1, 2, 2)
        dot = emit_dot(d)
        assert dot.count("label=\"v") == d.graph.n_vertices
        assert dot.count(" -- ") == d.graph.n_edges

    def test_styles_and_clusters(self):
        d = ch.canonical_gamma0(0, 1, 2)
        dot = emit_dot(d)
        assert dot.count("subgraph cluster_in") == 1
        assert "style=bold" in dot      # ghost edges
        assert "style=solid" in dot     # circular edges

    def test_canon_flag_normalizes(self):
        d = ch.canonical_gamma0(0, 2, 2)
        x = expansions(d)[0]
        relabeled = ch.collapse_edge(x, x.graph.n_half_edges - 2)
        assert emit_dot(d) != emit_dot(relabeled) or d == relabeled
        assert emit_dot(d, canon=True) == emit_dot(relabeled, canon=True)

    def test_deterministic(self):
        rng = random.Random(4)
        d = generate.random_diagram(rng, 1, 1, 2)
        assert emit_dot(d) == emit_dot(d)

    def test_dot_command(self, capsys, tmp_path):
        path = tmp_path / "d.chord"
        path.write_text(formats.serialize(ch.canonical_gamma0(0, 1, 2)))
        code, out, _ = run(capsys, "dot", str(path), "--canon")
        assert code == 0
        assert out.startswith("graph chord {")
