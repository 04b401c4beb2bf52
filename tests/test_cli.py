"""CLI: subcommands, exit codes, JSON output, DOT emission."""

import json
import random
from pathlib import Path

import pytest

from chordlab import chord as ch
from chordlab import cli, formats, generate
from chordlab.cli import emit_dot, main


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
        x = ch.expansions(d)[0]
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


class TestExitCodes:
    def test_domain_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.fatgraph"
        bad.write_text("fatgraph v1\npair 0 0\nvertex 0 0\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "chordlab:" in err

    def test_missing_file_is_one(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x")
        assert code == 1

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

    def test_counit(self, capsys):
        code, out, _ = run(capsys, "tqft", "counit", "--algebra", "st2")
        assert code == 0
        assert "no counit" in out

    def test_axioms(self, capsys):
        code, out, _ = run(capsys, "tqft", "axioms", "--algebra", "pd2",
                           "--json")
        assert code == 0
        assert json.loads(out)["all_pass"]


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
        x = ch.expansions(d)[0]
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
