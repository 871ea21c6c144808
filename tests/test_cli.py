"""Command-line surface: subcommands, flags, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

from clustercat import cli
from clustercat.cli import main
from clustercat.cluster import ClusterCategory, MeshConsistencyError
from clustercat.dynkin import build_quiver
from clustercat.hammocks import UnclassifiableShapeError, verify_main_theorem
from clustercat.meshhom import MeshHomEngine
from clustercat.render import export_json
from clustercat.tilting import enumerate_tiltings


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_tiltings_a3(capsys):
    code, out, _err = run(capsys, "verify", "--family", "A", "--rank", "3",
                          "--all-tiltings")
    assert code == 0
    assert out.strip() == "14/14 agree"


def test_verify_single_tilting(capsys):
    code, out, _err = run(capsys, "verify", "--family", "A", "--rank", "3",
                          "--tilting", "0,2,5")
    assert code == 0
    assert out.strip() == "1/1 agree"


def test_verify_without_tilting_flags(capsys):
    code, _out, err = run(capsys, "verify", "--family", "A", "--rank", "3")
    assert code == 2
    assert "verify needs" in err


def test_invalid_tilting_prints_ext_pair(capsys):
    code, _out, err = run(capsys, "classify", "--family", "A", "--rank", "3",
                          "--tilting", "0,4,1")
    assert code == 2
    assert "Ext^1(4, 1)" in err


def test_wrong_summand_count(capsys):
    code, _out, err = run(capsys, "classify", "--family", "A", "--rank", "3",
                          "--tilting", "0,1")
    assert code == 2
    assert "3 distinct summands" in err


def test_cid_out_of_range(capsys):
    code, _out, err = run(capsys, "verify", "--family", "A", "--rank", "3",
                          "--tilting", "0,1,99")
    assert code == 2
    assert "out of range" in err


def test_missing_required_flag_exits_2(capsys):
    assert main(["build", "--rank", "3"]) == 2
    capsys.readouterr()


def test_build_stats(capsys):
    code, out, _err = run(capsys, "build", "--family", "A", "--rank", "2")
    assert code == 0
    assert "indecomposables 5" in out
    assert "cluster-tilting objects 5" in out


def test_build_counts_tiltings_without_enumerating_them(capsys):
    # A40 has Catalan(41) ~ 1e22 tiltings, far too many to list
    code, out, _err = run(capsys, "build", "--family", "A", "--rank", "40")
    assert code == 0
    assert f"cluster-tilting objects {math.comb(82, 41) // 42}\n" in out


def test_build_custom_orientation(capsys):
    code, out, _err = run(capsys, "build", "--family", "A", "--rank", "3",
                          "--orientation", "custom:2-1,2-3")
    assert code == 0
    assert "2->1" in out and "2->3" in out


def test_bad_orientation(capsys):
    code, _out, err = run(capsys, "build", "--family", "A", "--rank", "3",
                          "--orientation", "sideways")
    assert code == 2
    assert "orientation" in err


def test_tiltings_enumeration_and_seed_reorders_only(capsys):
    code, out, _err = run(capsys, "tiltings", "--family", "A", "--rank", "2")
    assert code == 0
    plain = out.strip().splitlines()
    assert len(plain) == 5
    code, out, _err = run(capsys, "tiltings", "--family", "A", "--rank", "2",
                          "--seed", "7")
    assert code == 0
    assert sorted(out.strip().splitlines()) == sorted(plain)


def test_tiltings_mutation_word_is_involutive(capsys):
    code, out, _err = run(capsys, "tiltings", "--family", "A", "--rank", "3",
                          "--mutate-from", "0,1,2", "--word", "2,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == lines[2] == "0,1,2"
    assert lines[1] != lines[0]


def test_tiltings_word_requires_start(capsys):
    code, _out, err = run(capsys, "tiltings", "--family", "A", "--rank", "3",
                          "--word", "1")
    assert code == 2
    assert "--mutate-from" in err


@pytest.mark.parametrize("argv", [
    ("tiltings", "--mutate-from", "0,1,2", "--word", "1,x"),
    ("classify", "--tilting", "@mutations:1,x"),
], ids=["word", "mutations-spec"])
def test_bad_mutation_label_reads_the_same_everywhere(capsys, argv):
    code, out, err = run(capsys, argv[0], "--family", "A", "--rank", "3",
                         *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "error: bad mutation label 'x'\n"


def test_tilting_from_mutation_spec(capsys):
    code, out, _err = run(capsys, "classify", "--family", "A", "--rank", "3",
                          "--tilting", "@mutations:1,2")
    assert code == 0
    assert out.startswith("tilting ")


def test_classify_table(capsys):
    code, out, _err = run(capsys, "classify", "--family", "A", "--rank", "3",
                          "--tilting", "0,2,5")
    assert code == 0
    assert "pd 0: 3  pd 1: 0  pd inf: 3" in out
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 6


@pytest.mark.parametrize("name", ["paper-d6", "d6-cycle"])
def test_classify_quiver_preset(capsys, name):
    code, out, _err = run(capsys, "classify", "--family", "D", "--rank", "6",
                          "--tilting", f"@find-quiver:{name}")
    assert code == 0
    assert out.startswith("tilting 3,5,9,2,0,1")
    assert "pd 0: 6  pd 1: 14  pd inf: 10" in out


def test_unknown_preset(capsys):
    code, _out, err = run(capsys, "classify", "--family", "D", "--rank", "6",
                          "--tilting", "@find-quiver:nope")
    assert code == 2
    assert "unknown quiver preset" in err


def test_preset_needs_d6(capsys):
    code, _out, err = run(capsys, "classify", "--family", "A", "--rank", "4",
                          "--tilting", "@find-quiver:d6-cycle")
    assert code == 2
    assert "D6" in err


def test_hammocks_listing(capsys):
    code, out, _err = run(capsys, "hammocks", "--family", "A", "--rank", "2",
                          "--tilting", "0,1")
    assert code == 0
    assert "H_1 = [1, 3]" in out
    assert "H(2,1) sectional_path [3, 4]" in out
    assert "H(1,2) empty []" in out


def test_render_dot_default(capsys):
    code, out, _err = run(capsys, "render", "--family", "A", "--rank", "2")
    assert code == 0
    assert out.startswith("digraph ar {")


def test_render_json_needs_tilting(capsys):
    code, _out, err = run(capsys, "render", "--family", "A", "--rank", "2",
                          "--format", "json")
    assert code == 2
    assert "--tilting" in err


# one call per verb the parser must keep apart, and an input it rejects;
# a highlight list left in the parser would turn the plain dot render into
# "--highlight needs --tilting"
PARSER_CALLS = (
    ("render", "--family", "D", "--rank", "4", "--format", "json",
     "--tilting", "@mutations:1,2"),
    ("render", "--family", "A", "--rank", "3", "--format", "dot",
     "--tilting", "0,2,5", "--highlight", "2:1:blue",
     "--highlight", "1:3:red"),
    ("render", "--family", "A", "--rank", "3", "--format", "dot"),
    ("verify", "--family", "A", "--rank", "3", "--all-tiltings"),
    ("classify", "--family", "D", "--rank", "4", "--tilting", "@mutations:3"),
    ("render", "--family", "A", "--rank", "3", "--format", "svg"),
)


def test_one_parser_serves_every_call(capsys):
    """main builds its parser once per process.  A parse leaves no state in
    it (such as an appended highlight list), so calls that share it, the
    list run twice, print what calls with a freshly built parser print."""
    fresh = []
    for argv in PARSER_CALLS:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _out, _err in fresh] == [0, 0, 0, 0, 0, 2]
    assert "invalid choice: 'svg'" in fresh[-1][2]
    shared = [run(capsys, *argv) for argv in PARSER_CALLS * 2]
    assert shared == fresh * 2
    assert cli._parser.cache_info().misses == 1


def test_render_json_parses(capsys):
    code, out, _err = run(capsys, "render", "--family", "A", "--rank", "3",
                          "--format", "json", "--tilting", "0,2,5")
    assert code == 0
    data = json.loads(out)
    assert data["agreement"] is True
    assert sum(m["pd"] == "inf" for m in data["modules"]) == 3


def test_render_out_writes_file(capsys, tmp_path):
    path = tmp_path / "ar.tikz"
    code, out, _err = run(capsys, "render", "--family", "A", "--rank", "2",
                          "--format", "tikz", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("\\begin{tikzpicture}")


def test_render_highlight_flags(capsys):
    code, _out, err = run(capsys, "render", "--family", "A", "--rank", "3",
                          "--highlight", "2:1:blue")
    assert code == 2
    assert "--highlight needs --tilting" in err
    code, _out, err = run(capsys, "render", "--family", "A", "--rank", "3",
                          "--tilting", "0,2,5", "--highlight", "blue")
    assert code == 2
    assert "i:j:color" in err
    code, out, _err = run(capsys, "render", "--family", "A", "--rank", "3",
                          "--tilting", "0,2,5", "--highlight", "2:1:blue",
                          "--highlight", "1:3:red")
    assert code == 0
    assert 'fillcolor="blue"' in out and 'fillcolor="red"' in out


@pytest.mark.parametrize("spec", ["1:3:", '1:3:red"];x['])
def test_highlight_color_outside_its_alphabet_exits_2(capsys, spec):
    """The color is written into the source as it is: an empty one would
    render as fill=!30 (invalid TikZ), and a quote would end the DOT
    attribute early."""
    for fmt in ("dot", "tikz"):
        code, out, err = run(capsys, "render", "--family", "A", "--rank",
                             "3", "--format", fmt, "--tilting", "0,2,5",
                             "--highlight", spec)
        assert code == 2
        assert out == ""
        assert repr(spec) in err and "Traceback" not in err


def test_highlight_label_out_of_range_exits_2(capsys):
    code, out, err = run(capsys, "render", "--family", "A", "--rank", "3",
                         "--tilting", "0,2,5", "--highlight", "9:9:red")
    assert code == 2
    assert out == ""
    assert "out of range" in err and "Traceback" not in err


def test_unwritable_out_exits_2_before_work(capsys, monkeypatch, tmp_path):
    def no_work(*_args):
        raise AssertionError("verify ran although --out cannot be written")

    monkeypatch.setattr(cli, "verify_main_theorem", no_work)
    code, _out, err = run(capsys, "verify", "--family", "D", "--rank", "5",
                          "--all-tiltings", "--out",
                          str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    code, _out, err = run(capsys, "build", "--family", "A", "--rank", "2",
                          "--out", str(tmp_path))
    assert code == 2
    assert "is a directory" in err
    with pytest.raises(cli.InputError):
        cli._emit("text", str(tmp_path / "missing" / "x.json"))


@pytest.mark.parametrize("verb,target,exc", [
    ("verify", "verify_main_theorem", MeshConsistencyError),
    ("hammocks", "hij", UnclassifiableShapeError),
])
def test_internal_errors_exit_3(capsys, monkeypatch, verb, target, exc):
    def broken(*_args):
        raise exc("planted")

    monkeypatch.setattr(cli, target, broken)
    code, out, err = run(capsys, verb, "--family", "A", "--rank", "3",
                         "--tilting", "0,2,5")
    assert code == 3
    assert out == ""
    assert err == f"internal error: {exc.__name__}: planted\n"


@pytest.mark.parametrize("verb,extra", [
    ("tiltings", ()),
    ("verify", ("--all-tiltings",)),
])
def test_exhausted_memory_exits_3_without_traceback(capsys, monkeypatch,
                                                   verb, extra):
    """A MemoryError is an internal error, not a disagreement (exit 1)."""
    def out_of_memory(*_args):
        raise MemoryError()

    monkeypatch.setattr(cli, "enumerate_tiltings", out_of_memory)
    code, out, err = run(capsys, verb, "--family", "A", "--rank", "3", *extra)
    assert code == 3
    assert out == ""
    assert err == "internal error: MemoryError\n"


def test_verify_names_each_disagreeing_module(capsys, monkeypatch):
    argv = ("verify", "--family", "A", "--rank", "3", "--tilting", "0,2,5")
    # verify reads the hammock table at the shifted cids, not through hij
    monkeypatch.setattr(MeshHomEngine, "hammock", lambda *_args: frozenset())
    code, out, _err = run(capsys, *argv)
    assert code == 1
    assert out == ("0/1 agree\n"
                   "first disagreement at tilting 0,2,5\n"
                   "module 1: I_M zero, pd inf\n"
                   "module 4: I_M zero, pd inf\n"
                   "module 7: I_M zero, pd inf\n")
    monkeypatch.undo()
    code, out, _err = run(capsys, *argv)
    assert (code, out) == (0, "1/1 agree\n")

def test_console_entry_point():
    # the child imports clustercat from where this process found it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "clustercat.cli", "verify", "--family", "A",
         "--rank", "2", "--all-tiltings"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5/5 agree"


@pytest.mark.parametrize("spec", ["0,2,5", "not-a-tilting"])
def test_verify_all_tiltings_excludes_tilting(capsys, spec):
    code, out, err = run(capsys, "verify", "--family", "A", "--rank", "3",
                         "--all-tiltings", "--tilting", spec)
    assert code == 2
    assert out == ""
    assert "not allowed with" in err


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "clustercat", "verify", "--family", "A",
         "--rank", "3", "--all-tiltings", "--tilting", "0,2,5"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2
    assert "not allowed with" in proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "clustercat", "verify", "--family", "A",
         "--rank", "2", "--all-tiltings"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5/5 agree"


def test_verify_export_and_cli_compose_no_morphism(capsys, monkeypatch):
    """The integer tables carry every report: compose, hom_basis and coords
    are never called."""
    for name in ("compose", "hom_basis", "coords"):
        def refuse(*_args, name=name):
            raise AssertionError(f"MeshHomEngine.{name} was called")

        monkeypatch.setattr(MeshHomEngine, name, refuse)
    cc = ClusterCategory(build_quiver("D", 5))
    for t in enumerate_tiltings(cc)[::25]:
        assert verify_main_theorem(cc, t).agreement
        assert json.loads(export_json(cc, t))["agreement"] is True
    for argv in (("classify", "--tilting", "@mutations:1,2"),
                 ("render", "--format", "json", "--tilting", "@mutations:3")):
        code, out, err = run(capsys, argv[0], "--family", "D", "--rank", "5",
                             *argv[1:])
        assert (code, err) == (0, "") and out, argv
