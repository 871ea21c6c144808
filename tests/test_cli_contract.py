"""The exit-code contract of the command line, over generated argv.

cli.main exits 0 on success, 1 on a verification disagreement, 2 on bad
input and 3 on an internal error, and no traceback ever reaches the user.
Each example draws a subcommand (or an unknown one), a type among A1-A6
and D4-D6, and its flags, each either valid or malformed: a bad family or
rank, an unknown or wrong orientation, tilting specs that are valid, not
rigid, out of range or unparsable, mutation words with labels out of
range, bad formats and highlights, a non-integer seed, an --out that
cannot be written, flags left out or given together.  Nothing is written:
every --out drawn is rejected before any work.  --all-tiltings is drawn on
the types with at most 50 tiltings only, so the property stays within
about two seconds; the sweep marker runs it with 2000 examples, about
10 s.  Every drawn argv exits 0 or 2.  A checkout without hypothesis
skips it.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from clustercat import cli  # noqa: E402
from clustercat.dynkin import diagram_edges  # noqa: E402
from clustercat.render import FORMATS  # noqa: E402

TYPES = [("A", r) for r in range(1, 7)] + [("D", r) for r in range(4, 7)]
ALL_TILTINGS_OK = {("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)}
BAD_OUT = ("no/such/dir/out.txt", ".")


def often(draw):
    """True five times in six."""
    return draw(st.sampled_from((True,) * 5 + (False,)))


def objects(family, rank):
    """The number of indecomposables of the cluster category."""
    return rank * (rank + 3) // 2 if family == "A" else rank * rank


@st.composite
def orientations(draw, family, rank):
    edges = sorted(tuple(sorted(e)) for e in diagram_edges(family, rank))
    flips = draw(st.lists(st.booleans(), min_size=len(edges),
                          max_size=len(edges)))
    custom = "custom:" + ",".join(f"{t}-{s}" if flip else f"{s}-{t}"
                                  for (s, t), flip in zip(edges, flips))
    if often(draw):
        return draw(st.sampled_from(("default", custom)))
    return draw(st.sampled_from((
        "linear", "fork", "custom:", "custom:1-x", "custom:1-2", "sideways")))


def labels(draw, rank):
    """A comma-separated word of labels, mostly in 1..rank."""
    bad = () if often(draw) else (0, rank + 1)
    word = draw(st.lists(st.sampled_from(tuple(range(1, rank + 1)) + bad),
                         max_size=5))
    return ",".join(map(str, word))


@st.composite
def tilting_specs(draw, family, rank):
    kind = draw(st.sampled_from(("word",) * 6 + ("cids", "preset", "junk")))
    if kind == "word":
        return "@mutations:" + labels(draw, rank)
    if kind == "cids":
        cids = draw(st.lists(st.integers(-1, objects(family, rank)),
                             min_size=rank - 1, max_size=rank + 1))
        return ",".join(map(str, cids))
    if kind == "preset":
        return "@find-quiver:" + draw(st.sampled_from(
            ("d6-cycle", "paper-d6", "nope")))
    return draw(st.sampled_from(("x", "", "1,,2", "@mutations:a")))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS) + ["frobnicate"]))
    family, rank = draw(st.sampled_from(TYPES))

    def sometimes(malformed, valid):
        """valid five times in six, else one of malformed."""
        return valid if often(draw) else draw(st.sampled_from(malformed))

    def tilting():
        return draw(tilting_specs(family, rank))

    argv = [command]
    if often(draw):
        argv += ["--family", sometimes(("E", "a", ""), family)]
    if often(draw):
        argv += ["--rank", sometimes(("0", "-1", "3", "x", "2.5"), str(rank))]
    if draw(st.booleans()):
        argv += ["--orientation", draw(orientations(family, rank))]
    if not often(draw):
        argv += ["--seed", sometimes(("x",), str(draw(st.integers(0, 9))))]
    if not often(draw) and not often(draw):
        argv += ["--out", draw(st.sampled_from(BAD_OUT))]
    if command in ("classify", "hammocks", "render") and often(draw):
        argv += ["--tilting", tilting()]
    if command == "tiltings":
        if draw(st.booleans()):
            argv += ["--mutate-from", tilting()]
        if draw(st.booleans()):
            argv += ["--word", labels(draw, rank)]
    if command == "verify":
        which = draw(st.sampled_from(("tilting",) * 3 + ("all",) * 2
                                     + ("both", "none")))
        if which in ("all", "both") and (family, rank) in ALL_TILTINGS_OK:
            argv += ["--all-tiltings"]
        if which in ("tilting", "both"):
            argv += ["--tilting", tilting()]
    if command == "render":
        if draw(st.booleans()):
            argv += ["--format", sometimes(("png",),
                                           draw(st.sampled_from(FORMATS)))]
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, rank + 1)), draw(st.integers(0, rank + 1))
            argv += ["--highlight", sometimes(("bad", "1:2"),
                                              f"{i}:{j}:red")]
    if not often(draw) and not often(draw):
        argv.insert(draw(st.integers(0, len(argv))), "--help")
    return argv


def keeps_the_contract(argv):
    """No drawn argv disagrees or fails inside: every tilting the library
    accepts is cluster-tilting, where the theorem holds, and every bad
    input is reported as one."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(argv=argvs())
def test_every_argv_keeps_the_exit_code_contract(argv):
    keeps_the_contract(argv)


@pytest.mark.sweep
@hypothesis.settings(max_examples=2000, deadline=None, database=None)
@hypothesis.given(argv=argvs())
def test_every_argv_keeps_the_exit_code_contract_at_2000_examples(argv):
    """The same property, twenty times harder, under the sweep marker."""
    keeps_the_contract(argv)
