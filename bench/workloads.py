"""The three workloads: inputs from a seed, one operation, and its checks.

A workload is driven by run.py in this order: setup() several times (each
after a fresh import of clustercat), prepare_checks() once, then per
operation i: input(i) outside timing, op(arg) timed, check(arg, out)
outside timing, and finish() at the end.  Operations come in whole rounds of
round_size.  Inputs depend on the seed and the operation index only, never
on how many operations a run manages.
"""

import contextlib
import gc
import importlib
import io
import json
import random
from collections import Counter

from checks import (crosses, diagonal, flipped_triangulation,
                    has_oriented_cycle, indec_count, mutated_quiver,
                    orientation_arrows, require, tilting_count_d)


def _module(name):
    """A clustercat module by name; the package attribute `render` is the
    function, not the submodule, so modules are looked up here."""
    return importlib.import_module("clustercat" + name)


def check_classes(cc, rank, summands, pd_by_cid):
    """pd 0 <=> M in add T, and the classes cover exactly the cids outside add T[1]."""
    family = cc.quiver.family
    require(len(cc.indecs) == indec_count(family, rank),
            f"{family}{rank} has {len(cc.indecs)} indecomposables")
    outside = set(range(len(cc.indecs))) - {cc.shift(s) for s in summands}
    require(sorted(pd_by_cid) == sorted(outside),
            "pd classes do not cover exactly the indecomposables outside add T[1]")
    zero = {m for m, pd in pd_by_cid.items() if pd == "0"}
    require(zero == set(summands), "pd 0 modules are not the summands of T")
    return Counter(pd_by_cid.values())


def check_document(doc, cc, rank, summands):
    """A JSON report: agreement, pd inf <=> some H(i,j), and the class checks."""
    require(doc["agreement"] is True, "JSON report disagrees")
    require(doc["meta"]["tilting"] == list(summands), "JSON names another tilting")
    for m in doc["modules"]:
        require((m["pd"] == "inf") == bool(m["in_hij"]),
                f"module {m['cid']}: pd {m['pd']} but in_hij {m['in_hij']}")
    return check_classes(cc, rank, summands,
                         {m["cid"]: m["pd"] for m in doc["modules"]})


class _SampledTiltings:
    """Shared by the two workloads that sweep a seeded order of one D_n."""

    rank = None

    def setup(self, seed):
        pkg = _module("")
        cc = pkg.ClusterCategory(pkg.build_quiver("D", self.rank))
        for x in cc.cids():  # builds the cover functor of every object
            cc.hom_basis(x, x)
        tiltings = pkg.enumerate_tiltings(cc)
        self.pkg, self.cc, self.tiltings = pkg, cc, tiltings
        self.render = _module(".render")
        self.inputs = self.order(tiltings, random.Random(seed))
        self.op(tiltings[0])

    def order(self, tiltings, rng):
        order = list(tiltings)
        rng.shuffle(order)
        return order

    def prepare_checks(self):
        require(len(self.tiltings) == tilting_count_d(self.rank),
                f"enumerate_tiltings found {len(self.tiltings)} tiltings")
        require(len({t.key() for t in self.tiltings}) == len(self.tiltings),
                "enumerate_tiltings repeats a tilting")

    def input(self, i):
        return self.inputs[i % len(self.inputs)]

    def is_cyclic(self, t):
        return not self.pkg.build_algebra(self.cc, t).gabriel_quiver_is_acyclic()

    def check_infinite(self, t, counts):
        # 1-Gorenstein: finite global dimension would make End(T) hereditary,
        # so an infinite class exists exactly when the quiver has a cycle
        require((counts["inf"] > 0) == self.is_cyclic(t),
                f"infinite class and Gabriel quiver cycle disagree at {t}")

    def finish(self):
        pass


class VerifyD7(_SampledTiltings):
    name = "verify-d7"
    rank = 7
    round_size = 8
    kernel_calls = 1
    trace_ops = 16

    def op(self, t):
        return self.pkg.verify_main_theorem(self.cc, t)

    def check(self, t, report):
        require(report.agreement, f"TheoremReport disagrees at {t}")
        counts = check_classes(self.cc, self.rank, t.summands,
                               {m: pd.value for m, _w, pd in report.rows})
        self.check_infinite(t, counts)


class ReportD6(_SampledTiltings):
    name = "report-d6"
    rank = 6
    round_size = 8
    kernel_calls = 1
    trace_ops = 8

    def order(self, tiltings, rng):
        # the paper's worked example first, then a seeded order of the rest
        preset = _module(".presets").cycle_d6_tilting(self.cc)
        rest = [t for t in tiltings if t != preset]
        rng.shuffle(rest)
        return [preset] + rest

    def op(self, t):
        return self.render.export_json(self.cc, t)

    def prepare_checks(self):
        super().prepare_checks()
        self.first = None

    def check(self, t, text):
        if t is self.inputs[0] and self.first is None:
            self.first = text
        counts = check_document(json.loads(text), self.cc, self.rank, t.summands)
        self.check_infinite(t, counts)

    def finish(self):
        again = self.op(self.inputs[0])
        require(again == self.first, "exporting the same tilting twice differs")


# verb, family, rank, orientation: every category is built inside the call.
# Each call takes 0.35-0.55 s on a 2-core VM, so the times of all calls
# overlap and their median does not jump between two kinds of call from seed
# to seed.
CLI_CALLS = (
    ("verify", "D", 8, "default"),
    ("classify", "D", 9, "fork"),
    ("render", "A", 10, "linear"),
    ("verify", "A", 10, "custom:2-1,2-3,4-3,4-5,6-5,6-7,8-7,8-9,10-9"),
    ("verify", "D", 8, "custom:1-3,3-2,4-3,4-5,6-5,6-7,8-7"),
)


class CliCold:
    name = "cli-cold"
    round_size = len(CLI_CALLS)
    kernel_calls = 4
    trace_ops = len(CLI_CALLS)

    def setup(self, seed):
        self.cli = _module(".cli")
        self.seed = seed
        small = ["--family", "A", "--rank", "3", "--tilting", "@mutations:1,2"]
        for argv in (["verify"] + small, ["classify"] + small,
                     ["render"] + small + ["--format", "json"]):
            self.op((argv, None))

    def prepare_checks(self):
        pkg = _module("")
        self.categories = {}
        for verb, family, rank, orientation in CLI_CALLS:
            if verb != "verify":  # verify prints no tilting to check
                arrows = orientation_arrows(family, rank, orientation)
                self.categories[(family, rank, orientation)] = \
                    pkg.ClusterCategory(pkg.build_quiver(family, rank, arrows))

    def input(self, i):
        verb, family, rank, orientation = CLI_CALLS[i % len(CLI_CALLS)]
        rng = random.Random(f"{self.seed}:{i}")
        word = [rng.randint(1, rank) for _ in range(rng.randint(8, 12))]
        argv = [verb, "--family", family, "--rank", str(rank),
                "--orientation", orientation,
                "--tilting", "@mutations:" + ",".join(map(str, word))]
        if verb == "render":
            argv += ["--format", "json"]
        gc.collect()  # each call starts from a collected heap, as a new process would
        return argv, (verb, family, rank, orientation, word)

    def op(self, arg):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(arg[0])
        if code not in (0, 1):  # 1 is a disagreement, which check() reports
            raise RuntimeError(f"clustercat {' '.join(arg[0])} exited {code}")
        return code, buf.getvalue()

    def check(self, arg, out):
        verb, family, rank, orientation, word = arg[1]
        code, text = out
        require(code == 0, f"disagreement on {arg[0]}")
        if verb == "verify":
            require(text == "1/1 agree\n", f"verify printed {text!r}")
            return
        cc = self.categories[(family, rank, orientation)]
        if verb == "classify":
            lines = text.splitlines()
            summands = [int(c) for c in lines[0].split()[1].split(",")]
            rows = [line.split() for line in lines[2:-1]]
            counts = check_classes(cc, rank, summands,
                                   {int(c): pd for c, _dv, pd in rows})
            require(lines[-1] == f"pd 0: {counts['0']}  pd 1: {counts['1']}  "
                                 f"pd inf: {counts['inf']}",
                    f"classify summary {lines[-1]!r} miscounts its rows")
        else:
            doc = json.loads(text)
            summands = doc["meta"]["tilting"]
            counts = check_document(doc, cc, rank, summands)
        require(len(summands) == rank, f"tilting {summands} has the wrong size")
        quiver = mutated_quiver(orientation_arrows(family, rank, orientation),
                                rank, word)
        require((counts["inf"] > 0) == has_oriented_cycle(quiver),
                f"infinite class and mutated quiver disagree on {arg[0]}")
        if family == "A" and orientation == "linear":
            self.check_polygon(cc, rank, summands, word)

    @staticmethod
    def check_polygon(cc, rank, summands, word):
        diags = [diagonal(rank, cc.indecs[c].kind, cc.indecs[c].dim,
                          cc.indecs[c].vertex) for c in summands]
        require(not any(crosses(d, e) for k, d in enumerate(diags)
                        for e in diags[k + 1:]),
                f"tilting {summands} has crossing diagonals")
        flipped = flipped_triangulation(rank, word)
        require(diags == [flipped[k] for k in range(1, rank + 1)],
                f"tilting {summands} is not the flipped triangulation")

    def finish(self):
        pass


WORKLOADS = {w.name: w for w in (VerifyD7, ReportD6, CliCold)}
