"""Spans and counts at the module boundaries of clustercat, from outside it.

install() replaces public functions and methods by wrappers that record a
span per call: its name, start, end and parent.  Self time is a span's
duration minus the time its child spans cover.  Functions are replaced in
every clustercat module namespace that holds them, so a call is seen however
the caller imported the name.  The linalg kernels are wrapped only under the
names that algebra and meshhom import, so linalg.calls counts calls into the
kernel layer, not calls inside it.  uninstall() puts every original back.

Counts are exact and repeat between runs; times are perf_counter
nanoseconds, which the run converts to reference units.
"""

import fractions
import sys
import time

# (module, function, span name)
FUNCTIONS = (
    ("clustercat.algebra", "module_of", "algebra.module_of"),
    ("clustercat.hammocks", "factorization_ideal_nonzero", "hammocks.ideal"),
    ("clustercat.hammocks", "hij", "hammocks.hij"),
    ("clustercat.hammocks", "hij_closed_form", "hammocks.closed_form"),
    ("clustercat.render", "export_json", "render.export"),
    ("clustercat.dynkin", "knit", "dynkin.knit"),
    ("clustercat.tilting", "enumerate_tiltings", "tilting.enumerate"),
    ("clustercat.tilting", "mutate", "tilting.mutate"),
    ("clustercat.cli", "main", "cli.main"),
)
# (module, class, method, span name)
METHODS = (
    ("clustercat.meshhom", "CoverFunctor", "__init__", "meshhom.functor_build"),
    ("clustercat.meshhom", "MeshHomEngine", "compose", "meshhom.compose"),
    ("clustercat.meshhom", "MeshHomEngine", "coords", "meshhom.coords"),
    ("clustercat.meshhom", "MeshHomEngine", "hom_basis", "meshhom.hom_basis"),
    ("clustercat.algebra", "ClusterTiltedAlgebra", "__init__", "algebra.build"),
    ("clustercat.algebra", "AlgebraModule", "syzygy", "algebra.syzygy"),
    ("clustercat.cluster", "ClusterCategory", "__init__", "cluster.build"),
)
LINALG_CALLERS = ("clustercat.algebra", "clustercat.meshhom")
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, total ns, self ns]
        self.counts = dict.fromkeys(
            ("meshhom.cover_vertices", "hammocks.witness_composes",
             "render.json_bytes", "fraction.created"), 0)
        self.spans = []  # (id, parent id, op, name, start ns, end ns)
        self.op = None
        self._stack = []  # [span id, child ns] per open span
        self._next_id = 0
        self._witness_depth = 0
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def open_op(self, op):
        """Open the root span of one operation; its self time is unattributed."""
        self.op = op
        self._stack.append([self._new_id(), 0])
        return time.perf_counter_ns()

    def close_op(self, start):
        self._close("op", start, time.perf_counter_ns())
        self.op = None

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def _close(self, name, start, end):
        sid, child = self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        parent = 0
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, self.op, name, start, end))

    def _wrap(self, name, fn, after=None):
        stack, new_id, close = self._stack, self._new_id, self._close
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append([new_id(), 0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, start, clock())
            if after is not None:
                after(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counts ----------------------------------------------------------------

    def _count_vertices(self, args, _result):
        self.counts["meshhom.cover_vertices"] += len(args[0].basis)

    def _count_compose(self, _args, _result):
        if self._witness_depth:
            self.counts["hammocks.witness_composes"] += 1

    def _count_bytes(self, _args, result):
        self.counts["render.json_bytes"] += len(result.encode("utf-8"))

    def _witness(self, fn):
        def witness(*args):
            self._witness_depth += 1
            try:
                return fn(*args)
            finally:
                self._witness_depth -= 1

        return witness

    def _fraction_new(self):
        orig = fractions.Fraction.__dict__["__new__"].__func__
        counts = self.counts

        def new(cls, *args, **kwargs):
            counts["fraction.created"] += 1
            return orig(cls, *args, **kwargs)

        return staticmethod(new)

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every boundary; call uninstall() before running other code."""
        mods = {k: m for k, m in sys.modules.items()
                if k == "clustercat" or k.startswith("clustercat.")}
        after = {"meshhom.functor_build": self._count_vertices,
                 "meshhom.compose": self._count_compose,
                 "render.export": self._count_bytes}
        for mod, attr, name in FUNCTIONS:
            if mod not in mods:  # never imported, so never called
                continue
            orig = getattr(mods[mod], attr)
            wrapped = self._wrap(name, orig, after.get(name))
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        for mod, cls, attr, name in METHODS:
            owner = getattr(mods[mod], cls)
            self._set(owner, attr,
                      self._wrap(name, owner.__dict__[attr], after.get(name)))
        hammocks = mods["clustercat.hammocks"]
        self._set(hammocks, "_pairing_witness",
                  self._witness(hammocks._pairing_witness))
        for mod in LINALG_CALLERS:
            m = mods[mod]
            for key, val in list(vars(m).items()):
                if getattr(val, "__module__", None) == "clustercat.linalg" \
                        and callable(val):
                    self._set(m, key, self._wrap("linalg", val))
        self._set(fractions.Fraction, "__new__", self._fraction_new())

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
