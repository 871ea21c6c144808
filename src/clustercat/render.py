"""Diagram emitters and the JSON report document.

The AR quiver of the cluster category is drawn on a grid: column = height
of the vertex in the mesh walk, row = the diagram vertex heading the
tau-orbit (shifted projectives share the row of their projective).  Arrows
wrapping from the last column back to the first are drawn dashed.

Supported formats: DOT, TikZ, ASCII, and a JSON document that serializes a
full verification run (modules with pd classes and hammock memberships).
"""

import json
import re
import weakref
from dataclasses import dataclass

from .cluster import ClusterCategory, MeshConsistencyError, Table
from .dynkin import InputError, build_quiver
from .hammocks import _closed_form, verify_main_theorem
from .tilting import TiltingObject, check_tilting

FORMATS = ("dot", "tikz", "json", "ascii")


# a color is written into DOT and TikZ source as it is
_COLOR = re.compile(r"[A-Za-z0-9#!.]+")


@dataclass
class RenderSpec:
    """What render draws: the format, the (i, j, color) highlight triples,
    each coloring the modules of H(i,j) outside add T[1], and the tilting.

    Construction checks all of it, so no text is written for a bad spec:
    the format is one of FORMATS, each highlight is an (i, j, color)
    tuple or list, a color is letters, digits, #, ! and . only (a quote
    would end a DOT attribute early, an empty color writes fill=!30), JSON
    output and highlights have a tilting, and every label lies in
    1..len(tilting).  A bad spec raises InputError.  The tilting itself is
    checked by the writers, which have the category (check_tilting).
    """

    format: str = "dot"
    highlight: tuple = ()
    tilting: TiltingObject = None

    def __post_init__(self):
        if self.format not in FORMATS:
            raise InputError(
                "unknown format %r, expected one of %s" % (self.format, FORMATS)
            )
        if self.tilting is None and (self.format == "json" or self.highlight):
            raise InputError("JSON output and highlights need a tilting")
        for entry in self.highlight:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 3):
                raise InputError(f"bad highlight {entry!r}: expected an "
                                 "(i, j, color) triple")
            i, j, color = entry
            if not (isinstance(color, str) and _COLOR.fullmatch(color)):
                spec = f"{i}:{j}:{color}"
                raise InputError(f"bad highlight {spec!r}: a color is "
                                 "letters, digits, #, ! and . only")
            n = len(self.tilting)
            if not (type(i) is type(j) is int and 0 < i <= n and 0 < j <= n):
                raise InputError(f"highlight labels {i}:{j} out of range; "
                                 f"summands are labelled 1..{n}")


def _orbit_row(cc, c):
    """Strip row of a tau-orbit: the orbit of the module it contains."""
    cur = c
    for _ in range(len(cc.indecs)):
        ind = cc.indecs[cur]
        if ind.kind == "mod":
            return cc.mod.indecs[ind.mid].orbit
        cur = cc.tau[cur]
    raise MeshConsistencyError("tau-orbit without modules")


def _flip(cc, row):
    """The diagram symmetry; the strip wrap may act by it on rows."""
    n = cc.quiver.rank
    if cc.quiver.family == "A":
        return n + 1 - row
    if row in (n - 1, n):
        return 2 * n - 1 - row
    return row


def ar_layout(cc: ClusterCategory):
    """cid -> (column, row) grid positions.

    Column = mesh height, row = tau-orbit.  The wrap can identify rows
    across the seam (the type A strip is a Moebius band), so two objects
    may claim one cell; the later one moves to the flipped row if free,
    else to the nearest free row.  Columns never hold more objects than
    there are rows, so this always lands.
    """
    n = cc.quiver.rank
    pos = {}
    taken = set()
    for c in cc.cids():
        x, y = cc.height[c], _orbit_row(cc, c)
        if (x, y) in taken:
            options = [r for r in range(1, n + 1) if (x, r) not in taken]
            y = min(options,
                    key=lambda r: (r != _flip(cc, y), abs(r - y), r))
        taken.add((x, y))
        pos[c] = (x, y)
    return pos


def _vertex_label(cc, c):
    ind = cc.indecs[c]
    if ind.kind == "shift":
        return "P%d[1]" % ind.vertex
    return "".join(str(d) for d in ind.dim)


def _highlight_map(cc, spec: RenderSpec):
    """cid -> color from a RenderSpec's (i, j, color) highlight triples,
    once check_tilting has passed the spec's tilting, if it has one.

    H(i,j) is read from the category's hammock table at the shifted cids,
    as hij reads it, so the tilting is checked once per drawing."""
    colors = {}
    if spec.tilting is None:
        return colors
    check_tilting(cc, spec.tilting.summands)
    shifts = [cc.shift(s) for s in spec.tilting.summands]
    hammock, shifted = cc._get_engine().hammock, set(shifts)
    for i, j, color in spec.highlight:
        for c in sorted(hammock(shifts[i - 1], shifts[j - 1]) - shifted):
            colors.setdefault(c, color)
    return colors


def _wrapping(cc, x, y):
    return cc.height[y] != cc.height[x] + 1


def render_dot(cc: ClusterCategory, spec: RenderSpec = None) -> str:
    spec = spec or RenderSpec("dot")
    colors = _highlight_map(cc, spec)
    summands = set(spec.tilting.summands) if spec.tilting else set()
    out = ["digraph ar {", "  rankdir=LR;", "  node [shape=box];"]
    for c in cc.cids():
        attrs = ['label="%s"' % _vertex_label(cc, c)]
        if c in summands:
            attrs.append("peripheries=2")
        if c in colors:
            attrs.append("style=filled")
            attrs.append('fillcolor="%s"' % colors[c])
        out.append("  n%d [%s];" % (c, ", ".join(attrs)))
    for x, y in cc.arrows():
        if _wrapping(cc, x, y):
            out.append("  n%d -> n%d [style=dashed, constraint=false];" % (x, y))
        else:
            out.append("  n%d -> n%d;" % (x, y))
    out.append("}")
    return "\n".join(out) + "\n"


def render_tikz(cc: ClusterCategory, spec: RenderSpec = None) -> str:
    spec = spec or RenderSpec("tikz")
    colors = _highlight_map(cc, spec)
    summands = set(spec.tilting.summands) if spec.tilting else set()
    pos = ar_layout(cc)
    out = [
        "\\begin{tikzpicture}[x=1.4cm, y=1.1cm, every node/.style={font=\\small}]"
    ]
    for c in cc.cids():
        x, y = pos[c]
        styles = ["draw"]
        if c in summands:
            styles.append("double")
        if c in colors:
            styles.append("fill=%s!30" % colors[c])
        out.append(
            "  \\node[%s] (n%d) at (%d, %d) {$%s$};"
            % (", ".join(styles), c, x, -y, _vertex_label(cc, c))
        )
    for x, y in cc.arrows():
        style = "->, dashed" if _wrapping(cc, x, y) else "->"
        out.append("  \\draw[%s] (n%d) -- (n%d);" % (style, x, y))
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


def render_ascii(cc: ClusterCategory, spec: RenderSpec = None) -> str:
    """Grid of vertex labels, one row per tau-orbit, one column per height.

    Tilting summands are bracketed, highlighted vertices are starred.
    """
    spec = spec or RenderSpec("ascii")
    colors = _highlight_map(cc, spec)
    summands = set(spec.tilting.summands) if spec.tilting else set()
    pos = ar_layout(cc)
    rows = sorted({r for _c, (_x, r) in pos.items()})
    cols = sorted({x for _c, (x, _r) in pos.items()})
    cells = {}
    for c, (x, r) in pos.items():
        label = "%d:%s" % (c, _vertex_label(cc, c))
        if c in summands:
            label = "[%s]" % label
        if c in colors:
            label += "*"
        cells[(x, r)] = label
    width = max(len(v) for v in cells.values()) + 2
    lines = []
    for r in rows:
        lines.append(
            "".join(cells.get((x, r), "").ljust(width) for x in cols).rstrip()
        )
    legend = ["rows: tau-orbits by diagram vertex; cols: mesh heights"]
    if summands:
        legend.append("[x]: tilting summand")
    if colors:
        legend.append("x*: highlighted hammock module")
    return "\n".join(lines + legend) + "\n"


def _orientation_name(quiver) -> str:
    """"default", or the quiver's arrows as the CLI's custom:s-t,... string."""
    if quiver.arrows == build_quiver(quiver.family, quiver.rank).arrows:
        return "default"
    return "custom:" + ",".join(f"{s}-{t}" for s, t in quiver.arrows)


def _array(items, pad):
    """A JSON array of rendered items, one per line, closed at indent pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _ints(values, pad):
    return _array([str(v) for v in values], pad)


class _ExportText:
    """The text of one category's exports that no single tilting owns.

    pairs maps the cids (a, b) of (T_i[1], T_j[1]), as a * |cids| + b, to
    the "shape" and "vertices" members of H(i,j) and the close of its
    object, filled by export_json from the category's tables; dims maps a
    dimension vector to its array.  labels[k] gives, per label pair (i, j)
    of k summands in label order, the object's head up to its "i" and "j"
    members and the [i, j] array that fills in_hij.  All three are filled
    on first use; family and orientation are the meta strings.
    """

    __slots__ = ("pairs", "dims", "labels", "family", "orientation")

    def __init__(self, cc: ClusterCategory):
        self.pairs = {}
        self.dims = Table(lambda dv: _ints(dv, " " * 6))
        self.labels = Table(lambda k: [
            ('{\n      "i": %s,\n      "j": %s,\n      ' % (i, j),
             _ints((i, j), " " * 8))
            for i in range(1, k + 1) for j in range(1, k + 1)])
        self.family = json.dumps(cc.quiver.family)
        self.orientation = json.dumps(_orientation_name(cc.quiver))


# category -> its _ExportText; an entry is freed with its category
_TEXTS = weakref.WeakKeyDictionary()


def export_json(cc: ClusterCategory, tilting: TiltingObject,
                orientation: str | None = None) -> str:
    """Byte-stable JSON document for a verification run over one tilting.

    A view of the verify report: the memberships and vertex sets are its
    H(i,j) table, read once in label order, and the shapes are reads of the
    category's table of closed forms (hammocks._closed_form) at the shifted
    cids, the tilting checked once by the verify.
    meta.orientation is the given string, else _orientation_name(cc.quiver).

    The text is written directly, in the layout of
    json.dumps(doc, sort_keys=True, indent=2) plus a newline: keys in
    sorted order, two spaces per level, one array item per line and [] for
    an empty array.  The stdlib encoder is pure Python once it indents;
    only the two free strings, family and orientation, go through it, so
    their escaping is the stdlib's.

    H(i,j) and its shape depend only on the pair (T_i[1], T_j[1]), so the
    text of a pair, like that of a dimension vector, is rendered once per
    category and kept in its _ExportText; the closed form is read only for
    a pair not rendered yet, and a pair whose closed form raises keeps no
    text.
    """
    report = verify_main_theorem(cc, tilting)
    text = _TEXTS.get(cc)
    if text is None:
        text = _TEXTS[cc] = _ExportText(cc)
    pairs, dims, width = text.pairs, text.dims, len(cc.indecs)
    shifts = [cc.shift(s) for s in tilting.summands]
    p6 = " " * 6
    in_hij = {m: [] for m in report.modules}
    hammocks = []
    for (head, label), ((i, j), h) in zip(text.labels[len(shifts)],
                                           report.hij.items()):
        for m in h:
            if m in in_hij:
                in_hij[m].append(label)
        a, b = shifts[i - 1], shifts[j - 1]
        pair = pairs.get(key := a * width + b)
        if pair is None:
            pair = pairs[key] = (
                '"shape": "%s",\n      "vertices": %s\n    }'
                % (_closed_form(cc, a, b)[1], _ints(sorted(h), p6)))
        hammocks.append(head + pair)
    modules = []
    for m, (dv, _syzygies, pd) in report.modules.items():
        modules.append(
            '{\n      "cid": %s,\n      "dim_vector": %s,\n'
            '      "in_hij": %s,\n      "pd": "%s"\n    }'
            % (m, dims[dv], _array(in_hij[m], p6), pd.value))
    return (
        '{\n  "agreement": %s,\n  "hammocks": %s,\n  "meta": {\n'
        '    "family": %s,\n    "orientation": %s,\n    "rank": %s,\n'
        '    "tilting": %s\n  },\n  "modules": %s\n}\n'
        % ("true" if report.agreement else "false",
           _array(hammocks, "  "),
           text.family,
           json.dumps(orientation) if orientation else text.orientation,
           cc.quiver.rank,
           _ints(tilting.summands, "    "),
           _array(modules, "  ")))


def render(cc: ClusterCategory, spec: RenderSpec,
           orientation: str | None = None) -> str:
    if spec.format == "json":
        return export_json(cc, spec.tilting, orientation)
    writer = {"dot": render_dot, "tikz": render_tikz, "ascii": render_ascii}
    return writer[spec.format](cc, spec)
