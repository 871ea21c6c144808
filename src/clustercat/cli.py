"""Command line front end.

Subcommands:
  build     category statistics for a chosen quiver
  tiltings  enumerate cluster-tilting objects, or walk a mutation word
  classify  projective dimension table over one tilting
  hammocks  hammock supports and shapes over one tilting
  verify    factorization-vs-syzygy agreement over one or all tiltings
  render    diagram emission (dot, tikz, json, ascii)

The tilting argument accepts comma-separated cids, "@mutations:k1,k2,..."
(a mutation word applied to the initial tilting), or "@find-quiver:<name>"
for a named preset.  Exit codes: 0 success, 1 verification disagreement,
2 invalid input (including an unwritable --out), 3 internal error (an
engine consistency check failed).  --seed affects listing order only; all
math is exact.
"""

import argparse
import os
import random
import sys

from . import presets
from .algebra import PdClass, classify_modules
from .cluster import ClusterCategory, MeshConsistencyError
from .dynkin import build_quiver
from .hammocks import (
    UnclassifiableShapeError,
    hij,
    left_hammock,
    right_hammock,
    verify_main_theorem,
)
from .render import FORMATS, RenderSpec, render
from .tilting import (
    TiltingObject,
    enumerate_tiltings,
    first_ext_violation,
    initial_tilting,
    mutate,
)

# both names resolve to the same frozen D6 representative
_QUIVER_PRESETS = ("d6-cycle", "paper-d6")


class InputError(ValueError):
    """Bad command-line input; reported on stderr with exit code 2."""


def _parse_orientation(text):
    if text in (None, "default", "linear", "fork"):
        return text or "default"
    if text.startswith("custom:"):
        arrows = []
        for chunk in text[len("custom:"):].split(","):
            s, _, t = chunk.partition("-")
            try:
                arrows.append((int(s), int(t)))
            except ValueError:
                raise InputError(f"bad arrow {chunk!r} in {text!r}") from None
        if not arrows:
            raise InputError("custom orientation lists no arrows")
        return tuple(arrows)
    raise InputError(f"unknown orientation {text!r}")


def _build_category(args) -> ClusterCategory:
    try:
        q = build_quiver(args.family, args.rank,
                         _parse_orientation(args.orientation))
    except ValueError as e:
        raise InputError(str(e)) from None
    return ClusterCategory(q)


def _preset_tilting(cc, name) -> TiltingObject:
    if name not in _QUIVER_PRESETS:
        raise InputError(f"unknown quiver preset {name!r}; "
                         f"known: {', '.join(_QUIVER_PRESETS)}")
    try:
        if cc.quiver.arrows == build_quiver("D", 6).arrows:
            return presets.cycle_d6_tilting(cc)
        hits = presets.find_cycle_tiltings(cc)
    except ValueError as e:
        raise InputError(str(e)) from None
    if not hits:
        raise InputError("no tilting in this category realizes the preset")
    return min(hits, key=lambda t: t.summands)


def _resolve_tilting(cc, text) -> TiltingObject:
    if text.startswith("@mutations:"):
        t = initial_tilting(cc)
        word = text[len("@mutations:"):]
        for chunk in word.split(",") if word else []:
            try:
                k = int(chunk)
            except ValueError:
                raise InputError(f"bad mutation label {chunk!r}") from None
            try:
                t = mutate(cc, t, k)
            except ValueError as e:
                raise InputError(str(e)) from None
        return t
    if text.startswith("@find-quiver:"):
        return _preset_tilting(cc, text[len("@find-quiver:"):])
    try:
        cids = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise InputError(f"bad tilting spec {text!r}") from None
    if len(cids) != cc.n or len(set(cids)) != cc.n:
        raise InputError(
            f"a tilting here has {cc.n} distinct summands, got {cids}")
    if not all(0 <= c < len(cc.indecs) for c in cids):
        raise InputError(f"cid out of range in {cids}")
    bad = first_ext_violation(cc, cids)
    if bad is not None:
        raise InputError(f"not a cluster-tilting object: "
                         f"Ext^1({bad[0]}, {bad[1]}) != 0")
    return TiltingObject(cids)


def _check_out(out_path):
    """Reject an --out path that cannot be written, before any work is done."""
    if os.path.isdir(out_path):
        raise InputError(f"--out {out_path!r} is a directory")
    parent = os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(parent):
        raise InputError(f"--out {out_path!r}: no such directory {parent!r}")
    target = out_path if os.path.exists(out_path) else parent
    if not os.access(target, os.W_OK):
        raise InputError(f"--out {out_path!r} is not writable")


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write --out {out_path!r}: "
                             f"{e.strerror or e}") from None
    else:
        sys.stdout.write(text)


def _ordered(items, seed):
    items = list(items)
    if seed is not None:
        random.Random(seed).shuffle(items)
    return items


def _fmt_tilting(t: TiltingObject) -> str:
    return ",".join(str(c) for c in t.summands)


def _cmd_build(args) -> int:
    cc = _build_category(args)
    lines = [
        f"family {cc.quiver.family}{cc.quiver.rank}",
        "arrows " + "; ".join(f"{s}->{t}" for s, t in cc.quiver.arrows),
        f"indecomposables {len(cc.indecs)} "
        f"({len(cc.indecs) - cc.n} modules + {cc.n} shifted projectives)",
        f"winding {cc.winding}",
        f"mesh arrows {len(cc.arrows())}",
        f"cluster-tilting objects {len(enumerate_tiltings(cc))}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_tiltings(args) -> int:
    cc = _build_category(args)
    if args.word and not args.mutate_from:
        raise InputError("--word needs --mutate-from")
    if args.mutate_from:
        t = _resolve_tilting(cc, args.mutate_from)
        lines = [_fmt_tilting(t)]
        for chunk in args.word.split(",") if args.word else []:
            try:
                t = mutate(cc, t, int(chunk))
            except ValueError as e:
                raise InputError(str(e)) from None
            lines.append(_fmt_tilting(t))
    else:
        lines = [_fmt_tilting(t)
                 for t in _ordered(enumerate_tiltings(cc), args.seed)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_classify(args) -> int:
    cc = _build_category(args)
    t = _resolve_tilting(cc, args.tilting)
    lines = [f"tilting {_fmt_tilting(t)}",
             "cid  dim_vector  pd"]
    counts = {"0": 0, "1": 0, "inf": 0}
    for m, dims, _syzygies, pd in classify_modules(cc, t):
        dv = "".join(str(d) for d in dims)
        counts[pd.value] += 1
        lines.append(f"{m:<4} {dv:<11} {pd.value}")
    lines.append(f"pd 0: {counts['0']}  pd 1: {counts['1']}  "
                 f"pd inf: {counts['inf']}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_hammocks(args) -> int:
    cc = _build_category(args)
    t = _resolve_tilting(cc, args.tilting)
    lines = [f"tilting {_fmt_tilting(t)}"]
    for i in range(1, cc.n + 1):
        lines.append(f"H_{i} = {sorted(left_hammock(cc, t, i).vertices)}")
    for j in range(1, cc.n + 1):
        lines.append(f"_{j}H = {sorted(right_hammock(cc, t, j).vertices)}")
    for i in range(1, cc.n + 1):
        for j in range(1, cc.n + 1):
            h = hij(cc, t, i, j)
            shape = str(h.shape) if h.shape is not None else "unclassified"
            lines.append(f"H({i},{j}) {shape} {sorted(h.vertices)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    cc = _build_category(args)
    if args.all_tiltings:
        tiltings = _ordered(enumerate_tiltings(cc), args.seed)
    elif args.tilting:
        tiltings = [_resolve_tilting(cc, args.tilting)]
    else:
        raise InputError("verify needs --tilting or --all-tiltings")
    good = 0
    first_bad = None
    for t in tiltings:
        report = verify_main_theorem(cc, t)
        if report.agreement:
            good += 1
        elif first_bad is None:
            first_bad = report
    lines = [f"{good}/{len(tiltings)} agree"]
    if first_bad is not None:
        lines.append("first disagreement at tilting "
                     + _fmt_tilting(first_bad.tilting))
        for m, ideal, pd in first_bad.rows:
            if ideal != (pd is PdClass.INFINITE):
                lines.append(f"module {m}: I_M {'nonzero' if ideal else 'zero'}"
                             f", pd {pd}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if good == len(tiltings) else 1


def _parse_highlight(specs):
    triples = []
    for spec in specs or []:
        parts = spec.split(":")
        if len(parts) != 3:
            raise InputError(f"bad highlight {spec!r}, expected i:j:color")
        try:
            triples.append((int(parts[0]), int(parts[1]), parts[2]))
        except ValueError:
            raise InputError(f"bad highlight {spec!r}") from None
    return tuple(triples)


def _cmd_render(args) -> int:
    cc = _build_category(args)
    t = _resolve_tilting(cc, args.tilting) if args.tilting else None
    highlight = _parse_highlight(args.highlight)
    if args.format == "json" and t is None:
        raise InputError("json output needs --tilting")
    if highlight and t is None:
        raise InputError("--highlight needs --tilting")
    for i, j, _color in highlight:
        if not (1 <= i <= cc.n and 1 <= j <= cc.n):
            raise InputError(f"highlight labels {i}:{j} out of range; "
                             f"summands are labelled 1..{cc.n}")
    spec = RenderSpec(args.format, highlight=highlight, tilting=t)
    _emit(render(cc, spec, orientation=args.orientation or "default"), args.out)
    return 0


def _parser():
    top = argparse.ArgumentParser(
        prog="clustercat",
        description="exact cluster-category engine for Dynkin types A and D")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", choices=("A", "D"), required=True)
    common.add_argument("--rank", type=int, required=True)
    common.add_argument("--orientation", default="default",
                        help="default | linear | fork | custom:1-2,3-2,...")
    common.add_argument("--seed", type=int, default=None,
                        help="listing order only; results are deterministic")
    common.add_argument("--out", default=None, help="write output to a file")
    tilt = argparse.ArgumentParser(add_help=False)
    tilt.add_argument("--tilting", required=True,
                      help="cids | @mutations:k1,k2,... | @find-quiver:<name>")

    sub = top.add_subparsers(dest="command", required=True)
    sub.add_parser("build", parents=[common])
    p = sub.add_parser("tiltings", parents=[common])
    p.add_argument("--mutate-from", default=None,
                   help="starting tilting for a mutation walk")
    p.add_argument("--word", default=None,
                   help="comma-separated labels to mutate at, in order")
    sub.add_parser("classify", parents=[common, tilt])
    sub.add_parser("hammocks", parents=[common, tilt])
    p = sub.add_parser("verify", parents=[common])
    which = p.add_mutually_exclusive_group()
    which.add_argument("--tilting", default=None)
    which.add_argument("--all-tiltings", action="store_true")
    p = sub.add_parser("render", parents=[common])
    p.add_argument("--tilting", default=None)
    p.add_argument("--format", choices=FORMATS, default="dot")
    p.add_argument("--highlight", action="append", default=None,
                   metavar="I:J:COLOR",
                   help="color the modules of H(i,j); repeatable")
    return top


_COMMANDS = {
    "build": _cmd_build,
    "tiltings": _cmd_tiltings,
    "classify": _cmd_classify,
    "hammocks": _cmd_hammocks,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        if args.out:
            _check_out(args.out)
        return _COMMANDS[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MeshConsistencyError, UnclassifiableShapeError) as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
