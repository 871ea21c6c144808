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
engine consistency check failed, memory ran out, or any other unexpected
exception).  --seed affects listing order only; all math is exact.

The command line only parses: it checks its own strings and flag
combinations, and the library checks every value it is given (a quiver,
a tilting, a mutation label, a render spec).  Both raise InputError, the
library's one error type for bad input, which main reports with exit 2.
"""

import argparse
import functools
import os
import random
import sys

from . import presets
from .algebra import classify_modules
from .cluster import ClusterCategory
from .dynkin import InputError, build_quiver
from .hammocks import (
    hij,
    hij_closed_form,
    left_hammock,
    right_hammock,
    verify_main_theorem,
)
from .render import FORMATS, RenderSpec, render
from .tilting import (
    TiltingObject,
    check_tilting,
    enumerate_tiltings,
    initial_tilting,
    mutate,
    tilting_count,
)

# both names resolve to the least tilting the cycle-quiver locator finds
_QUIVER_PRESETS = ("d6-cycle", "paper-d6")


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
    return ClusterCategory(build_quiver(args.family, args.rank,
                                        _parse_orientation(args.orientation)))


def _preset_tilting(cc, name) -> TiltingObject:
    if name not in _QUIVER_PRESETS:
        raise InputError(f"unknown quiver preset {name!r}; "
                         f"known: {', '.join(_QUIVER_PRESETS)}")
    hits = presets.find_cycle_tiltings(cc)
    if not hits:
        raise InputError("no tilting in this category realizes the preset")
    return min(hits, key=lambda t: t.summands)


def _mutate_along(cc, t, word):
    """t and each tilting after it along the comma-separated label word."""
    walk = [t]
    for chunk in word.split(",") if word else []:
        try:
            k = int(chunk)
        except ValueError:
            raise InputError(f"bad mutation label {chunk!r}") from None
        walk.append(mutate(cc, walk[-1], k))
    return walk


def _resolve_tilting(cc, text) -> TiltingObject:
    if text.startswith("@mutations:"):
        return _mutate_along(cc, initial_tilting(cc),
                              text[len("@mutations:"):])[-1]
    if text.startswith("@find-quiver:"):
        return _preset_tilting(cc, text[len("@find-quiver:"):])
    try:
        cids = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise InputError(f"bad tilting spec {text!r}") from None
    check_tilting(cc, cids)
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
        f"cluster-tilting objects "
        f"{tilting_count(cc.quiver.family, cc.quiver.rank)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_tiltings(args) -> int:
    cc = _build_category(args)
    if args.word and not args.mutate_from:
        raise InputError("--word needs --mutate-from")
    if args.mutate_from:
        walk = _mutate_along(cc, _resolve_tilting(cc, args.mutate_from),
                              args.word)
        lines = [_fmt_tilting(t) for t in walk]
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
    for m, (dims, _syzygies, pd) in classify_modules(cc, t).items():
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
        lines.append(f"H_{i} = {sorted(left_hammock(cc, t, i))}")
    for j in range(1, cc.n + 1):
        lines.append(f"_{j}H = {sorted(right_hammock(cc, t, j))}")
    for i in range(1, cc.n + 1):
        for j in range(1, cc.n + 1):
            shape = hij_closed_form(cc, t, i, j).shape
            lines.append(f"H({i},{j}) {shape} {sorted(hij(cc, t, i, j))}")
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
        for m, ideal, pd in first_bad.disagreements():
            lines.append(f"module {m}: I_M {'nonzero' if ideal else 'zero'}"
                         f", pd {pd}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if good == len(tiltings) else 1


def _parse_highlight(specs):
    """(i, j, color) per i:j:color spec; RenderSpec checks the values."""
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
    spec = RenderSpec(args.format, highlight=highlight, tilting=t)
    _emit(render(cc, spec, orientation=args.orientation or "default"), args.out)
    return 0


@functools.cache
def _parser():
    """The argument parser, built once per process: a parse keeps its state
    in the namespace it returns, so every call of main can share it."""
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
    except Exception as e:
        # a failed consistency check, an exhausted resource or a bug: never
        # a traceback, and never the exit code of a disagreement
        what = f"{type(e).__name__}: {e}" if str(e) else type(e).__name__
        print(f"internal error: {what}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
