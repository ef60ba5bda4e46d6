"""Command-line interface.

Subcommands: classify, verify, search, syn-dfa, witness.
Exit codes: 0 success, 1 predicate-verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import automaton as am
from . import classify as cl
from . import group as gr
from . import harness
from .perm import ParseError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _emit(doc: dict, out: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_classify(args) -> int:
    G = gr.parse_group_file(_read(args.groupfile))
    mode = cl.MODE_ALL if args.mode == "all" else cl.MODE_IDEMPOTENTS
    report = cl.classify(G, name=args.groupfile, mode=mode)
    _emit(report.to_dict(timings=args.timings), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    mode = cl.MODE_ALL if args.mode == "all" else cl.MODE_IDEMPOTENTS
    summary = harness.verify_theorems(args.max_degree, mode)
    _emit(summary.to_dict(), args.out)
    return EXIT_OK if summary.ok else EXIT_VERIFY_FAIL


def _parse_degrees(spec: str) -> range:
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return range(int(lo), int(hi) + 1)
        v = int(spec)
        return range(v, v + 1)
    except ValueError as exc:
        raise ParseError(f"bad degree range {spec!r} (expected A..B)") from exc


def _cmd_search(args) -> int:
    degrees = _parse_degrees(args.degrees)
    if args.resume and not args.out:
        raise ParseError("--resume needs --out, the records file to resume")
    try:
        skip = harness.completed_names(args.out) if args.resume else None
    except OSError as exc:
        raise ParseError(f"cannot read {args.out}: {exc}") from exc
    records = harness.search_strongly_sync_maximal(degrees, skip_names=skip)
    if args.out:
        try:
            count = harness.write_records(records, args.out, timings=args.timings)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {count} records to {args.out}")
    else:
        for rec in records:
            sys.stdout.write(json.dumps(rec.to_dict(args.timings), sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_syn_dfa(args) -> int:
    A = am.parse_automaton_file(_read(args.automatonfile))
    summary = am.minimal_syn_dfa(A)
    doc = {
        "schema": "syncprim-syndfa/1",
        "degree": A.degree,
        "letters": len(A.letters),
        "state_count": summary.state_count,
    }
    word = am.shortest_reset_word(A)
    doc["synchronizing"] = word is not None
    if word is not None:
        doc["reset_word"] = am.word_to_str(word)
        doc["reset_word_length"] = len(word)
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_witness(args) -> int:
    A = am.parse_automaton_file(_read(args.automatonfile))
    S = am.parse_set(args.set_s, A.degree)
    T = am.parse_set(args.set_t, A.degree)
    if len(S) < 2 or len(T) < 2:
        raise ParseError("both sets need at least 2 points")
    word = am.distinguish_witness(A, S, T)
    doc = {
        "schema": "syncprim-witness/1",
        "S": am.set_to_str(S),
        "T": am.set_to_str(T),
        "distinguishable": word is not None,
    }
    if word is not None:
        doc["word"] = am.word_to_str(word)
        doc["image_S"] = am.set_to_str(am.mask_to_set(A.apply_word_mask(am._set_to_mask(S), word)))
        doc["image_T"] = am.set_to_str(am.mask_to_set(A.apply_word_mask(am._set_to_mask(T), word)))
    _emit(doc, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncprim",
        description="Classify permutation groups and synchronizing automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, timings=False):
        p.add_argument("--out", help="write the JSON report to this path")
        if timings:
            p.add_argument("--timings", action="store_true", help="include wall-clock times in reports")

    p = sub.add_parser("classify", help="classify a permutation group from a .grp file")
    p.add_argument("groupfile")
    p.add_argument("--mode", choices=["idempotents", "all"], default="idempotents")
    common(p, timings=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run the theorem-verification battery")
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--mode", choices=["idempotents", "all"], default="idempotents")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search for strongly-sync-maximal separations")
    p.add_argument("--degrees", required=True, help="degree range, e.g. 3..5")
    p.add_argument("--resume", action="store_true", help="skip entries already in --out")
    common(p, timings=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("syn-dfa", help="minimal DFA size of Syn(A) and a shortest reset word")
    p.add_argument("automatonfile")
    common(p)
    p.set_defaults(func=_cmd_syn_dfa)

    p = sub.add_parser("witness", help="shortest word distinguishing two state subsets")
    p.add_argument("automatonfile")
    p.add_argument("set_s", metavar="S", help='e.g. "{0,1}"')
    p.add_argument("set_t", metavar="T", help='e.g. "{2,3}"')
    common(p)
    p.set_defaults(func=_cmd_witness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, am.DegreeCapError, gr.GroupTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
