"""Command-line entry point.

Every verb prints line-oriented, deterministic output; ``--machine``
switches report verbs to tab-separated key=value records.  Exit status is
0 on success/pass, 1 when a report contains a FAIL (or a confluence check
finds an unresolved peak), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FsPath

from . import casestudy, completion, invariant, obstruction, rewrite, ring, structure
from .core import (
    EMPTY,
    Presentation,
    RwlabError,
    ValidationError,
    Word,
    parse_presentation,
    word,
    word_str,
)
from .invariant import CtParams, CASE_STUDY_WEIGHTS


def _load_presentation(args) -> Presentation:
    if args.pres_file:
        try:
            return parse_presentation(FsPath(args.pres_file).read_text())
        except OSError as exc:
            raise RwlabError(f"cannot read {args.pres_file}: {exc}") from None
    return casestudy.preset(args.preset)


def _word_over(text: str, *presentations: Presentation) -> Word:
    """Parse a word and reject letters undeclared in any of the presentations."""
    w = word(text)
    for p in presentations:
        for letter in w:
            if letter not in p.alphabet:
                raise ValidationError(f"undeclared letter {letter}")
    return w


def _nonnegative_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _add_common(sub, preset_default="Qbar", machine=False):
    sub.add_argument("-p", "--pres-file", help="presentation file")
    sub.add_argument(
        "--preset",
        default=preset_default,
        choices=casestudy.PRESETS,
        help="built-in presentation (default %(default)s)",
    )
    if machine:
        _add_machine(sub)


def _add_machine(sub):
    sub.add_argument("--machine", action="store_true", help="tab-separated key=value output")


def _sign(text: str) -> int:
    if text in ("+1", "1", "+"):
        return 1
    if text in ("-1", "-"):
        return -1
    raise argparse.ArgumentTypeError(f"expected +1 or -1, got {text}")


def _add_slots(sub) -> None:
    """One flag per circuit parameter slot: words for w/w1/w2, ±1 for exponents."""
    kinds = dict.fromkeys(invariant.WORD_SLOTS, word)
    kinds.update(dict.fromkeys(invariant.EXPONENT_SLOTS, _sign))
    for slot in invariant.SLOTS:
        sub.add_argument(f"--{slot}", type=kinds.get(slot, str))


def _ct_params(args) -> CtParams:
    kwargs = {s: getattr(args, s) for s in invariant.SLOTS if getattr(args, s) is not None}
    for slot in invariant.REQUIRED_SLOTS[args.circuit]:
        if slot in invariant.WORD_SLOTS:
            kwargs.setdefault(slot, EMPTY)  # word slots default to the empty word
    return CtParams(args.circuit, **kwargs)


def _emit_report(report, args) -> int:
    lines = report.machine_lines() if args.machine else report.lines()
    print("\n".join(lines))
    return 0 if report.passed else 1


def _emit_scalar(args, key: str, value) -> int:
    print(f"{key}={value}" if args.machine else value)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rwlab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("reduce", help="normalize a word")
    _add_common(s, machine=True)
    s.add_argument("-w", "--word", required=True)
    s.add_argument("--trace", action="store_true", help="print one rewrite step per line")

    s = sub.add_parser("nf", help="enumerate normal forms")
    _add_common(s)
    s.add_argument("--max-len", type=_nonnegative_int, required=True)

    s = sub.add_parser("peaks", help="list critical peaks")
    _add_common(s)
    s.add_argument("--schema-bound", type=_nonnegative_int, default=0)

    s = sub.add_parser("confluence", help="resolve every critical peak")
    _add_common(s)
    s.add_argument("--schema-bound", type=_nonnegative_int, default=0)

    s = sub.add_parser("complete", help="bounded Knuth-Bendix completion")
    _add_common(s, preset_default="Q")
    s.add_argument("--max-rules", type=_nonnegative_int, default=50)
    s.add_argument("--max-lhs-len", type=_nonnegative_int, default=6)
    s.add_argument("--schema-bound", type=_nonnegative_int, default=2)

    s = sub.add_parser("equal", help="decide u = v over a complete system")
    _add_common(s, machine=True)
    s.add_argument("u")
    s.add_argument("v")

    s = sub.add_parser("phi", help="invariant of a critical circuit")
    s.add_argument("--circuit", required=True, choices=invariant.CT_FAMILIES)
    _add_slots(s)

    s = sub.add_parser("partial", help="the derivation of a free-group word")
    s.add_argument("-w", "--word", required=True)

    s = sub.add_parser("classify", help="H-class of a word")
    _add_common(s, machine=True)
    s.add_argument("-w", "--word", required=True)

    s = sub.add_parser("sigma", help="stabilizer congruence test")
    _add_common(s, machine=True)
    s.add_argument("w1")
    s.add_argument("w2")

    s = sub.add_parser("ball", help="distances within a Cayley ball")
    _add_common(s)
    s.add_argument("-w", "--word", default="", help="center (default the empty word)")
    s.add_argument("--radius", type=_nonnegative_int, required=True)

    s = sub.add_parser("dist", help="directed distance d(x, y)")
    _add_common(s, machine=True)
    s.add_argument("x")
    s.add_argument("y")
    s.add_argument("--radius", type=_nonnegative_int, required=True)

    s = sub.add_parser("isometry", help="compare two systems' Cayley balls")
    _add_common(s, preset_default="M4")
    s.add_argument("--preset2", default="N4", choices=casestudy.PRESETS)
    s.add_argument("--radius", type=_nonnegative_int, required=True)
    s.add_argument("-w", "--word", default="", help="ball center")

    s = sub.add_parser("hn", help="b-exponent membership test")
    _add_machine(s)
    s.add_argument("-w", "--word", required=True)

    s = sub.add_parser("witness", help="ring-verified witness construction")
    s.add_argument("--kind", required=True, choices=("commutator", "phi2x"))
    s.add_argument("--circuit", choices=invariant.CT_FAMILIES)
    _add_slots(s)

    s = sub.add_parser("verify", help="run a verification suite")
    _add_machine(s)
    s.add_argument(
        "suite", choices=("prop31", "figure2", "identities", "obstruction", "isometry")
    )
    s.add_argument("--max-len", type=_nonnegative_int, help="main sweep bound")
    s.add_argument("--radius", type=_nonnegative_int)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.verb == "reduce" and args.trace and args.machine:
        parser.error("reduce --trace takes no --machine")
    if hasattr(args, "preset"):  # every verb that takes --preset or -p
        p = _load_presentation(args)

    if args.verb == "reduce":
        w = _word_over(args.word, p)
        if args.trace:
            path = rewrite.reduction_path(w, p)
            for line in rewrite.trace_lines(path):
                print(line)
            print(word_str(path.tau))
            return 0
        return _emit_scalar(args, "nf", word_str(rewrite.normalize(w, p)))

    if args.verb == "nf":
        for w in rewrite.enumerate_normal_forms(p, args.max_len):
            print(word_str(w))
        return 0

    if args.verb == "peaks":
        for peak in completion.critical_peaks(p, args.schema_bound):
            print(peak.describe())
        return 0

    if args.verb == "confluence":
        confluent = True
        for _, res in completion.resolve_peaks(p, args.schema_bound):
            print(completion.resolution_line(res))
            confluent = confluent and not isinstance(res, completion.UnresolvedPeak)
        print(f"confluent: {'true' if confluent else 'false'}")
        return 0 if confluent else 1

    if args.verb == "complete":
        completed, report = completion.knuth_bendix(
            p, args.max_rules, args.max_lhs_len, args.schema_bound
        )
        for rule in report.added:
            print(f"added {rule}")
        print(f"status: {report.status}")
        print(f"rules: {len(completed.rules)}")
        return 0

    if args.verb == "equal":
        same = completion.word_problem_equal(_word_over(args.u, p), _word_over(args.v, p), p)
        return _emit_scalar(args, "equal", "true" if same else "false")

    if args.verb == "phi":
        params = _ct_params(args)
        ambient = casestudy.preset("P")
        value = invariant.phi_path(
            casestudy.build_ct_circuit(params), CASE_STUDY_WEIGHTS, ambient
        )
        print(ring.format_ring(value))
        return 0

    if args.verb == "partial":
        ambient = casestudy.preset("P")
        print(ring.format_ring(invariant.partial_derivation(word(args.word), ambient)))
        return 0

    if args.verb == "classify":
        return _emit_scalar(args, "hclass", structure.classify(_word_over(args.word, p), p))

    if args.verb == "sigma":
        same = structure.sigma_equal(_word_over(args.w1, p), _word_over(args.w2, p), p)
        return _emit_scalar(args, "sigma", "true" if same else "false")

    if args.verb == "ball":
        ball = structure.cayley_ball(p, _word_over(args.word, p), args.radius)
        for line in ball.dump_lines(p.ordering):
            print(line)
        return 0

    if args.verb == "dist":
        d = structure.d_A(p, _word_over(args.x, p), _word_over(args.y, p), args.radius)
        if args.machine:
            return _emit_scalar(args, "dist", d if d is not None else "unreachable")
        print(d if d is not None else f"unreachable within radius {args.radius}")
        return 0

    if args.verb == "isometry":
        p2 = casestudy.preset(args.preset2)
        result = structure.isometry_check(p, p2, args.radius, _word_over(args.word, p, p2))
        for line in result.lines():
            print(line)
        return 0 if result.passed else 1

    if args.verb == "hn":
        member = obstruction.hn_member(_word_over(args.word, casestudy.preset("P")))
        return _emit_scalar(args, "member", "true" if member else "false")

    if args.verb == "witness":
        ambient = casestudy.preset("P")
        if args.kind == "commutator":
            for flag in ("circuit",) + invariant.SLOTS:
                if flag not in ("w", "eps", "delta") and getattr(args, flag) is not None:
                    parser.error(f"commutator witness takes no --{flag}")
            if args.w is None or args.eps is None or args.delta is None:
                parser.error("commutator witness needs --w, --eps, --delta")
            w = obstruction.commutator_witness(args.w, args.eps, args.delta, ambient)
        else:
            if args.circuit is None:
                parser.error("phi2x witness needs --circuit")
            w = obstruction.phi_to_x_witness(_ct_params(args), ambient)
        for line in w.lines():
            print(line)
        return 0

    if args.verb == "verify":
        if args.max_len is not None and args.suite in ("obstruction", "isometry"):
            parser.error(f"verify {args.suite} takes no --max-len")
        if args.radius is not None and args.suite != "isometry":
            parser.error(f"verify {args.suite} takes no --radius")
        bound = () if args.max_len is None else (args.max_len,)  # else the suite's default
        if args.radius is not None:
            bound = (args.radius, min(3, args.radius))  # isometry: radius, h_radius
        return _emit_report(getattr(casestudy, f"verify_{args.suite}")(*bound), args)

    parser.error(f"unknown verb {args.verb}")
    return 2


def main(argv=None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
    except RwlabError as exc:  # ParseError too
        print(f"rwlab: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
