"""Command-line front end: file ingestion, JSON reporting, preset runner.

JSON output is deterministic: fixed key order, rationals rendered as
canonical strings ("p/q" with positive denominator, plain "p" for
integers).  Exit codes: 0 success, 1 internal error, 2 validation or
precondition failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import engine, invhoms, transgression
from .brooks import (BIG, LITTLE, CountingQM, DefectCertificate,
                     bavard_lower_bound, defect_lower_bound, homogenize_eval,
                     qm_eval)
from .engine import DimensionReport, PreconditionError
from .magnus import InvariantHom, wedge_class
from .quotients import free_quotient, surface_quotient
from .words import (FreeWord, Presentation, WordSyntaxError,
                    parse_presentation, parse_word, render)

SCHEMA_VERSION = 1


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


def rat_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}: {exc}") from exc


def emit(obj, json_mode: bool, lines) -> None:
    if json_mode:
        print(json.dumps(obj, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def load_matrix(spec_text: str) -> list[list[int]]:
    """Inline JSON array-of-arrays, or a path to a JSON file.  Entries are
    integers, or strings of integral rationals such as "4/2"."""
    text = spec_text.strip()
    if not text.startswith("["):
        path = Path(text)
        if not path.exists():
            raise CliError(f"matrix file not found: {text}")
        text = path.read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"bad matrix JSON: {exc}") from exc
    if (not isinstance(raw, list)
            or not all(isinstance(row, list) for row in raw)):
        raise CliError("matrix must be a JSON array of arrays")
    return [[_matrix_entry(x, i, j) for j, x in enumerate(row, start=1)]
            for i, row in enumerate(raw, start=1)]


def _matrix_entry(x, i: int, j: int) -> int:
    """An int, or a string naming an integral rational; anything else,
    floats and booleans included, is refused."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            value = Fraction(x)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is not None and value.denominator == 1:
            return value.numerator
    raise CliError(f"matrix entry {json.dumps(x)} at row {i}, column {j} "
                   "is not an integer")


def load_presentation(path_text: str) -> Presentation:
    path = Path(path_text)
    if not path.exists():
        raise CliError(f"presentation file not found: {path_text}")
    try:
        return parse_presentation(path.read_text())
    except WordSyntaxError as exc:
        raise CliError(f"{path_text}: {exc}") from exc


def report_json(report: DimensionReport) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "dims": {
            "q_mod_ext": {"value": report.dim_q_mod_extendable.value,
                          "status": report.dim_q_mod_extendable.status},
            "q_mod_h1_ext": {
                "value": report.dim_q_mod_h1_and_extendable.value,
                "status": report.dim_q_mod_h1_and_extendable.status},
        },
        "h1NG": report.dim_h1NG,
        "h2Gamma": report.dim_h2_Gamma,
    }
    if report.dim_h2_G is not None:
        out["h2G"] = report.dim_h2_G
    out["provenance"] = list(report.provenance)
    return out


def report_lines(report: DimensionReport) -> list[str]:
    first = report.dim_q_mod_extendable
    second = report.dim_q_mod_h1_and_extendable
    lines = [
        f"dim Q(N)^G / i*Q(G)              = {first.value} [{first.status}]",
        f"dim Q(N)^G / (H1(N)^G + i*Q(G))  = {second.value} [{second.status}]",
        f"dim H1(N)^G                      = "
        f"{report.dim_h1NG if report.dim_h1NG is not None else 'n/a'}",
        f"dim H2(Gamma)                    = {report.dim_h2_Gamma}",
    ]
    if report.dim_h2_G is not None:
        lines.append(f"dim H2(G)                        = {report.dim_h2_G}")
    for p in report.provenance:
        lines.append(f"note: {p}")
    return lines


def _refuse_unread(args, command: str, options) -> None:
    """Refuse any of the given options, none of which `command` reads."""
    for option in options:
        value = getattr(args, option.replace("-", "_"))
        if value is not None and value is not False:
            raise CliError(f"{command} does not take --{option}")


def split_names(text: str) -> list[str]:
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise CliError("empty generator list")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise CliError(f"generator name {name!r} given twice")
    return names


def parse_letterwise(text: str, names: list[str]) -> FreeWord:
    """Parse 'abAB' style words (one letter per generator), falling back to
    the full word grammar."""
    rank = len(names)
    if text and all(c.isalpha() for c in text):
        letters = []
        ok = True
        for c in text:
            if c in names:
                letters.append(names.index(c) + 1)
            elif c.lower() in names and c.isupper():
                letters.append(-(names.index(c.lower()) + 1))
            else:
                ok = False
                break
        if ok:
            return FreeWord(rank, tuple(letters))
    try:
        return parse_word(text, names)
    except WordSyntaxError as exc:
        raise CliError(str(exc)) from exc


def parse_terms(text: str, names: list[str]) -> tuple:
    terms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise CliError(f"bad term {chunk!r}: expected word:coefficient")
        word_text, coeff_text = chunk.rsplit(":", 1)
        terms.append((parse_letterwise(word_text.strip(), names),
                      parse_rational(coeff_text.strip())))
    if not terms:
        raise CliError("no terms given")
    return tuple(terms)


# --- subcommands ------------------------------------------------------------

def cmd_analyze(args) -> int:
    P = load_presentation(args.presentation)
    report = engine.analyze_presentation(
        P, assert_hyperbolic=args.assert_hyperbolic)
    emit(report_json(report), args.json, report_lines(report))
    return 0


# the options each preset reads, and the engine.preset keyword each fills
PRESET_OPTIONS = {
    "free": {"rank": "n"},
    "surface": {"genus": "l"},
    "torelli_torus": {"genus": "l"},
    "free_torus": {"matrix": "A"},
    "one_relator_power": {"rank": "n", "power": "k"},
    "remark_group": {"count": "k"},
    "circle_bundle": {"genus": "l", "euler": "k"},
}


def cmd_preset(args) -> int:
    used = PRESET_OPTIONS[args.name]
    options = ("genus", "rank", "power", "count", "euler", "matrix")
    _refuse_unread(args, f"preset {args.name}",
                   [option for option in options if option not in used])
    kwargs = {}
    for option, key in used.items():
        value = getattr(args, option)
        if value is not None:
            kwargs[key] = load_matrix(value) if option == "matrix" else value
    try:
        report = engine.preset(args.name, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    emit(report_json(report), args.json, report_lines(report))
    return 0


def cmd_torus(args) -> int:
    _refuse_unread(args, f"torus --shape {args.shape}",
                   ("rank", "assert-atoroidal") if args.shape == "surface"
                   else ("genus",))
    A = load_matrix(args.matrix)
    try:
        if args.shape == "surface":
            if args.genus is None:
                raise CliError("--shape surface needs --genus")
            q = surface_quotient(args.genus, A,
                                 hyperbolicity_asserted=args.assert_hyperbolic)
            report = engine.analyze_mapping_torus(q)
        else:
            rank = args.rank if args.rank is not None else len(A)
            q = free_quotient(rank, A,
                              hyperbolicity_asserted=args.assert_atoroidal
                              or args.assert_hyperbolic)
            report = engine.analyze_free_by_cyclic(q)
    except (PreconditionError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    emit(report_json(report), args.json, report_lines(report))
    return 0


def cmd_invhoms(args) -> int:
    P = load_presentation(args.presentation)
    W = invhoms.constraint_space(P)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "dim": len(W.homs),
        "basis": [[[i, j, rat_str(c)] for i, j, c in phi.pairs() if c != 0]
                  for phi in W.homs],
        "constraints": [[[i, j, rat_str(c)] for i, j, c in v.pairs()
                         if c != 0] for v in W.basis],
    }
    lines = [f"dim H1(N)^G = {len(W.homs)}",
             f"dim constraint space = {W.dim}"]
    emit(obj, args.json, lines)
    return 0


def cmd_wedge(args) -> int:
    names = split_names(args.gens)
    try:
        w = parse_word(args.word, names)
    except WordSyntaxError as exc:
        raise CliError(str(exc)) from exc
    try:
        v = wedge_class(w)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    obj = {"schema_version": SCHEMA_VERSION,
           "pairs": [[i, j, rat_str(c)] for i, j, c in v.pairs() if c != 0]}
    lines = [f"e{i}^e{j}: {rat_str(c)}" for i, j, c in v.pairs() if c != 0]
    emit(obj, args.json, lines or ["0"])
    return 0


def cmd_transgress(args) -> int:
    if args.cup_matrix:
        _refuse_unread(args, "transgress --cup-matrix", ("pairs",))
    try:
        i_text, j_text = args.hom.split(",")
        i, j = int(i_text), int(j_text)
    except ValueError as exc:
        raise CliError(f"--hom must be 'i,j': {exc}") from exc
    if args.rank is None:
        raise CliError("--rank is required")
    try:
        f = InvariantHom.alpha(args.rank, i, j)
    except IndexError as exc:
        raise CliError(str(exc)) from exc
    if args.cup_matrix:
        M = transgression.cup_class_matrix(f)
        obj = {"schema_version": SCHEMA_VERSION,
               "cup_matrix": [[rat_str(x) for x in row] for row in M]}
        emit(obj, args.json, [" ".join(rat_str(x) for x in row) for row in M])
        return 0
    if args.pairs is None:
        raise CliError("need --pairs or --cup-matrix")
    path = Path(args.pairs)
    if not path.exists():
        raise CliError(f"pairs file not found: {args.pairs}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"bad pairs JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise CliError("pairs must be a JSON array of [g1, g2] entries")
    t = transgression.Transgressor(f)
    results = []
    for k, entry in enumerate(raw, start=1):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(g, list) and len(g) == args.rank
                           for g in entry)):
            raise CliError(f"pair {k} must be two vectors of length --rank")
        try:
            g1, g2 = ([_matrix_entry(x, i, j) for j, x in enumerate(g, 1)]
                      for i, g in enumerate(entry, 1))
        except CliError as exc:
            raise CliError(f"pair {k}: {exc}") from exc
        results.append({"g1": g1, "g2": g2, "value": rat_str(t(g1, g2))})
    obj = {"schema_version": SCHEMA_VERSION, "values": results}
    emit(obj, args.json,
         [f"{r['g1']} {r['g2']} -> {r['value']}" for r in results])
    return 0


def _checked(fn, *args):
    """Call a library function whose ValueError reports invalid input."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_qm(args) -> int:
    if args.action != "bavard":
        unread = "word" if args.action == "defect" else "maxlen"
        _refuse_unread(args, f"qm {args.action}", ("defect-upper", unread))
    elif args.defect_upper is not None:
        _refuse_unread(args, "qm bavard --defect-upper", ("maxlen",))
    max_len = 2 if args.maxlen is None else args.maxlen
    names = split_names(args.gens)
    f = _checked(CountingQM, len(names), parse_terms(args.terms, names),
                 args.mode)
    if args.action in ("eval", "homog"):
        x = parse_letterwise(_require_word(args), names)
        value = (qm_eval if args.action == "eval" else homogenize_eval)(f, x)
        emit({"schema_version": SCHEMA_VERSION, "value": rat_str(value)},
             args.json, [rat_str(value)])
        return 0
    if args.action == "defect":
        cert = _checked(defect_lower_bound, f, max_len)
        x, y = cert.witness
        obj = {"schema_version": SCHEMA_VERSION,
               "bound": rat_str(cert.bound), "kind": cert.kind,
               "witness": [render(x, names), render(y, names)],
               "provenance": cert.provenance}
        emit(obj, args.json,
             [f"defect >= {rat_str(cert.bound)} "
              f"(witness x={render(x, names)!r}, y={render(y, names)!r})"])
        return 0
    if args.action == "bavard":
        x = parse_letterwise(_require_word(args), names)
        if args.defect_upper is None:
            cert = _checked(defect_lower_bound, f, max_len)
            value = homogenize_eval(f, x)
            bound = (abs(value) / (2 * cert.bound)
                     if cert.bound > 0 else Fraction(0))
            label = "indicative - not a certified bound"
        else:
            upper = DefectCertificate(parse_rational(args.defect_upper),
                                      "upper", provenance="user supplied")
            bound = _checked(bavard_lower_bound, f, x, upper)
            label = ("certified lower bound given the supplied defect "
                     "certificate")
        obj = {"schema_version": SCHEMA_VERSION, "bound": rat_str(bound),
               "label": label}
        emit(obj, args.json, [f"scl lower bound {rat_str(bound)} ({label})"])
        return 0
    raise CliError(f"unknown qm action {args.action!r}")


def _require_word(args) -> str:
    if args.word is None:
        raise CliError("this action needs --word")
    return args.word


# --- argument parsing -------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call; subcommand `x` runs `cmd_x`."""
    parser = argparse.ArgumentParser(
        prog="invqm",
        description="Exact dimension computations for spaces of "
                    "non-extendable invariant quasimorphisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit a single JSON object")

    p = sub.add_parser("analyze", help="analyze a presentation file")
    p.add_argument("presentation")
    p.add_argument("--assert-hyperbolic", action="store_true")
    add_json(p)

    p = sub.add_parser("preset", help="run a named standard instance")
    p.add_argument("name", choices=engine.PRESET_NAMES)
    p.add_argument("--genus", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--power", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--euler", type=int)
    p.add_argument("--matrix")
    add_json(p)

    p = sub.add_parser("torus", help="analyze a semidirect-product quotient")
    p.add_argument("--shape", choices=["surface", "free"], required=True)
    p.add_argument("--genus", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--matrix", required=True)
    p.add_argument("--assert-hyperbolic", action="store_true")
    p.add_argument("--assert-atoroidal", action="store_true")
    add_json(p)

    p = sub.add_parser("invhoms",
                       help="invariant homomorphisms of a presentation")
    p.add_argument("presentation")
    add_json(p)

    p = sub.add_parser("wedge", help="wedge class of a word")
    p.add_argument("word")
    p.add_argument("--gens", required=True)
    add_json(p)

    p = sub.add_parser("transgress",
                       help="transgressed 2-cocycle of a basis functional")
    p.add_argument("--hom", required=True, help="i,j")
    p.add_argument("--rank", type=int)
    p.add_argument("--pairs")
    p.add_argument("--cup-matrix", action="store_true")
    add_json(p)

    p = sub.add_parser("qm", help="counting quasimorphism toolkit")
    p.add_argument("action", choices=["eval", "homog", "defect", "bavard"])
    p.add_argument("--terms", required=True, help="e.g. 'ab:1,ba:-1'")
    p.add_argument("--gens", required=True)
    p.add_argument("--mode", choices=[BIG, LITTLE], default=BIG)
    p.add_argument("--word")
    p.add_argument("--maxlen", type=int, help="default 2")
    p.add_argument("--kmax", type=int,
                   help="no effect: homogenization is exact; accepted so "
                        "that older command lines still run")
    p.add_argument("--defect-upper")
    add_json(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # by name on each call, so a cmd_* function replaced after the
        # shared parser was built still takes effect
        return globals()[f"cmd_{args.command}"](args)
    except (CliError, WordSyntaxError, PreconditionError) as exc:
        print(f"invqm: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # pragma: no cover - internal errors
        print(f"invqm: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
