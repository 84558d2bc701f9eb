"""Command-line interface.

The seven subcommands and their arguments are described once, in
``COMMANDS``.  ``main`` reads a plain command line straight off that table
(``match``) and leaves the rest, help and usage errors included, to the
argparse parser ``build_parser`` makes from the same table.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141
(128 + SIGPIPE) when stdout is closed before the output is written.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import random
import sys
import types

from . import census, classify, closedform, girth, oracle
from .diagram import pd_from_json, pd_from_rep, pd_from_text, orient
from .laurent import (
    LaurentPoly,
    jones_from_bracket,
    jones_span_inclusive,
    jones_to_text,
    poly_to_text,
    slot_terms,
    terms_to_text,
)
from .record import Record, set_field
from .reps import Girth2Rep, Girth3Rep, parse_rep, template_crossings


def _read_pd(path: str):
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith(("{", "[")):
        return pd_from_json(text)
    return pd_from_text(text)


def _check_budget(args) -> None:
    if args.budget_crossings < 0:
        raise ValueError("the crossing budget is negative")


def cmd_eval(args) -> int:
    """Print one invariant of a representation, by closed form, by oracle,
    or by both with AGREE or DISAGREE (in JSON, an ``agree`` field).

    The oracle path refuses a template over ``--budget-crossings`` before
    writing it, by its crossing count read off the labels.  Otherwise it
    writes the template once, straight from the labels
    (``diagram.pd_from_rep``); the template carries its orientation
    (``diagram.PDCode``).  It then runs only the oracle its invariant
    needs: Fox calculus for ``conway`` (on knots; a link has no value),
    the state sum for the rest.  ``--method both`` on a knot whose closed
    Conway value is withheld, above ``oracle.CONWAY_CAP``, has nothing to
    compare: it is refused after the budget check, before Fox runs.
    """
    _check_budget(args)
    rep = parse_rep(args.rep)
    inv = classify.rep_invariants(rep) if args.method != "oracle" else None

    def closed_text() -> str:
        if args.invariant == "conway":
            return _conway_text(None if inv.conway is None else slot_terms(inv.conway, 0, 2))
        if args.invariant == "bracket":
            low, slots = inv.bracket()
            return terms_to_text(slot_terms(slots, low, 4), "A")
        if args.invariant == "span":
            return str(len(inv.jones))
        return terms_to_text(slot_terms(inv.jones, inv.low, 4), "t", 4)

    def oracle_text() -> str:
        n = template_crossings(rep)
        oracle.check_cap(n, args.budget_crossings)
        if (args.invariant == "conway" and inv is not None
                and inv.components == 1 and inv.conway is None):
            raise ValueError(
                f"{n} crossings exceeds CONWAY_CAP = {oracle.CONWAY_CAP}, the bound of "
                "the closed Conway table: --method both has no closed value to compare"
            )
        pd = pd_from_rep(rep)
        if args.invariant == "conway":
            return _conway_text(
                oracle.conway_fox(pd, cap=args.budget_crossings).terms
                if orient(pd).n_components == 1
                else None
            )
        bracket = oracle.bracket_state_sum(pd, cap=args.budget_crossings)
        if args.invariant == "bracket":
            return poly_to_text(bracket)
        jones = jones_from_bracket(bracket, orient(pd).writhe)
        if args.invariant == "span":
            return str(jones_span_inclusive(jones))
        return jones_to_text(jones)

    methods = ["closed", "oracle"] if args.method == "both" else [args.method]
    results = {m: closed_text() if m == "closed" else oracle_text() for m in methods}
    both = len(methods) == 2
    agree = not both or results["closed"] == results["oracle"]
    if args.format == "json":
        print(json.dumps(dict(results, agree=agree) if both else results))
    else:
        for m in methods:
            prefix = f"{m}: " if both else ""
            print(prefix + results[m])
        if both:
            print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


def _conway_text(terms) -> str:
    """The text of a Conway polynomial's (exponent, coefficient) pairs, or
    of None where no value is available."""
    return terms_to_text(terms, "z") if terms is not None else "(not available)"


def cmd_compare(args) -> int:
    r1, r2 = parse_rep(args.rep1), parse_rep(args.rep2)
    verdict = classify.compare(r1, r2, mirror_ok=args.mirror_ok)
    if args.format == "json":
        print(json.dumps(verdict.to_json_dict()))
    else:
        line = verdict.tag
        if verdict.evidence is not None:
            line += f"  evidence: {poly_to_text(verdict.evidence)}"
        if verdict.note:
            line += f"  ({verdict.note})"
        print(line)
    return 0


def cmd_girth(args, emit_rep: bool = False) -> int:
    _check_budget(args)
    pd = _read_pd(args.pd_file)
    g, witness = girth.diagram_girth(pd, budget=args.budget_crossings)
    if witness is None:
        if args.format == "json":
            print(json.dumps({"girth": g, "witness": None}))
        else:
            print("girth 2 (degenerate crossing-free diagram, labels (0,0))")
        return 0
    if args.format == "json":
        out = {"girth": g, "witness": witness.summary()}
        if emit_rep:
            out["rep"] = str(girth.rep_from_decomposition(witness))
        print(json.dumps(out))
    else:
        print(f"girth {g}")
        print(f"witness: {json.dumps(witness.summary())}")
        if emit_rep:
            print(f"rep: {girth.rep_from_decomposition(witness)}")
    return 0


def cmd_census(args) -> int:
    """Run the census with the cyclic garbage collector paused.

    The census makes no reference cycles: what it keeps is label tuples,
    ints and records of strings and Fractions, and ``gc.collect()`` after
    ``dedup_census`` finds nothing unreachable.  The collector would only
    walk every kept rep again as the census grows, 10-17% of ``--max 4``
    and ``--max 5``.  Its prior state comes back however the command ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        classes = census.dedup_census(args.girth, args.max, args.even, args.positive)
        write = census.census_jsonl if args.format == "jsonl" else census.census_csv
        if args.output:
            with open(args.output, "w") as f:
                write(classes, f)
            print(f"{len(classes)} classes, {sum(len(c.members) for c in classes)} reps "
                  f"-> {args.output}")
        else:
            write(classes, sys.stdout)
        return 0
    finally:
        if enabled:
            gc.enable()


def cmd_verify_table(args) -> int:
    results = census.verify_table(
        fixtures_dir=args.fixtures,
        max_crossings=args.max_crossings,
        apply_errata=args.errata,
    )
    if args.format == "json":
        print(census.table_results_json(results))
    else:
        print(census.table_report(results))
    return 0 if all(r.status != "FAIL" for r in results) else 1


def cmd_selftest(args) -> int:
    """Run the six formula-vs-oracle suites, every case of each, and print each
    suite's line before the next suite runs; exit 1 when any fails.  The reps are
    drawn from one ``random.Random(20240915)``: 25 with labels in [-2, 2], then 20
    with even labels in [2, 10], each drawing its top ring before its bottom."""
    rng = random.Random(20240915)
    a2 = LaurentPoly.from_dict({2: 1, -2: 1}, "A")

    def ring(low: int, high: int, scale: int = 1) -> tuple:
        return tuple(scale * rng.randint(low, high) for _ in range(3))

    def closed_bracket(rep):
        return closedform.bracket_poly(closedform.bracket_girth3(rep))

    def suites():
        bad = [(p, q) for p in range(-3, 4) for q in range(-3, 4) if oracle.bracket_state_sum(
            pd_from_rep(Girth2Rep(p, q))) != closedform.bracket_double_twist(p, q)]
        yield f"double twist bracket grid |p|,|q|<=3 {bad[-1] if bad else ''}", [not bad]
        reps = [Girth3Rep(ring(-2, 2), ring(-2, 2)) for _ in range(25)]
        yield "girth-3 bracket vs oracle (25 random reps)", [
            oracle.bracket_state_sum(pd_from_rep(r)) == closed_bracket(r) for r in reps]
        reps = [Girth3Rep((p, q, r), (2, 2, 2)) for p in (2, 4) for q in (2, 4) for r in (0, 2)]
        yield "girth-3 even Conway vs Fox oracle (sample)", [
            oracle.conway_fox(pd_from_rep(r)) == closedform.conway_girth3_even(r) for r in reps]
        det = closedform.shat_cycle_det(Girth3Rep((4, 8, 12), (4, 6, 2)), "cycle_cab")
        yield "S-determinant example (4 8 12 / 4 6 2)", [
            det * a2 ** 2 == LaurentPoly.from_dict({32: 1, 40: -2, 56: 2, 64: -1}, "A")]
        cases = []
        for rep in [Girth3Rep(ring(1, 5, 2), ring(1, 5, 2)) for _ in range(20)]:
            conway, bracket = closedform.conway_girth3_even(rep), closed_bracket(rep)
            for perm in ("swap_ab", "swap_bc", "swap_ac", "cycle_cab", "cycle_bca"):
                other = closedform.permute_bottom(rep, perm)
                diff = closedform.conway_diff(rep, perm), closedform.bracket_diff_formula(rep, perm)
                cases.append(diff == (conway - closedform.conway_girth3_even(other),
                                      bracket - closed_bracket(other)))
        yield "difference formulas (20 random even-positive reps)", cases
        yield "S-hat identity |q| <= 10", [
            closedform.s_hat(q) * a2 == LaurentPoly.from_dict({0: 1, 4 * q: -((-1) ** q)}, "A")
            for q in range(-10, 11) if q != 0]

    failures = 0
    for name, cases in suites():
        print(f"{'PASS' if all(cases) else 'FAIL'}  {name}")
        failures += not all(cases)
    print(f"{failures} failing suites" if failures else "all suites passed")
    return 1 if failures else 0


class Argument(Record):
    """One argument of a subcommand in ``COMMANDS``.

    A positional when ``flag`` is None, and then always required; else an
    option, written ``flag value``, or ``flag`` alone when ``kind`` is
    ``bool`` (a store-true flag).  ``kind`` is ``int``, ``str`` or
    ``bool``; ``dest`` names the attribute the parsed value lands in.
    """

    __slots__ = ("flag", "dest", "kind", "choices", "default", "required", "help")

    def __init__(self, flag, dest, kind=str, choices=None, default=None, required=False,
                 help=None) -> None:
        set_field(self, "flag", flag)
        set_field(self, "dest", dest)
        set_field(self, "kind", kind)
        set_field(self, "choices", choices)
        set_field(self, "default", default)
        set_field(self, "required", required or flag is None)
        set_field(self, "help", help)


FORMAT = Argument("--format", "format", choices=("text", "json"), default="text")

# the arguments of both ``girth`` and ``decompose``
PD_ARGUMENTS = (
    Argument(None, "pd_file"),
    Argument("--budget-crossings", "budget_crossings", int, default=girth.TREE_BUDGET_CROSSINGS),
    FORMAT,
)

# The subcommands in the order ``knotpair -h`` lists them: (name, help,
# handler, arguments), each command's arguments in the order its help
# lists them.  ``match`` and ``build_parser`` both read this one table.
COMMANDS = (
    ("eval", "evaluate an invariant of a representation", cmd_eval, (
        Argument(None, "rep", help="representation, e.g. '(2,-3)' or '[0 2 2 / 0 -1 -1]'"),
        Argument(None, "invariant", choices=("conway", "bracket", "jones", "span")),
        Argument("--method", "method", choices=("closed", "oracle", "both"), default="closed"),
        Argument("--budget-crossings", "budget_crossings", int, default=oracle.BRACKET_CAP),
        FORMAT,
    )),
    ("compare", "compare two representations", cmd_compare, (
        Argument(None, "rep1"),
        Argument(None, "rep2"),
        Argument("--mirror-ok", "mirror_ok", bool, default=False),
        FORMAT,
    )),
    ("girth", "diagram girth of a PD file", cmd_girth, PD_ARGUMENTS),
    ("decompose", "diagram girth plus recovered representation",
     functools.partial(cmd_girth, emit_rep=True), PD_ARGUMENTS),
    ("census", "enumerate and deduplicate representations", cmd_census, (
        Argument("--girth", "girth", int, choices=(2, 3), required=True),
        Argument("--max", "max", int, required=True),
        Argument("--even", "even", bool, default=False),
        Argument("--positive", "positive", bool, default=False),
        Argument("--format", "format", choices=("csv", "jsonl"), default="csv"),
        Argument("--output", "output"),
    )),
    ("verify-table", "check table reps against fixtures", cmd_verify_table, (
        Argument("--fixtures", "fixtures", help="fixture directory override"),
        Argument("--max-crossings", "max_crossings", int),
        Argument("--errata", "errata", bool, default=False, help="apply documented errata"),
        FORMAT,
    )),
    ("selftest", "run the formula-vs-oracle suites", cmd_selftest, ()),
)


def match(argv: list[str]):
    """The namespace argparse makes of ``argv``, read straight off
    ``COMMANDS``, or None when ``argv`` is not a plain command line.

    A plain command line is an exact subcommand name followed by exactly
    its positionals and any of its options, each option at most once and
    in ``flag value`` form, every required option among them.  No value
    and no positional starts with ``-``, each ``int`` value converts by
    ``int()``, and each value with choices is one of them.  The namespace
    then holds what argparse sets: ``command``, ``func`` and every dest,
    defaults included.  Anything else gets None, with nothing printed or
    raised: help, abbreviations, ``--flag=value``, ``--``, a negative
    number, a bad value, a missing or an extra argument.
    """
    for name, _, func, arguments in COMMANDS:
        if argv[:1] == [name]:
            break
    else:
        return None
    args = {"command": name, "func": func}
    for arg in arguments:
        args[arg.dest] = arg.default
    given = set()
    positionals = iter([arg for arg in arguments if arg.flag is None])
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            arg = next((arg for arg in arguments if arg.flag == token), None)
            if arg is None or arg.dest in given:
                return None
            if arg.kind is bool:
                given.add(arg.dest)
                args[arg.dest] = True
                continue
            token = next(tokens, "-")
            if token.startswith("-"):
                return None
        else:
            arg = next(positionals, None)
            if arg is None:
                return None
        if arg.kind is int:
            try:
                token = int(token)
            except ValueError:
                return None
        if arg.choices is not None and token not in arg.choices:
            return None
        given.add(arg.dest)
        args[arg.dest] = token
    if any(arg.required and arg.dest not in given for arg in arguments):
        return None
    return types.SimpleNamespace(**args)


@functools.cache
def build_parser():
    """The argparse parser of ``COMMANDS``, for the command lines ``match``
    declines: help and usage errors.

    It lists the subcommands and their arguments in table order, with the
    table's help strings, and sets the same ``func`` objects.  argparse is
    imported here, on the first declined command line, and the parser is
    kept for the rest of the process.  Parsing leaves it unchanged, so
    every command shares it; callers must not change it either.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument parser whose usage errors take ``main``'s one-line path."""

        def error(self, message):
            raise ValueError(f"{self.prog}: {message} (see {self.prog} -h)")

    parser = _Parser(
        prog="knotpair",
        description="Exact invariants and girth decompositions of tree-pair knots",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, func, arguments in COMMANDS:
        p = sub.add_parser(name, help=help)
        for arg in arguments:
            if arg.flag is None:
                p.add_argument(arg.dest, choices=arg.choices, help=arg.help)
            elif arg.kind is bool:
                p.add_argument(arg.flag, dest=arg.dest, action="store_true",
                               default=arg.default, help=arg.help)
            else:
                p.add_argument(arg.flag, dest=arg.dest, type=arg.kind, choices=arg.choices,
                               default=arg.default, required=arg.required, help=arg.help)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when None); return its exit code.

    ``match`` reads a plain command line off ``COMMANDS``; only a command
    line it declines is parsed by ``build_parser()``, so a valid command
    never imports argparse, and help texts and usage errors are
    argparse's own.  A usage error, or a ``ValueError`` or ``OSError`` of
    the command, prints one ``error:`` line to stderr and returns 2.  A
    closed stdout is no error: stdout is flushed here, so a failed write
    surfaces, and fd 1 is pointed at the null device, so the interpreter's
    last flush stays quiet; main returns 141 with nothing on stderr.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = match(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
