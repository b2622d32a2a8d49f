"""Command line front end.

Usage overview::

    skeinkit skein {homfly|kauffman|adjoint} LINK [--max-crossings N]
    skeinkit eigen c --partition P
    skeinkit eigen s --forward P --reverse P
    skeinkit eigen adjoint --forward P --reverse P
    skeinkit eigen table --max-size N [--check-distinct]
    skeinkit expand --partition P [--rho P]
    skeinkit verify rudolph LINK [--max-crossings N] [--json]
    skeinkit verify main LINK --component I --partition P [--max-crossings N] [--json]
    skeinkit verify eigen-consistency [--json]
    skeinkit corpus list
    skeinkit corpus show NAME
    skeinkit acceptance run [--extended]

LINK names either a JSON file on disk or a built-in diagram via the
``corpus:<name>`` form.  Partitions are written as comma separated parts
("2,1"); the empty partition is spelled "0".  Component indices on the
command line are 1-based.  Exit status is 0 exactly when the request
succeeds; for verify and acceptance that means every check passed.

Everything routes through :func:`run`, which takes an argv list and
returns ``(exit_code, output_text)`` without touching the process: the
same entry point the tests drive and the determinism criterion compares.
"""

from __future__ import annotations

import argparse
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .annulus import AnnulusVecK, expand_ylambda, hsr_structure_check, realize_symbolic
from .corpus import corpus_names, load_corpus
from .diagram import DiagramError, LinkDiagram
from .eigen import (
    adjoint_meridian_eigenvalue,
    check_eigenvalue_distinctness,
    eigenvalue_table,
    homfly_meridian_eigenvalue,
    kauffman_meridian_eigenvalue,
)
from .partition import (
    Partition,
    diagonal_hook_identity_holds,
    partitions_of,
    partitions_up_to,
)
from .ring import RingElem, vpow
from .skein_eval import (
    MAX_CROSSINGS,
    SkeinBudgetError,
    adjoint_homfly,
    homfly,
    kauffman,
    skein_relation_probe,
)
from .verify import (
    MAIN_CHECK_LABELS,
    VERIFY_MAX_CROSSINGS,
    eigen_consistency,
    verify_main,
    verify_rudolph,
)


# ----------------------------------------------------------------------
# plumbing: argparse without process exits


class _ParserExit(Exception):
    """Raised in place of sys.exit so run() stays a pure function."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


class _CommandError(_ParserExit):
    """A usage error: exit code 2 and the text `error: <message>`."""

    def __init__(self, message: str):
        super().__init__(2, f"error: {message}")


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises `_ParserExit` instead of exiting.

    Every parser of one tree appends its messages to a single capture
    buffer, the root's, so the tree can be built once and reused: `run`
    empties the buffer before each parse.
    """

    def __init__(self, *args, captured: Optional[list[str]] = None, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        self._captured: list[str] = [] if captured is None else captured

    def add_subparsers(self, **kwargs):
        kwargs.setdefault("parser_class", functools.partial(_Parser, captured=self._captured))
        return super().add_subparsers(**kwargs)

    def _print_message(self, message, file=None):
        if message:
            self._captured.append(message)

    def exit(self, status=0, message=None):
        if message:
            self._captured.append(message)
        raise _ParserExit(status, "".join(self._captured).rstrip("\n"))

    def _get_values(self, action, arg_strings):
        # argparse strips the value of `--opt=--`, leaving an empty list
        if action.nargs is None and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def _parse_partition(text: str) -> Partition:
    try:
        return Partition.from_string(text)
    except ValueError as exc:
        raise _CommandError(f"bad partition {text!r}: {exc}")


def _load_link(ref: str) -> LinkDiagram:
    """Resolve a LINK argument: a corpus:<name> tag or a JSON file path."""
    if ref.startswith("corpus:"):
        try:
            return load_corpus(ref[len("corpus:"):])
        except KeyError as exc:
            raise _CommandError(str(exc.args[0]))
    try:
        text = Path(ref).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CommandError(f"cannot read {ref}: {exc}")
    try:
        return LinkDiagram.from_json(text)
    except (DiagramError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise _CommandError(f"bad link description in {ref}: {exc}")


def _report_result(report, as_json: bool) -> tuple[int, str]:
    if as_json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.to_text()
    return (0 if report.passed else 1), text


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_skein(args) -> tuple[int, str]:
    d = _load_link(args.link)
    fn = {"homfly": homfly, "kauffman": kauffman, "adjoint": adjoint_homfly}[args.flavor]
    return 0, fn(d, args.max_crossings).render()


def _cmd_eigen_c(args) -> tuple[int, str]:
    return 0, kauffman_meridian_eigenvalue(_parse_partition(args.partition)).render()


def _cmd_eigen_pair(args) -> tuple[int, str]:
    forward = _parse_partition(args.forward)
    reverse = _parse_partition(args.reverse)
    fn = {"s": homfly_meridian_eigenvalue, "adjoint": adjoint_meridian_eigenvalue}[args.which]
    return 0, fn(forward, reverse).render()


# the table and its distinctness check grow with the number of shapes:
# size 30 lists 28,629 shapes (6.5 MB of output, 104 MB peak memory), size
# 36 lists 99,133 (24.7 MB, 346 MB), and size 60 lists 6.6 million
_TABLE_MAX_SIZE = 30


def _cmd_eigen_table(args) -> tuple[int, str]:
    if args.max_size < 0:
        raise _CommandError("--max-size must be nonnegative")
    if args.max_size > _TABLE_MAX_SIZE:
        raise _CommandError(f"--max-size must be at most {_TABLE_MAX_SIZE}, got {args.max_size}")
    lines = [f"{shape}: {value.render()}" for shape, value in eigenvalue_table(args.max_size)]
    code = 0
    if args.check_distinct:
        report = check_eigenvalue_distinctness(args.max_size)
        if report.all_distinct:
            lines.append(
                f"distinct: yes ({report.shape_count} shapes,"
                f" {report.comparisons} comparisons, mod 2)"
            )
        else:
            code = 1
            lines.append(f"distinct: NO ({len(report.collisions)} collisions)")
            for a, b in report.collisions:
                lines.append(f"  collision: {a} vs {b}")
    return code, "\n".join(lines)


# every level of a plan has at least 3 terms (a nonempty anchor has at
# least 2 addable shapes and 1 removable one), so a size-n target lists at
# least 3^(n-1) words: size 14 already prints 156 MB
_EXPAND_MAX_SIZE = 14


def _cmd_expand(args) -> tuple[int, str]:
    target = _parse_partition(args.partition)
    if target.size() > _EXPAND_MAX_SIZE:
        raise _CommandError(
            f"partition {target} has size {target.size()}; its plan lists at least"
            f" 3^{target.size() - 1} words, so expand takes sizes up to {_EXPAND_MAX_SIZE}",
        )
    rho = _parse_partition(args.rho) if args.rho is not None else None
    try:
        plan = expand_ylambda(target, rho)
    except ValueError as exc:
        raise _CommandError(str(exc))
    payload = plan.to_dict()
    payload["words"] = plan.lm_words()
    return 0, json.dumps(payload, indent=2, sort_keys=True)


def _cmd_verify_rudolph(args) -> tuple[int, str]:
    d = _load_link(args.link)
    return _report_result(verify_rudolph(d, args.max_crossings), args.json)


def _cmd_verify_main(args) -> tuple[int, str]:
    d = _load_link(args.link)
    if not 1 <= args.component <= d.n_components:
        raise _CommandError(f"component index {args.component} out of range 1..{d.n_components}")
    shape = _parse_partition(args.partition)
    try:
        report = verify_main(d, args.component - 1, shape, args.max_crossings)
    except ValueError as exc:
        raise _CommandError(str(exc))
    return _report_result(report, args.json)


def _cmd_verify_eigen(args) -> tuple[int, str]:
    return _report_result(eigen_consistency(), args.json)


def _cmd_corpus_list(args) -> tuple[int, str]:
    return 0, "\n".join(corpus_names())


def _cmd_corpus_show(args) -> tuple[int, str]:
    return 0, _load_link("corpus:" + args.name).to_json(indent=2)


# ----------------------------------------------------------------------
# acceptance battery
#
# Each criterion is a callable taking the --extended flag and returning
# (passed, detail).  The registry drives both `acceptance run` and the
# test suite, so the two can never drift apart.  Details are fully
# deterministic: no timings, no environment-dependent text.


@dataclass(frozen=True)
class Criterion:
    number: int
    title: str
    runner: Callable[[bool], tuple[bool, str]]


def _crit_eigen_identity(extended: bool) -> tuple[bool, str]:
    one = RingElem.one()
    shapes = partitions_up_to(8)
    bad = [
        str(p)
        for p in shapes
        if kauffman_meridian_eigenvalue(p) != homfly_meridian_eigenvalue(p, p) + one
    ]
    if bad:
        return False, "fails at " + ", ".join(bad)
    return True, f"{len(shapes)} shapes"


def _crit_distinctness(extended: bool) -> tuple[bool, str]:
    report = check_eigenvalue_distinctness(8)
    if not report.all_distinct:
        pairs = ", ".join(f"{a} vs {b}" for a, b in report.collisions)
        return False, f"collisions: {pairs}"
    return True, f"{report.shape_count} shapes, {report.comparisons} comparisons, mod 2"


def _crit_hook_identity(extended: bool) -> tuple[bool, str]:
    shapes = partitions_up_to(10)
    bad = [str(p) for p in shapes if not diagonal_hook_identity_holds(p)]
    if bad:
        return False, "fails at " + ", ".join(bad)
    return True, f"{len(shapes)} shapes"


def _crit_evaluator_soundness(extended: bool) -> tuple[bool, str]:
    problems: list[str] = []
    probes = 0
    for name in corpus_names():
        d = load_corpus(name)
        for ci in range(len(d.crossings)):
            for flavor in ("oriented", "unoriented"):
                probes += 1
                if not skein_relation_probe(d, ci, flavor)["holds"]:
                    problems.append(f"relation at {name} crossing {ci} ({flavor})")
    for a, b in (("unknot", "trefoil"), ("hopf_plus", "figure_eight")):
        da, db = load_corpus(a), load_corpus(b)
        u = da.disjoint_union(db)
        if homfly(u) != homfly(da) * homfly(db):
            problems.append(f"oriented split {a}+{b}")
        if kauffman(u) != kauffman(da) * kauffman(db):
            problems.append(f"unoriented split {a}+{b}")
    v, vinv = RingElem(vpow(1)), RingElem(vpow(-1))
    for name in ("unknot", "trefoil"):
        d = load_corpus(name)
        for fn, tag in ((homfly, "oriented"), (kauffman, "unoriented")):
            base = fn(d)
            if fn(d.with_curl(0, 1)) != vinv * base:
                problems.append(f"{tag} positive curl on {name}")
            if fn(d.with_curl(0, -1)) != v * base:
                problems.append(f"{tag} negative curl on {name}")
    for name in corpus_names():
        d = load_corpus(name)
        r = d
        for comp in range(d.n_components):
            r = r.reverse_component(comp)
        if homfly(r) != homfly(d):
            problems.append(f"orientation reversal on {name}")
    if problems:
        return False, "; ".join(problems)
    return True, f"{probes} crossing probes; splits, curls, reversals on the corpus"


def _crit_eigen_consistency(extended: bool) -> tuple[bool, str]:
    report = eigen_consistency()
    if not report.passed:
        first = next(c for c in report.checks if not c.passed)
        return False, f"check failed: {first.label}"
    return True, f"{len(report.checks)} checks on the decorated unknot"


def _crit_rudolph_corpus(extended: bool) -> tuple[bool, str]:
    failures = [
        name for name in corpus_names()
        if not verify_rudolph(load_corpus(name), MAX_CROSSINGS).passed
    ]
    if failures:
        return False, "fails on " + ", ".join(failures)
    return True, f"{len(corpus_names())} diagrams, crossing budget {MAX_CROSSINGS}"


def _verify_main_case(d: LinkDiagram, comp: int, shape: Partition) -> Optional[str]:
    report = verify_main(d, comp, shape)
    if not report.passed:
        first = next(c for c in report.checks if not c.passed)
        return f"check failed: {first.label}"
    labels = {c.label for c in report.checks}
    missing = [label for label in MAIN_CHECK_LABELS if label not in labels]
    if missing:
        return "missing checks: " + "; ".join(missing)
    return None


def _crit_main_width_two(extended: bool) -> tuple[bool, str]:
    cases = [
        ("unknot with shape 2", "unknot", 0, Partition((2,))),
        ("unknot with shape 1,1", "unknot", 0, Partition((1, 1))),
    ]
    if extended:
        cases.append(("hopf_plus component 1 with shape 2", "hopf_plus", 0, Partition((2,))))
    problems = []
    for label, name, comp, shape in cases:
        message = _verify_main_case(load_corpus(name), comp, shape)
        if message:
            problems.append(f"{label}: {message}")
    if problems:
        return False, "; ".join(problems)
    detail = "; ".join(label for label, *_ in cases)
    if not extended:
        detail += "; hopf case runs with --extended"
    return True, detail


def _crit_symbolic_expansion(extended: bool) -> tuple[bool, str]:
    problems = []
    count = 0
    for size in range(1, 5):
        for target in partitions_of(size):
            anchors = [None] if size == 1 else target.cells_removable()
            for anchor in anchors:
                count += 1
                plan = expand_ylambda(target, anchor)
                want = AnnulusVecK.basis(target).scale(plan.full_scale())
                if realize_symbolic(plan) != want:
                    problems.append(f"target {target}, anchor {anchor}")
    if problems:
        return False, "; ".join(problems)
    return True, f"{count} plans over all shapes up to size 4"


def _crit_branch_structure(extended: bool) -> tuple[bool, str]:
    problems = []
    pairs = 0
    for shape in partitions_up_to(4):
        report = hsr_structure_check(shape)
        if not report.holds:
            problems.append(f"shape {shape}: " + "; ".join(report.problems))
        for a, b, n in report.pair_coefficients:
            pairs += 1
            if n not in (0, 1):
                problems.append(f"shape {shape}: coefficient {n} at ({a}, {b})")
    if problems:
        return False, "; ".join(problems)
    return True, f"{pairs} off-diagonal coefficients, all 0 or 1"


_DETERMINISM_PROBES = (
    ("eigen", "table", "--max-size", "4", "--check-distinct"),
    ("expand", "--partition", "2,1"),
    ("skein", "homfly", "corpus:trefoil"),
    ("verify", "rudolph", "corpus:unknot"),
)


def _crit_determinism(extended: bool) -> tuple[bool, str]:
    for probe in _DETERMINISM_PROBES:
        if run(list(probe)) != run(list(probe)):
            return False, "repeat run differs: " + " ".join(probe)
    return True, f"{len(_DETERMINISM_PROBES)} invocations repeated byte-identically"


ACCEPTANCE_CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "meridian eigenvalue identity, shapes up to 8", _crit_eigen_identity),
    Criterion(2, "mod-2 eigenvalue distinctness, shapes up to 8", _crit_distinctness),
    Criterion(3, "diagonal hook content identity, shapes up to 10", _crit_hook_identity),
    Criterion(4, "evaluator soundness on the corpus", _crit_evaluator_soundness),
    Criterion(5, "eigenvalue agreement with meridian diagrams", _crit_eigen_consistency),
    Criterion(6, "base mod-2 relation across the corpus", _crit_rudolph_corpus),
    Criterion(7, "decorated mod-2 relation, width-two shapes", _crit_main_width_two),
    Criterion(8, "symbolic expansion identity, shapes up to 4", _crit_symbolic_expansion),
    Criterion(9, "branched product pairing structure, shapes up to 4", _crit_branch_structure),
    Criterion(10, "byte determinism of repeated invocations", _crit_determinism),
)


def _cmd_acceptance(args) -> tuple[int, str]:
    lines = []
    passed_count = 0
    for criterion in ACCEPTANCE_CRITERIA:
        passed, detail = criterion.runner(args.extended)
        passed_count += passed
        status = "PASS" if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        lines.append(f"{criterion.number:>2}  {status}  {criterion.title}{suffix}")
    ok = passed_count == len(ACCEPTANCE_CRITERIA)
    lines.append(
        f"result: {'PASS' if ok else 'FAIL'} ({passed_count}/{len(ACCEPTANCE_CRITERIA)})"
    )
    return (0 if ok else 1), "\n".join(lines)


# ----------------------------------------------------------------------
# parser assembly


def _add_link_arg(parser: argparse.ArgumentParser):
    parser.add_argument("link", help="JSON file path or corpus:<name>")


class _NonNegative(argparse.Action):
    """Store an integer option, refusing negative values as a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be nonnegative, got {value}")
        setattr(namespace, self.dest, value)


def _add_budget_arg(parser: argparse.ArgumentParser, default: int):
    parser.add_argument(
        "--max-crossings",
        type=int,
        action=_NonNegative,
        default=default,
        metavar="N",
        help=f"crossing budget for the evaluator (default {default})",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="skeinkit", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_skein = top.add_parser("skein", help="evaluate a framed link polynomial")
    sub = p_skein.add_subparsers(dest="flavor", required=True, metavar="FLAVOR")
    for flavor, blurb in (
        ("homfly", "oriented framed polynomial"),
        ("kauffman", "unoriented framed polynomial"),
        ("adjoint", "antiparallel-pair adjoint polynomial"),
    ):
        p = sub.add_parser(flavor, help=blurb)
        _add_link_arg(p)
        _add_budget_arg(p, MAX_CROSSINGS)
        p.set_defaults(handler=_cmd_skein)

    p_eigen = top.add_parser("eigen", help="meridian eigenvalue closed forms")
    sub = p_eigen.add_subparsers(dest="which", required=True, metavar="WHICH")
    p = sub.add_parser("c", help="unoriented meridian eigenvalue")
    p.add_argument("--partition", required=True, metavar="P")
    p.set_defaults(handler=_cmd_eigen_c)
    for which, blurb in (
        ("s", "oriented meridian eigenvalue"),
        ("adjoint", "antiparallel-pair meridian eigenvalue"),
    ):
        p = sub.add_parser(which, help=blurb)
        p.add_argument("--forward", required=True, metavar="P")
        p.add_argument("--reverse", required=True, metavar="P")
        p.set_defaults(handler=_cmd_eigen_pair)
    p = sub.add_parser("table", help="tabulate unoriented eigenvalues")
    p.add_argument("--max-size", type=int, required=True, metavar="N")
    p.add_argument("--check-distinct", action="store_true")
    p.set_defaults(handler=_cmd_eigen_table)

    p_expand = top.add_parser("expand", help="decorated-unknot expansion plan as JSON")
    p_expand.add_argument("--partition", required=True, metavar="P")
    p_expand.add_argument("--rho", metavar="P", help="anchor subshape (optional)")
    p_expand.set_defaults(handler=_cmd_expand)

    p_verify = top.add_parser("verify", help="end-to-end verification reports")
    sub = p_verify.add_subparsers(dest="which", required=True, metavar="WHICH")
    p = sub.add_parser("rudolph", help="base mod-2 relation on one link")
    _add_link_arg(p)
    _add_budget_arg(p, VERIFY_MAX_CROSSINGS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify_rudolph)
    p = sub.add_parser("main", help="decorated relation with one width-two shape")
    _add_link_arg(p)
    p.add_argument("--component", type=int, required=True, metavar="I", help="1-based")
    p.add_argument("--partition", required=True, metavar="P")
    _add_budget_arg(p, VERIFY_MAX_CROSSINGS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify_main)
    p = sub.add_parser("eigen-consistency", help="eigenvalues vs meridian diagrams")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify_eigen)

    p_corpus = top.add_parser("corpus", help="built-in diagram library")
    sub = p_corpus.add_subparsers(dest="which", required=True, metavar="WHICH")
    p = sub.add_parser("list", help="list available names")
    p.set_defaults(handler=_cmd_corpus_list)
    p = sub.add_parser("show", help="print one diagram as JSON")
    p.add_argument("name")
    p.set_defaults(handler=_cmd_corpus_show)

    p_accept = top.add_parser("acceptance", help="run the acceptance battery")
    sub = p_accept.add_subparsers(dest="which", required=True, metavar="WHICH")
    p = sub.add_parser("run", help="run every criterion and print a table")
    p.add_argument(
        "--extended",
        action="store_true",
        help="include the long-running decorated hopf case",
    )
    p.set_defaults(handler=_cmd_acceptance)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The parser tree, built on the first invocation and reused after."""
    return _build_parser()


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one CLI invocation; returns (exit_code, output_text).

    Invocations share one parser tree and its capture buffer, so they
    must not run concurrently.
    """
    parser = _parser()
    parser._captured.clear()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _ParserExit as exc:
        return exc.code, exc.text
    except SkeinBudgetError as exc:
        return 1, f"budget exceeded: {exc}"


def main(argv: Optional[list[str]] = None) -> int:
    import sys

    code, text = run(sys.argv[1:] if argv is None else argv)
    if text:
        print(text, file=sys.stderr if code == 2 else sys.stdout)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
