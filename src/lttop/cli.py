"""Command-line surface.

Subcommands: ``omega`` (print or export classifying objects), ``topologies``
(enumerate and tabulate), ``closure`` (close a subobject, report density),
``classify`` (separated/complete/sheaf flags for presheaves or fuzzy sets),
and ``verify`` (the theorem-verification suites).

One table, ``COMMANDS``, gives each subcommand's handler, help and
options.  ``parse_args`` reads a well-formed command line straight off
it; any other (``--help``, a usage error, an abbreviated option or an
``--option=value``) goes to the argparse parser ``build_parser`` makes
from the same table, so argparse is imported only for those.

Exit codes: 0 ok, 1 verification failure, 2 input error, an exceeded
size bound, or output that cannot be written (closed early, or a full
disk).  All output is deterministic for fixed inputs and flags.
"""

import os
import sys
from types import SimpleNamespace

from . import closure as closure_mod
from . import docio, fuzzy, lattice
from .fincat import (
    FAMILY_BICOLOR,
    FAMILY_FULL,
    FAMILY_SEMI,
    DimensionCapExceeded,
    Record,
    build_index_category,
)
from .omega import classifying_object, hasse_covers, hasse_dot, sieve_label
from .presheaf import BoundExceeded, Subpresheaf, subpresheaf_lanes, subset_lanes
from .topology import _closed_bits, _closures_bits, enumerate_topologies, least_sieves

OK, VERIFY_FAILED, INPUT_ERROR = 0, 1, 2


def cmd_omega(args, out):
    category = build_index_category(args.category, max_dim=args.max_dim)
    if args.dot and args.level is None:
        raise docio.DocumentError("--dot needs --level")
    level = _parse_level(category, args.level) if args.level is not None else None
    omega = classifying_object(category)
    if args.dot:
        out.write(hasse_dot(omega, level) + "\n")
        return OK
    sizes = ", ".join(str(n) for n in omega.level_sizes())
    out.write(f"levels: {sizes}\n")
    for c in [level] if level is not None else category.objects:
        pos = category.obj_index(c)
        out.write(f"level {c}: {omega.level_size(c)} sieves\n")
        for i, sieve in enumerate(omega.sieves[pos]):
            out.write(f"  [{i}] {sieve_label(sieve)}\n")
        covers = " ".join(f"{a}<{b}" for a, b in hasse_covers(omega, pos))
        out.write(f"  covers: {covers}\n")
    return OK


def _parse_level(category, text):
    for c in category.objects:
        if str(c) == text:
            return c
    raise docio.DocumentError(f"unknown level {text!r} for {category.kind}")


def cmd_topologies(args, out):
    category = build_index_category(args.category, max_dim=args.max_dim)
    topologies = enumerate_topologies(category, method=args.method)
    label = "label" if category.family == FAMILY_BICOLOR else "bits"
    out.write(f"{len(topologies)} topologies on {category.kind}\n")
    for j in sorted(topologies, key=lambda j: j.tag):
        maps = "; ".join(
            f"{c}:" + ",".join(str(v) for v in j.level_map(c)) for c in category.objects
        )
        out.write(f"  {label} {j.tag}  maps {maps}\n")
    return OK


def cmd_closure(args, out):
    P = docio.presheaf_from_doc(docio.load_json(args.input), max_dim=args.max_dim)
    category = P.category
    sub = docio.subobject_from_doc(docio.load_json(args.sub), P)
    # the least covering sieves come off the word or label: no Omega
    closed = Subpresheaf(P, _closures_bits([least_sieves(category, args.topology)], P, sub.bits)[0])
    for c in category.objects:
        added = closed.level_mask(c) & ~sub.level_mask(c)
        names = ", ".join(str(x) for i, x in enumerate(P.carrier(c)) if added >> i & 1)
        out.write(f"level {c}: added [{names}]\n")
    if category.family in (FAMILY_SEMI, FAMILY_FULL):
        if closure_mod.closure_recursive(args.topology, sub) != closed:
            out.write("closure mismatch between the two computation routes\n")
            return VERIFY_FAILED
    out.write("dense\n" if closed.is_full else "not dense\n")
    return OK


def cmd_classify(args, out):
    if args.nucleus is not None:
        return _classify_fuzzy(args, out)
    P = docio.presheaf_from_doc(docio.load_json(args.input), max_dim=args.max_dim)
    report = closure_mod.classify(P, args.topology)
    out.write(f"separated: {report.separated}\n")
    out.write(f"complete: {report.complete}\n")
    out.write(f"sheaf: {report.sheaf}\n")
    for k, kind, data in report.witnesses:
        out.write(f"witness: level {k} not {kind}: {data}\n")
    return OK


def _classify_fuzzy(args, out):
    algebra, mapping = docio.nucleus_from_doc(docio.load_json(args.nucleus))
    problem = lattice.verify_nucleus(algebra, mapping)
    if problem is not None:
        raise docio.DocumentError(f"map is not a nucleus: {problem}")
    B = docio.fuzzyset_from_doc(docio.load_json(args.input))
    if not B.algebra.same_order(algebra):
        raise docio.DocumentError("fuzzy set and nucleus use different algebras")
    op = fuzzy.QClosureOperator.from_nucleus(lattice.Nucleus(algebra, mapping))
    flags = fuzzy.classify_fuzzy(B, op)
    out.write(f"separated: {flags['separated']}\n")
    out.write(f"sheaf: {flags['sheaf']}\n")
    return OK


# -- verification suites ----------------------------------------------------


def _suite_counts(out):
    """Count the topologies on each category by every route, and check the
    counts and that the routes agree.  A route that raises is a failed
    check, reported as a FAIL line naming the category and the route; an
    exceeded bound still propagates."""
    ok = True
    expected = {
        "set": 2,
        "graph": 4,
        "reflgraph": 3,
        "bicolgraph": 8,
        "semisimplex:2": 8,
        "simplex:2": 4,
    }
    summary = []
    for kind, want in expected.items():
        category = build_index_category(kind)
        methods = ["brute"] if category.family == FAMILY_BICOLOR else ["constrained", "brute"]
        found = {}
        raised = False
        for method in methods:
            try:
                found[method] = enumerate_topologies(category, method=method)
            except BoundExceeded:
                raise
            except Exception as exc:
                raised = True
                out.write(f"  topology count on {kind}: the {method} route {_raised(exc)} FAIL\n")
        if raised:
            ok = False
            continue
        counts = {m: len(v) for m, v in found.items()}
        agree = len({tuple(sorted(j.levels for j in v)) for v in found.values()}) == 1
        good = agree and all(c == want for c in counts.values())
        ok = ok and good
        summary.append(f"{kind}:{counts[methods[0]]}")
        out.write(
            f"  topology count on {kind}: expected {want}, got {counts} "
            f"({'methods agree' if agree else 'METHODS DISAGREE'}) "
            f"{'PASS' if good else 'FAIL'}\n"
        )
    out.write(("counts suite: " + " ".join(summary) + " — PASS\n") if ok else "counts suite — FAIL\n")
    return ok


def _suite_closures(out, corpus_bound):
    ok = True
    for kind in ("graph", "reflgraph", "semisimplex:2"):
        category = build_index_category(kind)
        topologies = enumerate_topologies(category)
        for j in topologies:
            closure_mod._check_recursive_word(category, j.tag)
        checked, mismatch = _first_closure_mismatch(category, topologies, corpus_bound)
        good = mismatch is None
        ok = ok and good
        out.write(
            f"  closure via characteristic map vs recursive on {kind}: "
            f"{checked} instances {'PASS' if good else 'FAIL ' + str(mismatch)}\n"
        )
    out.write("closures suite — PASS\n" if ok else "closures suite — FAIL\n")
    return ok


def _first_closure_mismatch(category, topologies, corpus_bound):
    """Compare the two closure routes on every (corpus subobject, topology)
    instance up to the first on which they disagree.

    The instances run in corpus order, then subobject order, then topology
    order.  Every subset of the cells of one corpus presheaf P is a lane of
    one integer, lane s holding the subset s (``presheaf.subset_lanes``,
    built once per size and shared by every presheaf of that size), and
    each kernel takes every topology at once, so each route runs once per
    P: the recursive one reads each level's coface masks once, and the chi
    one shares each (level, m_c) part, with m read off each topology's tag
    (``topology.least_sieves``), so the suite checks that decoder against
    the recursion as well.  Only the lanes that hold a subpresheaf
    (``presheaf.subpresheaf_lanes``) are instances, in lane order, which is
    the order of their integers; a difference in any bit of such a lane
    counts, and one in any other lane is ignored.
    The first failing instance of P is the lowest such lane that differs
    under any topology, and within that lane the first such topology.
    Returns the number of instances checked up to and including it and
    that (n, P, sub, word), with n the position of P in
    ``presheaf_corpus(category, corpus_bound)``, or None when they all
    agree.
    """
    words = [j.tag for j in topologies]
    least = [least_sieves(category, word) for word in words]
    checked = 0
    for n, P in enumerate(closure_mod.presheaf_corpus(category, corpus_bound)):
        bits, lanes, stride = subset_lanes(P)
        closed = subpresheaf_lanes(P, bits, lanes)
        kept = closed * ((1 << stride) - 1)  # every bit of those lanes
        first = None  # (lane, topology position) of the first mismatch
        chis = _closures_bits(least, P, bits, lanes)
        recs = _closed_bits(words, P, bits, lanes)
        for t, (chi, rec) in enumerate(zip(chis, recs)):
            diff = (chi ^ rec) & kept
            if diff:
                s = ((diff & -diff).bit_length() - 1) // stride
                if first is None or s < first[0]:
                    first = (s, t)
        if first is not None:
            s, t = first
            before = (closed & (1 << s * stride) - 1).bit_count()
            return checked + before * len(words) + t + 1, (n, P, Subpresheaf(P, s), words[t])
        checked += closed.bit_count() * len(words)
    return checked, None


def _suite_criteria(out, corpus_bound):
    ok = True
    for kind in ("graph", "reflgraph"):
        category = build_index_category(kind)
        topologies = enumerate_topologies(category)
        words = [j.tag for j in topologies]
        corpus = closure_mod.presheaf_corpus(category, corpus_bound)
        disagreements = 0
        for B in corpus:
            for predicted, observed in zip(
                closure_mod.classifications(B, words),
                closure_mod.factorization_checks(B, topologies),
            ):
                if (
                    predicted.separated != observed.separated
                    or predicted.complete != observed.complete
                ):
                    disagreements += 1
        good = disagreements == 0
        ok = ok and good
        out.write(
            f"  cell-count classifier vs factorization counts on {kind}: "
            f"{len(corpus)} objects x {len(topologies)} topologies "
            f"{'PASS' if good else f'FAIL ({disagreements} disagreements)'}\n"
        )
    out.write("criteria suite — PASS\n" if ok else "criteria suite — FAIL\n")
    return ok


def _suite_fuzzy(out):
    ok = True
    # chain3 has four nuclei: id, join-with-1/2, constant top, and double
    # negation (0, 1, 1); the double-negation map is forced to be one by the
    # De Morgan property of chains.
    counts = {"chain2": 2, "chain3": 4, "diamond": 4}
    for name, want in counts.items():
        algebra = docio.NAMED_ALGEBRAS[name]()
        got = len(lattice.enumerate_nuclei(algebra))
        good = got == want
        ok = ok and good
        out.write(f"  nucleus count on {name}: expected {want}, got {got} {'PASS' if good else 'FAIL'}\n")
    chain5 = docio.NAMED_ALGEBRAS["chain5"]()
    half = 2  # index of 1/2 in the five-element chain
    mapping = tuple(max(x, half) for x in chain5.elements())
    op = fuzzy.QClosureOperator.from_nucleus(lattice.Nucleus(chain5, mapping))
    axioms = fuzzy.verify_qclosure(op, chain5)
    good = axioms is None
    ok = ok and good
    out.write(f"  closure axioms for join-with-1/2 on chain5: {'PASS' if good else 'FAIL ' + str(axioms)}\n")
    high = fuzzy.FuzzySet(chain5, ("a", "b"), (2, 4))
    low = fuzzy.FuzzySet(chain5, ("a", "b"), (1, 4))
    flags_high = fuzzy.classify_fuzzy(high, op)
    flags_low = fuzzy.classify_fuzzy(low, op)
    good = flags_high["sheaf"] and not flags_low["sheaf"]
    ok = ok and good
    out.write(f"  sheaves over chain5 are the sets with membership >= 1/2: {'PASS' if good else 'FAIL'}\n")
    out.write("fuzzy suite — PASS\n" if ok else "fuzzy suite — FAIL\n")
    return ok


SUITES = {
    "counts": _suite_counts,
    "closures": _suite_closures,
    "criteria": _suite_criteria,
    "fuzzy": _suite_fuzzy,
}


def _raised(exc):
    """What a route raised, for a FAIL line: the exception's type, the
    function it was raised in, and its message."""
    where = exc.__traceback__
    while where.tb_next is not None:
        where = where.tb_next
    return f"raised {type(exc).__name__} in {where.tb_frame.f_code.co_name}: {exc}"


def cmd_verify(args, out):
    bounds = {"--corpus-bound": args.corpus_bound, "--ambient-bound": args.ambient_bound}
    for flag, bound in bounds.items():
        if bound < 0:
            raise ValueError(f"{flag} must be >= 0, got {bound}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    kwargs = {
        "closures": {"corpus_bound": args.corpus_bound},
        "criteria": {"corpus_bound": args.corpus_bound},
    }
    all_ok = True
    for name in names:
        out.write(f"suite {name}:\n")
        try:
            good = SUITES[name](out, **kwargs.get(name, {}))
        except (BoundExceeded, OSError):
            raise  # an exceeded bound, or output that cannot be written
        except Exception as exc:
            # a route that crashes has failed its check
            out.write(f"  the {name} suite {_raised(exc)} FAIL\n{name} suite — FAIL\n")
            good = False
        all_ok = good and all_ok
    out.write("verification: PASS\n" if all_ok else "verification: FAIL\n")
    return OK if all_ok else VERIFY_FAILED


FLAG = "store_true"  # the type of an option that takes no value


class Option(Record):
    """One option of the command line, as ``add_argument`` takes it.

    ``type`` converts the value (``str`` or ``int``), or is ``FLAG`` for
    an option that is true when given and takes no value.
    """

    __slots__ = ("flag", "type", "default", "choices", "required", "help")
    _defaults = {"type": str, "default": None, "choices": None, "required": False, "help": None}

    @property
    def dest(self):
        """The attribute the value is stored as, named as argparse names it."""
        return self.flag[2:].replace("-", "_")


GLOBAL_OPTIONS = (Option("--max-dim", int, default=4, help="cap on simplex dimensions"),)
# name: (handler, help, options)
COMMANDS = {
    "omega": (cmd_omega, "print a classifying object", (
        Option("--category", required=True),
        Option("--level"),
        Option("--dot", FLAG, default=False),
    )),
    "topologies": (cmd_topologies, "enumerate all topologies", (
        Option("--category", required=True),
        Option("--method", default="auto", choices=("auto", "brute", "constrained")),
    )),
    "closure": (cmd_closure, "close a subobject under a topology", (
        Option("--topology", required=True, help="bit string, or bicolored label"),
        Option("--input", required=True, help="presheaf document"),
        Option("--sub", required=True, help="subobject document"),
    )),
    "classify": (cmd_classify, "separated/complete/sheaf flags", (
        Option("--topology", help="bit string (presheaf route)"),
        Option("--nucleus", help="nucleus document (fuzzy route)"),
        Option("--input", required=True, help="presheaf or fuzzy-set document"),
    )),
    "verify": (cmd_verify, "run the verification suites", (
        Option("--suite", default="all", choices=("all", *SUITES)),
        Option("--corpus-bound", int, default=4, help="max cells per corpus object"),
        Option("--ambient-bound", int, default=2, help="no effect; must be >= 0"),
    )),
}


def build_parser():
    """The argparse parser of ``GLOBAL_OPTIONS`` and ``COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="lttop",
        description="Topologies, closure operators, and sheaf classification "
        "on finite presheaf toposes and fuzzy sets.",
    )
    _add_options(parser, GLOBAL_OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        _add_options(p, options)
        p.set_defaults(func=func)
    return parser


def _add_options(parser, options):
    for o in options:
        if o.type is FLAG:
            kwargs = {"action": "store_true"}
        else:
            kwargs = {"type": o.type, "choices": o.choices}
        parser.add_argument(
            o.flag, dest=o.dest, default=o.default, required=o.required, help=o.help, **kwargs
        )


def parse_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives, for an
    ``argv`` of the form ``[--max-dim INT] COMMAND (--option VALUE |
    --flag)...`` with exact option names; None for any other.

    None covers help, every usage error, and the forms argparse reads
    more loosely: an abbreviated option, ``--option=value``, ``--``, and a
    value that starts with ``-``.
    """
    values = {}
    i = _read_options(argv, 0, GLOBAL_OPTIONS, values)
    if i is None or i == len(argv) or argv[i] not in COMMANDS:
        return None
    command = argv[i]
    func, _, options = COMMANDS[command]
    if _read_options(argv, i + 1, options, values) != len(argv):
        return None
    for o in (*GLOBAL_OPTIONS, *options):
        if o.dest not in values:
            if o.required:
                return None
            values[o.dest] = o.default
    return SimpleNamespace(command=command, func=func, **values)


def _read_options(argv, i, options, values):
    """Store the values of the ``options`` given from ``argv[i]`` on, up
    to the first other argument, and return its position; None for a
    value that is missing, starts with ``-``, or fails its type or
    choices."""
    by_flag = {o.flag: o for o in options}
    while i < len(argv) and argv[i] in by_flag:
        o = by_flag[argv[i]]
        if o.type is FLAG:
            values[o.dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        try:
            value = o.type(argv[i + 1])
        except ValueError:
            return None
        if o.choices is not None and value not in o.choices:
            return None
        values[o.dest] = value
        i += 2
    return i


def main(argv=None, out=None):
    """Run one command with ``argv`` (default ``sys.argv[1:]``), writing to
    ``out`` (default stdout), and return its exit code."""
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv) or build_parser().parse_args(argv)
    try:
        code = _run(args, out)
        out.flush()
        return code
    except OSError:
        # the output takes no more (``lttop ... | head``, a full disk): write
        # nothing more, and send what is still buffered to os.devnull so the
        # last flush stays quiet
        if out is sys.stdout:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), out.fileno())
        return INPUT_ERROR


def _run(args, out):
    """Run the command, or write its input error to ``out``; return the code."""
    if args.command == "classify" and (args.topology is None) == (args.nucleus is None):
        need = "needs" if args.topology is None else "takes only one of"
        out.write(f"error: classify {need} --topology or --nucleus\n")
        return INPUT_ERROR
    try:
        if args.max_dim < 0:
            raise ValueError(f"--max-dim must be >= 0, got {args.max_dim}")
        return args.func(args, out)
    except BrokenPipeError:
        raise  # the reader has gone: an output error, for main
    except DimensionCapExceeded as exc:
        out.write(
            f"error: dimension {exc.dim} exceeds the cap {exc.cap}; "
            f"pass --max-dim {exc.dim} to override\n"
        )
        return INPUT_ERROR
    except (ValueError, OSError, BoundExceeded) as exc:
        out.write(f"error: {exc}\n")
        return INPUT_ERROR


def console_entry():
    """The ``lttop`` process: run ``main``, flush stdout and stderr, and end
    with ``os._exit``.

    No output depends on the interpreter's teardown (module cleanup, the
    final garbage collection, freeing every object), so it is skipped;
    ``atexit`` handlers and finalizers do not run.  An exception that
    escapes ``main`` ends the process the normal way: that is how
    argparse's ``SystemExit`` answers ``--help`` and a usage error.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_entry()
