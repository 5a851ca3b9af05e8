"""Command-line surface.

Subcommands: ``omega`` (print or export classifying objects), ``topologies``
(enumerate and tabulate), ``closure`` (close a subobject, report density),
``classify`` (separated/complete/sheaf flags for presheaves or fuzzy sets),
and ``verify`` (the theorem-verification suites).

Exit codes: 0 ok, 1 verification failure, 2 input error or an exceeded
size bound.  All output is deterministic for fixed inputs and flags.
"""

import argparse
import sys

from . import closure as closure_mod
from . import docio, fuzzy, lattice
from .fincat import (
    FAMILY_BICOLOR,
    FAMILY_FULL,
    FAMILY_SEMI,
    DimensionCapExceeded,
    build_index_category,
)
from .omega import characteristic_function, classifying_object, hasse_covers, hasse_dot, sieve_label
from .presheaf import BoundExceeded, enumerate_subpresheaves
from .topology import (
    DegeneracyIncompatible,
    enumerate_topologies,
    topology_by_tag,
)

OK, VERIFY_FAILED, INPUT_ERROR = 0, 1, 2


def _category(args):
    try:
        return build_index_category(args.category, max_dim=args.max_dim)
    except DimensionCapExceeded as exc:
        raise ValueError(
            f"dimension {exc.dim} exceeds the cap {exc.cap}; pass --max-dim {exc.dim} to override"
        ) from None


def cmd_omega(args, out):
    category = _category(args)
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
    category = _category(args)
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
    P = docio.presheaf_from_doc(docio.load_json(args.input))
    category = P.category
    sub = docio.subobject_from_doc(docio.load_json(args.sub), P)
    j = topology_by_tag(category, args.topology)
    closed = closure_mod.closure_via_chi(j, sub)
    for c in category.objects:
        added = closed.level_mask(c) & ~sub.level_mask(c)
        names = ", ".join(str(x) for i, x in enumerate(P.carrier(c)) if added >> i & 1)
        out.write(f"level {c}: added [{names}]\n")
    if category.family in (FAMILY_SEMI, FAMILY_FULL) and j.tag is not None:
        if closure_mod.closure_recursive(j.tag, sub) != closed:
            out.write("closure mismatch between the two computation routes\n")
            return VERIFY_FAILED
    out.write("dense\n" if closed.is_full else "not dense\n")
    return OK


def cmd_classify(args, out):
    if args.nucleus is not None:
        return _classify_fuzzy(args, out)
    P = docio.presheaf_from_doc(docio.load_json(args.input))
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
    if B.algebra.size != algebra.size or any(
        B.algebra.leq(a, b) != algebra.leq(a, b)
        for a in range(algebra.size)
        for b in range(algebra.size)
    ):
        raise docio.DocumentError("fuzzy set and nucleus use different algebras")
    op = fuzzy.QClosureOperator.from_nucleus(lattice.Nucleus(algebra, mapping))
    flags = fuzzy.classify_fuzzy(B, op)
    out.write(f"separated: {flags['separated']}\n")
    out.write(f"sheaf: {flags['sheaf']}\n")
    return OK


# -- verification suites ----------------------------------------------------


def _suite_counts(out):
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
        for method in methods:
            found[method] = enumerate_topologies(category, method=method)
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
        omega = classifying_object(category)
        corpus = closure_mod.presheaf_corpus(category, corpus_bound)
        checked = 0
        mismatch = None
        for P in corpus:
            for sub in enumerate_subpresheaves(P):
                # chi_sub does not depend on j: compute it once per subobject
                chi = characteristic_function(sub, omega)
                for j in topologies:
                    via_chi = closure_mod._closure_from_chi(j, chi)
                    recursive = closure_mod.closure_recursive(j.tag, sub)
                    checked += 1
                    if via_chi != recursive:
                        mismatch = (P, sub, j.tag)
                        break
        good = mismatch is None
        ok = ok and good
        out.write(
            f"  closure via characteristic map vs recursive on {kind}: "
            f"{checked} instances {'PASS' if good else 'FAIL ' + str(mismatch)}\n"
        )
    out.write("closures suite — PASS\n" if ok else "closures suite — FAIL\n")
    return ok


def _suite_criteria(out, corpus_bound, ambient_bound):
    ok = True
    for kind in ("graph", "reflgraph"):
        category = build_index_category(kind)
        topologies = enumerate_topologies(category)
        corpus = closure_mod.presheaf_corpus(category, corpus_bound)
        ambients = closure_mod.default_ambients(category, ambient_bound)
        disagreements = 0
        for B in corpus:
            for j in topologies:
                predicted = closure_mod.classify(B, j.tag)
                observed = closure_mod.factorization_check(B, j, ambients)
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


def cmd_verify(args, out):
    bounds = {"--corpus-bound": args.corpus_bound, "--ambient-bound": args.ambient_bound}
    for flag, bound in bounds.items():
        if bound < 0:
            raise ValueError(f"{flag} must be >= 0, got {bound}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    kwargs = {
        "closures": {"corpus_bound": args.corpus_bound},
        "criteria": {"corpus_bound": args.corpus_bound, "ambient_bound": args.ambient_bound},
    }
    all_ok = True
    for name in names:
        out.write(f"suite {name}:\n")
        all_ok = SUITES[name](out, **kwargs.get(name, {})) and all_ok
    out.write("verification: PASS\n" if all_ok else "verification: FAIL\n")
    return OK if all_ok else VERIFY_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lttop",
        description="Topologies, closure operators, and sheaf classification "
        "on finite presheaf toposes and fuzzy sets.",
    )
    parser.add_argument("--max-dim", type=int, default=4, help="cap on simplex dimensions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("omega", help="print a classifying object")
    p.add_argument("--category", required=True)
    p.add_argument("--level", default=None)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("topologies", help="enumerate all topologies")
    p.add_argument("--category", required=True)
    p.add_argument("--method", default="auto", choices=["auto", "brute", "constrained"])
    p.set_defaults(func=cmd_topologies)

    p = sub.add_parser("closure", help="close a subobject under a topology")
    p.add_argument("--topology", required=True, help="bit string, or bicolored label")
    p.add_argument("--input", required=True, help="presheaf document")
    p.add_argument("--sub", required=True, help="subobject document")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("classify", help="separated/complete/sheaf flags")
    p.add_argument("--topology", default=None, help="bit string (presheaf route)")
    p.add_argument("--nucleus", default=None, help="nucleus document (fuzzy route)")
    p.add_argument("--input", required=True, help="presheaf or fuzzy-set document")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", default="all", choices=["all", *SUITES])
    p.add_argument("--corpus-bound", type=int, default=4, help="max cells per corpus object")
    p.add_argument("--ambient-bound", type=int, default=2, help="max cells per ambient object")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "classify" and args.topology is None and args.nucleus is None:
        out.write("error: classify needs --topology or --nucleus\n")
        return INPUT_ERROR
    try:
        if args.max_dim < 0:
            raise ValueError(f"--max-dim must be >= 0, got {args.max_dim}")
        return args.func(args, out)
    except (docio.DocumentError, DegeneracyIncompatible, ValueError, OSError, BoundExceeded) as exc:
        out.write(f"error: {exc}\n")
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
