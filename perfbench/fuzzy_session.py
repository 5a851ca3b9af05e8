"""The ``fuzzy`` workload: one library session over several algebras.

``python perfbench/fuzzy_session.py ALGEBRA[,ALGEBRA...] [SPANS REQUEST]``

For each named algebra, in the given order: enumerate its nuclei, check the
quasitopos closure axioms (carriers up to 3) for every nucleus-induced
operator and for the trivial one, and classify every fuzzy set with at most
two elements under each operator.  Prints one JSON object with the results.
With SPANS, the session runs traced and writes its spans there.
"""

import json
import sys

import tracing


def session(names):
    from lttop import docio, fuzzy, lattice

    results = {}
    for name in names:
        L = docio.NAMED_ALGEBRAS[name]()
        nuclei = lattice.enumerate_nuclei(L)
        ops = [("trivial", fuzzy.QClosureOperator.trivial())]
        ops += [
            (",".join(map(str, nu.mapping)), fuzzy.QClosureOperator.from_nucleus(nu))
            for nu in nuclei
        ]
        corpus = fuzzy.fuzzy_corpus(L, 2)
        qclosure = {}
        classified = {}
        for key, op in ops:
            problem = fuzzy.verify_qclosure(op, L, max_carrier=3)
            qclosure[key] = None if problem is None else problem.axiom
            flags = (fuzzy.classify_fuzzy(B, op) for B in corpus)
            classified[key] = "".join("TF"[not f["separated"]] + "TF"[not f["sheaf"]] for f in flags)
        results[name] = {
            "nuclei": [list(nu.mapping) for nu in nuclei],
            "qclosure": qclosure,
            "classify": classified,
            "corpus": [list(B.membership) for B in corpus],
        }
    return results


def main():
    names = sys.argv[1].split(",")
    if len(sys.argv) > 2:
        tracer = tracing.install(sys.argv[3])
        run = tracer.span("session", session)
        try:
            results = run(names)
        finally:
            tracer.dump(sys.argv[2])
    else:
        results = session(names)
    json.dump(results, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
