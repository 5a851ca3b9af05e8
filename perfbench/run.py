"""The lttop benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

One client drives a closed loop: the next request starts when the previous
one ends, and at most one work process runs at a time.  A run goes through
the workload's fixed request list in passes, always finishing the first
pass, and starts no request it expects to end after ``--seconds``.  Every
output is checked; a wrong one counts as a failed request.

Untraced (``--trace 0``) it reports the end-to-end metrics.  ``wall_s`` and
``cpu_s`` are the time of one pass of the list, summed from per-request
medians over the passes run; the request percentiles are taken over the
same per-request medians; ``setup_s`` is the median of cold imports of
``lttop.cli`` probed during the run.  Times are reported at a reference
speed: see REFERENCE_S.

Traced (``--trace 1``) it runs every request twice, untraced and traced
(installing perfbench/tracing.py's wrappers), in alternating order, and
reports per-layer metrics for one pass plus the tracing overhead.

The last line of stdout is one JSON object; the lines before it print the
same metrics for a reader.  The exit code is 0 when every output was right,
1 when one was wrong, and 2 when there is nothing to run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "req_p50_s": "s",
    "req_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYERS = ("cli", "session", "docio", "presheaf", "lattice", "omega", "topology", "closure", "fuzzy")
PER_LAYER = (
    "lattice.verify_heyting.calls",
    "lattice.verify_heyting.self_s",
    "lattice.from_leq.self_s",
    "omega.OmegaObject.calls",
    "omega.OmegaObject.self_s",
    "omega.sieves",
    "omega.characteristic_function.calls",
    "omega.characteristic_function.self_s",
    "topology.verify_topology.calls",
    "topology.verify_topology.self_s",
    "topology.enumerate_topologies.self_s",
    "topology.candidates",
    "topology.found",
    "topology.accept_ratio",
    "presheaf.FinitePresheaf.calls",
    "presheaf.FinitePresheaf.self_s",
    "presheaf.enumerate_subpresheaves.calls",
    "presheaf.enumerate_subpresheaves.yielded",
    "presheaf.enumerate_subpresheaves.self_s",
    "presheaf.enumerate_morphisms.calls",
    "presheaf.enumerate_morphisms.yielded",
    "presheaf.enumerate_morphisms.self_s",
    "fincat.face.calls",
    "closure.closure_via_chi.calls",
    "closure.closure_via_chi.self_s",
    "closure.closure_recursive.calls",
    "closure.closure_recursive.self_s",
    "closure.presheaf_corpus.calls",
    "closure.presheaf_corpus.self_s",
    "closure.factorization_check.calls",
    "closure.factorization_check.self_s",
    "closure.dense_tested",
    "closure.dense_ratio",
    "closure.classify.calls",
    "closure.classify.self_s",
    "lattice.enumerate_nuclei.self_s",
    "fuzzy.verify_qclosure.self_s",
    "fuzzy.fuzzy_closure.calls",
    "fuzzy.pullback_fuzzy.calls",
    "fuzzy.subobjects_of.yielded",
    "fuzzy.fuzzy_factorization_check.self_s",
    "docio.presheaf_from_doc.self_s",
    "docio.subobject_from_doc.self_s",
    "docio.fuzzyset_from_doc.self_s",
    "docio.nucleus_from_doc.self_s",
    *(f"layer.{layer}.self_s" for layer in LAYERS),
    "proc.startup_s",
    "trace.untraced_wall_s",
    "trace.traced_wall_s",
    "trace.overhead_frac",
    "trace.spans",
)

# The layer split each workload is expected to show (largest self time).
PREDICTED_LAYERS = {
    "catalog": ("lattice",),
    "verify": ("closure", "presheaf"),
    "fuzzy": ("fuzzy",),
}

# An untraced run has PROBE_SLOTS probe slots, one every seconds /
# PROBE_SLOTS.  A probe is a cold import of lttop.cli (setup_s) and one run
# of the speed reference below.  Probes are taken between requests: before
# a request, every slot that has fallen due is taken, so the slots that
# fall due during a long request are taken right after it; after the last
# request, the slots not yet taken are, and at least one.  Every request
# thus has a probe point just before it and one just after it.
PROBE_SLOTS = 15
# On a shared host, speed can drift by +-20 % over minutes, and every time
# metric drifts with it.  A fresh interpreter that
# runs a fixed piece of dict and tuple work, much like lttop's inner loops
# but importing nothing of lttop (-I also ignores PYTHONPATH), tracks that
# drift.  Its CPU time is the reference time: the work processes' wall
# time follows their CPU time, but a reference of 0.1 s also catches waits
# for a CPU that other tenants of the host hold for a moment, which double
# its wall time now and then.  Time metrics are reported at a fixed
# reference speed: a request's measured seconds x REFERENCE_S / (median of
# the reference times at the probe points just before and just after it);
# setup_s is scaled by the median of all reference times, which were taken
# beside its samples.
REFERENCE_PROGRAM = """
d = {}
for i in range(60000):
    k = (i % 97, i % 89)
    d[k] = d.get(k, 0) + 1
rows = [tuple(range(j, j + 40)) for j in range(400)]
s = 0
for r in rows:
    for q in rows[::20]:
        s += r[q[3] % 40]
"""
REFERENCE_S = 0.12
# A request still running after this long is killed and counts as failed.
REQUEST_LIMIT_S = 150


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class Bench:
    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        # Work processes import lttop from the checkout, with a bytecode
        # cache as an installed package has, and write UTF-8 output.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONIOENCODING="utf-8")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.serial = 0
        self.spawned_at = None

    def spawn(self, cmd):
        """Run one work process to its end: (wall s, cpu s, max RSS MB, code, stdout)."""
        self.serial += 1
        out_path = os.path.join(self.workdir, f"out-{self.serial}.txt")
        err_path = os.path.join(self.workdir, f"err-{self.serial}.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = self.spawned_at = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(REQUEST_LIMIT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        os.remove(out_path)
        if os.path.getsize(err_path) == 0:
            os.remove(err_path)
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024, proc.returncode, text

    def command(self, request, spans=None):
        python = sys.executable
        if request.kind == "session":
            cmd = [python, os.path.join(HERE, "fuzzy_session.py"), ",".join(request.args)]
            return cmd + ([spans, request.key] if spans else [])
        if spans:
            return [python, os.path.join(HERE, "worker.py"), spans, request.key, "--", *request.args]
        return [python, "-m", "lttop.cli", *request.args]

    def setup_sample(self):
        wall, _, _, code, _ = self.spawn([sys.executable, "-c", "import lttop.cli"])
        if code != 0:
            raise RuntimeError("importing lttop.cli failed")
        return wall

    def reference_sample(self):
        _, cpu, _, code, _ = self.spawn([sys.executable, "-I", "-c", REFERENCE_PROGRAM])
        if code != 0:
            raise RuntimeError("the reference program failed")
        return cpu

    def probe_point(self, probes, owed):
        """Take ``owed`` probes, and at least one, as one probe point."""
        point = []
        for _ in range(max(owed, 1)):
            probes["setup"].append(self.setup_sample())
            point.append(self.reference_sample())
        probes["points"].append(point)


class Record:
    """Everything measured for one request key."""

    def __init__(self):
        self.wall, self.cpu, self.rss = [], [], []
        # untraced samples: the index of the probe point taken before each
        self.before = []
        self.traced_wall = []
        self.layers = None
        self.startup = []


def schedule(requests, deadline, expected):
    """(turn, request) in run order: whole passes of the list, the first
    always; after it, no request expected to end after the deadline."""
    n_pass = 0
    while True:
        for n, request in enumerate(requests):
            if n_pass and time.perf_counter() + expected[request.key] > deadline:
                return
            yield n + n_pass, request
        n_pass += 1
        if time.perf_counter() >= deadline:
            return


def run_loop(bench, requests, seconds, traced):
    """The closed loop.  Returns (records, probes, attempted, failures)."""
    records = {r.key: Record() for r in requests}
    probes = {"setup": [], "points": []}
    attempted = 0
    failures = []
    start = time.perf_counter()
    expected = {}
    for turn, request in schedule(requests, start + seconds, expected):
        # slot k falls due at start + k x seconds / PROBE_SLOTS
        due = min(PROBE_SLOTS, int((time.perf_counter() - start) * PROBE_SLOTS / seconds) + 1)
        if not traced and due > len(probes["setup"]):
            bench.probe_point(probes, due - len(probes["setup"]))
        began = time.perf_counter()
        record = records[request.key]
        order = (False, True) if turn % 2 == 0 else (True, False)
        for with_trace in order if traced else (False,):
            spans = None
            if with_trace:
                spans = os.path.join(bench.workdir, f"spans-{bench.serial + 1}.json")
            wall, cpu, rss, code, out = bench.spawn(bench.command(request, spans))
            attempted += 1
            problem = request.check(out, code)
            if problem is not None:
                failures.append(f"{request.key}: {problem}")
            if with_trace:
                record.traced_wall.append(wall)
                with open(spans, encoding="utf-8") as handle:
                    doc = json.load(handle)
                # perf_counter is the system-wide monotonic clock, so the
                # worker's span times and spawned_at are comparable
                top, _ = tracing.root_span(doc, "session" if request.kind == "session" else "cli.main")
                record.startup.append(top - bench.spawned_at - doc["install_s"])
                if record.layers is None:
                    record.layers = tracing.summarize(doc)
                else:
                    os.remove(spans)
            else:
                record.wall.append(wall)
                record.cpu.append(cpu)
                record.rss.append(rss)
                record.before.append(len(probes["points"]) - 1)
        expected[request.key] = time.perf_counter() - began
    if not traced:
        bench.probe_point(probes, PROBE_SLOTS - len(probes["setup"]))
    return records, probes, attempted, failures


def summarize(records, setup, scale=lambda record, i: 1.0):
    """End-to-end metrics from per-key medians of the samples, each sample
    multiplied by ``scale(record, sample index)``."""

    def medians(samples):
        return [
            statistics.median(x * scale(r, i) for i, x in enumerate(getattr(r, samples)))
            for r in records.values()
        ]

    walls = medians("wall")
    deciles = statistics.quantiles(walls, n=10, method="inclusive") if len(walls) > 1 else walls * 9
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(medians("cpu")),
        "req_p50_s": statistics.median(walls),
        "req_p90_s": deciles[8],
        "peak_rss_mb": max(max(r.rss) for r in records.values()),
        "setup_s": setup,
    }


def end_to_end(records, probes):
    """Measured metrics, the same at the reference speed, and the median
    speed factor of the run."""
    points = probes["points"]

    def speed(record, i):
        before = record.before[i]
        return REFERENCE_S / statistics.median(points[before] + points[before + 1])

    setup = statistics.median(probes["setup"])
    run_speed = REFERENCE_S / statistics.median(t for point in points for t in point)
    measured = summarize(records, setup)
    adjusted = summarize(records, setup * run_speed, speed)
    return measured, adjusted, run_speed


def per_layer(records):
    totals = {}
    for record in records.values():
        for key, value in record.layers.items():
            totals[key] = totals.get(key, 0) + value
    out = {name: totals.get(name, 0) for name in PER_LAYER}
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in totals.items() if k.startswith(layer + ".") and k.endswith(".self_s")
        )
    candidates = out["topology.candidates"]
    out["topology.accept_ratio"] = out["topology.found"] / candidates if candidates else 0.0
    tested = out["closure.dense_tested"]
    out["closure.dense_ratio"] = totals.get("closure.dense_found", 0) / tested if tested else 0.0
    out["proc.startup_s"] = statistics.median(s for r in records.values() for s in r.startup)
    untraced = sum(sum(r.wall) for r in records.values())
    traced = sum(sum(r.traced_wall) for r in records.values())
    out["trace.untraced_wall_s"] = untraced
    out["trace.traced_wall_s"] = traced
    out["trace.overhead_frac"] = traced / untraced - 1
    return out


def layer_report(workload, metrics):
    """One line per layer, largest self time first, and the prediction check."""
    shares = sorted(
        ((metrics[f"layer.{layer}.self_s"], layer) for layer in LAYERS), reverse=True
    )
    total = sum(v for v, _ in shares) or 1.0
    lines = [f"  layer {layer:9s} {v:9.3f} s  {v / total:6.1%} of traced self time {total:.3f} s" for v, layer in shares]
    predicted = PREDICTED_LAYERS.get(workload)
    if predicted:
        top = tuple(sorted(layer for _, layer in shares[: len(predicted)]))
        verdict = "matches" if top == tuple(sorted(predicted)) else "DOES NOT MATCH"
        lines.append(f"  predicted largest {'+'.join(predicted)}; measured {'+'.join(top)}: {verdict}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lttop", "cli.py")):
        print("error: run from the root of an lttop checkout (src/lttop is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workdir = os.path.join(
        root, ".bench_build", "perfbench", f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    )
    os.makedirs(workdir, exist_ok=True)
    bench = Bench(root, workdir)
    requests = workloads.build(args.workload, args.seed, workdir)
    bench.setup_sample()  # compiles the bytecode cache; not measured
    records, probes, attempted, failures = run_loop(bench, requests, args.seconds, bool(args.trace))

    for failure in failures:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests per pass, "
          f"{attempted} attempted, {len(failures)} failed, fail_frac {len(failures) / attempted:.4f}")
    if args.trace:
        metrics = per_layer(records)
        units = {name: unit_of(name) for name in metrics}
        print(f"  trace.overhead_frac {metrics['trace.overhead_frac']:.4f} = traced "
              f"{metrics['trace.traced_wall_s']:.3f} s / untraced {metrics['trace.untraced_wall_s']:.3f} s - 1")
        for line in layer_report(args.workload, metrics):
            print(line)
    else:
        measured, metrics, speed = end_to_end(records, probes)
        units = END_TO_END
        samples = sum(len(r.wall) for r in records.values())
        print(f"  {samples} request samples over {len(records)} request keys; "
              f"req_p50_s and req_p90_s are over the {len(records)} per-key medians; "
              f"setup_s is the median of {len(probes['setup'])} cold imports")
        print(f"  times at reference speed: each request's measured time x {REFERENCE_S} s / "
              f"median reference CPU time around it, over {len(probes['points'])} probe points; "
              f"setup_s x {speed:.4f}, from the median of all {len(probes['setup'])} reference runs")
        for name, value in measured.items():
            print(f"  measured {name} {value:.6g} {units[name]}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, "measured": None if args.trace else measured,
                   "probes": None if args.trace else probes, "failures": failures,
                   "records": {k: vars(r) for k, r in records.items()}}, handle, indent=1)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
