"""Tests of the benchmark itself: the output gate, the document generator and
the tracer.  Run from the repository root with ``python3 -m pytest perfbench``.
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import docgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def lttop(argv):
    from lttop.cli import main

    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# -- the gate ------------------------------------------------------------------


def test_catalog_gate_accepts_the_recorded_output_and_rejects_a_wrong_count():
    argv = ["topologies", "--category", "reflgraph"]
    check = workloads.check_catalog(argv, workloads.load_digests())
    code, out = lttop(argv)
    assert check(out, code) is None
    assert check(out.replace("3 topologies", "4 topologies", 1), code) is not None
    assert check(out + "\n", code) is not None  # same count, different bytes
    assert check(out, 1) is not None


def test_verify_and_document_gates_reject_wrong_outputs():
    good = workloads.COUNTS_LINE + "\nverification: PASS\n"
    assert workloads.check_verify(good, 0) is None
    assert workloads.check_verify(good.replace("PASS\n", "FAIL\n"), 1) is not None
    assert workloads.check_verify("verification: PASS\n", 0) is not None
    check = workloads.check_lines(["separated: True", "sheaf: False"])
    assert check("separated: True\nsheaf: False\n", 0) is None
    assert check("separated: True\nsheaf: True\n", 0) is not None


def test_fuzzy_gate_rejects_a_missing_nucleus_or_fuzzy_set():
    expected = workloads.fuzzy_expectations()
    assert [len(expected[n][1]) for n in ("chain2", "chain3", "diamond")] == [2, 4, 4]
    assert len(expected["chain5"][1]) == 16
    assert len(expected["chain2"][2]) == 1 + 2 + 2 * 2
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "fuzzy_session.py"), "chain2,diamond"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, check=True,
    )
    results = json.loads(proc.stdout)
    check = workloads.check_fuzzy({name: expected[name] for name in results})
    assert check(proc.stdout, 0) is None
    missing_nucleus = json.loads(proc.stdout)
    missing_nucleus["diamond"]["nuclei"].pop()
    assert check(json.dumps(missing_nucleus), 0) is not None
    # a session that classifies fewer fuzzy sets, with flags to match
    smaller_corpus = json.loads(proc.stdout)
    smaller_corpus["chain2"]["corpus"].pop()
    for key, flags in smaller_corpus["chain2"]["classify"].items():
        smaller_corpus["chain2"]["classify"][key] = flags[:-2]
    assert check(json.dumps(smaller_corpus), 0) is not None


def _fake_checkout(tmp_path, cli_source):
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if cli_source is not None:
        (root / "src" / "lttop").mkdir(parents=True)
        (root / "src" / "lttop" / "__init__.py").write_text("")
        (root / "src" / "lttop" / "cli.py").write_text(cli_source)
    return root


def _bench(root):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def test_a_wrong_output_fails_the_run(tmp_path):
    # a CLI that answers every catalog request with a wrong topology count
    root = _fake_checkout(tmp_path, 'print("1 topologies on set")\n')
    proc = _bench(root)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_without_the_program_the_run_stops_with_no_result(tmp_path):
    proc = _bench(_fake_checkout(tmp_path, None))
    assert proc.returncode == 2
    assert proc.stdout == ""


# -- the generator ---------------------------------------------------------------


def _requests(seed, directory):
    requests = docgen.build_requests(seed, str(directory))
    docs = {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}
    for r in requests:
        r["argv"] = [a.replace(str(directory), "<dir>") for a in r["argv"]]
    return requests, docs


def test_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path):
    first = _requests(7, tmp_path / "a")
    assert first == _requests(7, tmp_path / "b")
    other = _requests(8, tmp_path / "c")
    assert first[0] != other[0] and first[1] != other[1]
    assert len(first[0]) >= 100
    assert sorted(r["key"] for r in first[0]) == sorted(r["key"] for r in other[0])


def test_generated_expectations_match_the_program(tmp_path):
    for r in docgen.build_requests(3, str(tmp_path)):
        if r["key"].endswith(("-0", "-1")):
            code, out = lttop(r["argv"])
            assert (code, out.splitlines()) == (0, r["expect"]), r["key"]


def test_classify_expectations_cover_both_answers(tmp_path):
    requests = docgen.build_requests(5, str(tmp_path))
    flags = {line for r in requests for line in r["expect"] if line.startswith(("separated", "complete", "sheaf"))}
    assert {"separated: True", "separated: False", "sheaf: True", "sheaf: False"} <= flags


# -- the tracer ------------------------------------------------------------------


def test_traced_request_reports_layers_with_consistent_self_time(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), str(spans), "r1", "--",
         "topologies", "--category", "semisimplex:2"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.startswith("8 topologies on semisimplex:2")
    doc = json.loads(spans.read_text())
    summary = tracing.summarize(doc)
    assert summary["topology.found"] == 8
    assert summary["omega.sieves"] == 2 + 5 + 19
    assert summary["topology.candidates"] >= 8
    assert summary["cli.main.calls"] == 1
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    start, end = tracing.root_span(doc, "cli.main")
    assert total_self == pytest.approx(end - start, rel=1e-6)
    assert all(v >= -1e-9 for k, v in summary.items() if k.endswith(".self_s"))


def test_benchmark_file_names_every_metric_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
