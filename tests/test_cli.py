"""Command-line surface: output shapes, document handling, exit codes."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

try:
    import fcntl
except ImportError:  # not on Windows
    fcntl = None

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lttop
from lttop.cli import main
from lttop.presheaf import Subpresheaf

PATH_GRAPH = {
    "category": "graph",
    "levels": {"0": ["a", "b", "c"], "1": ["ab", "bc"]},
    "actions": {
        "d1_1": {"ab": "a", "bc": "b"},
        "d1_0": {"ab": "b", "bc": "c"},
    },
}

PARALLEL_GRAPH = {
    "category": "graph",
    "levels": {"0": ["u", "v"], "1": ["e1", "e2"]},
    "actions": {
        "d1_1": {"e1": "u", "e2": "u"},
        "d1_0": {"e1": "v", "e2": "v"},
    },
}

VERTICES_ONLY_SUB = {"of": "path", "levels": {"0": ["a", "b", "c"], "1": []}}

NUCLEUS_DOC = {
    "algebra": "chain5",
    "map": {"0": "1/2", "1/4": "1/2", "1/2": "1/2", "3/4": "3/4", "1": "1"},
}

FUZZY_HIGH = {
    "algebra": "chain5",
    "carrier": ["a", "b"],
    "membership": {"a": "1/2", "b": "1"},
}

FUZZY_LOW = {
    "algebra": "chain5",
    "carrier": ["a", "b"],
    "membership": {"a": "1/4", "b": "1"},
}


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_omega_levels_line():
    code, text = run(["omega", "--category", "graph"])
    assert code == 0
    assert text.splitlines()[0] == "levels: 2, 5"
    code, text = run(["omega", "--category", "set"])
    assert code == 0 and text.splitlines()[0] == "levels: 2"
    code, text = run(["omega", "--category", "semisimplex:2", "--level", "2"])
    assert code == 0 and text.splitlines()[0] == "levels: 2, 5, 19"


def test_omega_dot_output_is_stable():
    code, first = run(["omega", "--category", "graph", "--dot", "--level", "1"])
    assert code == 0 and first.startswith('digraph "omega_1"')
    assert run(["omega", "--category", "graph", "--dot", "--level", "1"])[1] == first


def test_catalog_output_matches_the_recorded_digests():
    # omega, cover and DOT output must stay byte-identical; the benchmark
    # records the SHA-256 of each catalog request's stdout
    path = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    digests = json.loads(path.read_text(encoding="utf-8"))
    assert len(digests) == 38
    for key, want in digests.items():
        code, text = run(key.split(" "))
        assert code == 0, key
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, key


def modules_a_request_loads(argv):
    """The first output line of ``main(argv)`` in a fresh process, its exit
    code, and the modules importing lttop.cli and running it load."""
    program = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import lttop.cli\n"
        f"code = lttop.cli.main({argv!r})\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps([code, loaded]))\n"
    )
    src = str(Path(lttop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    code, loaded = json.loads(lines[-1])
    return lines[0], code, set(loaded)


def test_cli_start_up_imports_neither_dataclasses_nor_inspect(tmp_path):
    # every request is a fresh process, so what importing the CLI pulls in
    # is paid on each one; dataclasses imports inspect, ast, dis and tokenize.
    # A well-formed command line is read without argparse (with gettext and
    # locale), and json is loaded only by a command that reads a document
    first, code, loaded = modules_a_request_loads(["topologies", "--category", "graph"])
    assert first == "4 topologies on graph"
    assert code == 0 and "lttop.cli" in loaded
    unwanted = {"dataclasses", "inspect", "argparse", "gettext", "locale", "json"}
    assert not loaded & unwanted, loaded & unwanted
    graph = write(tmp_path, "g.json", PATH_GRAPH)
    first, code, loaded = modules_a_request_loads(["classify", "--topology", "01", "--input", graph])
    assert (first, code) == ("separated: True", 0)
    assert "json" in loaded and not loaded & (unwanted - {"json"})


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs a resizable pipe")
def test_a_reader_that_leaves_early_gets_no_traceback():
    # like `lttop omega ... | head -1`: the pipe holds one page, so the CLI
    # is still writing when the reader closes it after the first line
    src = str(Path(lttop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    command = [sys.executable, "-m", "lttop.cli", "omega", "--category", "simplex:3", "--level", "3"]
    with subprocess.Popen(command, stdout=write_end, stderr=subprocess.PIPE, env=env) as proc:
        os.close(write_end)
        with open(read_end, "rb", buffering=0) as reader:
            assert reader.readline() == b"levels: 2, 5, 19, 167\n"
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert "Traceback" not in stderr, stderr


def cli_env(unbuffered=False):
    """The environment of a ``python -m lttop.cli`` process run from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(lttop.__file__).resolve().parents[1]))
    env.update(PYTHONIOENCODING="utf-8", COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
@pytest.mark.parametrize(
    "argv",
    [
        ["omega", "--category", "graph"],
        ["omega", "--category", "nosuch"],
        ["--max-dim", "-1", "omega", "--category", "set"],
        ["classify", "--input", "doc.json"],
    ],
)
def test_output_that_cannot_be_written_exits_2_quietly(argv, target, unbuffered):
    # the error paths too go through the flush that handles a gone reader:
    # their message is written after the reader has left
    if target == "closed pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        sink = os.fdopen(write_end, "wb")
    elif os.path.exists(target):
        sink = open(target, "wb")
    else:
        pytest.skip(f"no {target}")
    with sink:
        proc = subprocess.run(
            [sys.executable, "-m", "lttop.cli", *argv],
            stdout=sink,
            stderr=subprocess.PIPE,
            env=cli_env(unbuffered),
            timeout=60,
        )
    assert proc.returncode == 2 and proc.stderr == b""


CATALOG_CATEGORIES = [
    "set",
    "graph",
    "reflgraph",
    "bicolgraph",
    *(f"{family}:{n}" for family in ("semisimplex", "simplex") for n in (1, 2, 3)),
]


@pytest.mark.parametrize(
    "argv, code, to_file",
    [
        *(
            ([command, "--category", kind], 0, False)
            for command in ("omega", "topologies")
            for kind in CATALOG_CATEGORIES
        ),
        (["omega", "--category", "simplex:3", "--level", "3", "--dot"], 0, True),
        (["omega", "--category", "nosuch"], 2, False),
        (["omega", "--category", "graph", "--bogus"], 2, False),
        (["--help"], 0, False),
        (["omega", "--help"], 0, False),
        (["verify", "--suite", "nosuch"], 2, False),
        (["verify", "--corpus-bound", "x"], 2, False),
        (["closure", "--topology", "0"], 2, False),
        (["omega", "--cat", "set"], 0, False),
        (["omega", "--category=set"], 0, False),
    ],
)
def test_the_process_writes_what_main_writes(argv, code, to_file, tmp_path, capsys, monkeypatch):
    # the process ends with os._exit: it must lose no output and keep the
    # exit codes, argparse's usage error and --help included
    monkeypatch.setenv("COLUMNS", "80")
    try:
        want_code = main(argv)
    except SystemExit as exc:
        want_code = exc.code
    want = capsys.readouterr()
    assert want_code == code
    path = tmp_path / "stdout"
    with open(path, "wb") as sink:
        proc = subprocess.run(
            [sys.executable, "-m", "lttop.cli", *argv],
            stdout=sink if to_file else subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(),
            timeout=60,
        )
    stdout = path.read_bytes() if to_file else proc.stdout
    assert proc.returncode == code
    assert stdout == want.out.encode("utf-8")
    assert proc.stderr == want.err.encode("utf-8")
    if argv[-1] == "--bogus":
        assert proc.stderr.startswith(b"usage: lttop ")


@pytest.mark.parametrize("launch", ["python -m", "console script"])
@pytest.mark.parametrize(
    "argv, code",
    [(["topologies", "--category", "graph"], 0), (["omega", "--category", "nosuch"], 2)],
)
def test_the_process_entry_skips_interpreter_teardown(launch, argv, code):
    # the saving is the teardown os._exit skips: an atexit handler, which
    # runs at the start of teardown, must not run, however the CLI starts
    if launch == "python -m":
        start = "import runpy\nrunpy.run_module('lttop.cli', run_name='__main__')\n"
    else:
        # as the wrapper setuptools writes for [project.scripts]
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["lttop"]
        module, name = target.split(":")
        start = f"from {module} import {name}\nsys.exit({name}())\n"
    program = (
        "import atexit, os, sys\n"
        "atexit.register(os.write, 2, b'atexit handler ran')\n"
        f"sys.argv = ['lttop', *{argv!r}]\n" + start
    )
    proc = subprocess.run(
        [sys.executable, "-c", program], env=cli_env(), capture_output=True, timeout=60
    )
    assert proc.returncode == code
    assert proc.stderr == b""
    assert proc.stdout == run(argv)[1].encode("utf-8")
    # a library caller still gets the code back, in a process that goes on
    assert main(argv, out=io.StringIO()) == code


# -- the command-line reader against argparse ---------------------------------

ODD_VALUES = ["", "-1", "+3", " 4", "٣", "0", "7", "set", "graph", "01"]
CHOSEN_VALUES = ["auto", "brute", "constrained", "all", "fuzzy", "counts", "nosuch", "ALL"]


def argparse_reads(parser, argv):
    """``vars`` of argparse's namespace for ``argv``, or None where it
    writes help or a usage error and exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def argv_corpus():
    """(argv, plain) pairs: every subcommand with every ordered subset of
    its options, under seeded odd, chosen and missing values, then each
    with ``--max-dim`` before it, a repeated option, ``-h`` in several
    places, ``--``, and an ``=`` or abbreviated option.  ``plain`` marks
    the command lines that use exact option names and no ``-h`` or
    ``--``."""
    from lttop.cli import COMMANDS, FLAG

    rng = random.Random(0)
    for command, (_, _, options) in COMMANDS.items():
        for k in range(len(options) + 1):
            for order in itertools.permutations(options, k):
                for _ in range(12):
                    words = [
                        [o.flag] if o.type is FLAG
                        else [o.flag, rng.choice(ODD_VALUES + CHOSEN_VALUES)]
                        for o in order
                    ]
                    argv = [command, *itertools.chain(*words)]
                    yield argv, True
                    yield ["--max-dim", rng.choice(ODD_VALUES), *argv], True
                    yield ["--max-dim", "2", "--max-dim", "3", *argv], True
                    if not words:
                        continue
                    yield [*argv, *rng.choice(words)], True
                    for at in (0, 1, len(argv), rng.randrange(len(argv) + 1)):
                        yield [*argv[:at], "-h", *argv[at:]], False
                    yield [*argv, "--", *rng.choice(words)], False
                    n = rng.randrange(len(words))
                    flag, *value = words[n]
                    for form in (
                        [f"{flag}={value[0]}"] if value else [f"{flag}="],
                        [flag[:-1], *value],
                    ):
                        yield [command, *itertools.chain(*words[:n], form, *words[n + 1:])], False


def test_parse_args_reads_what_argparse_reads():
    from lttop.cli import COMMANDS, GLOBAL_OPTIONS, build_parser, parse_args

    flags = {o.flag for o in GLOBAL_OPTIONS}
    flags.update(o.flag for _, _, options in COMMANDS.values() for o in options)
    parser = build_parser()
    read = fallback = 0
    for argv, plain in argv_corpus():
        got = parse_args(argv)
        if not plain:
            assert got is None, argv
            continue
        want = argparse_reads(parser, argv)
        if got is not None:
            assert vars(got) == want, argv
            read += 1
        elif want is not None:
            # argparse reads a value such as "-1" as a value; parse_args
            # leaves a value that starts with "-" to it
            assert any(word.startswith("-") and word not in flags for word in argv), argv
            fallback += 1
    assert read > 1000 and fallback > 0, (read, fallback)


def readme_command_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line.split("#")[0])[1:] for line in block.splitlines()]
    argvs.append(["--max-dim", "5", "omega", "--category", "simplex:5"])
    return argvs


def test_parse_args_reads_every_documented_and_benchmarked_command_line(tmp_path, monkeypatch):
    from lttop.cli import build_parser, parse_args

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    argvs = readme_command_lines()
    assert len(argvs) == 10
    for workload in ("catalog", "verify", "documents"):
        argvs += [r.args for r in workloads.build(workload, 1, str(tmp_path))]
    parser = build_parser()
    for argv in argvs:
        got = parse_args(argv)
        assert got is not None, argv
        assert vars(got) == argparse_reads(parser, argv), argv


def test_max_dim_is_validated_and_named_in_the_cap_error():
    code, text = run(["--max-dim", "-1", "omega", "--category", "simplex:2"])
    assert code == 2 and text == "error: --max-dim must be >= 0, got -1\n"
    code, text = run(["--max-dim", "-2", "verify", "--suite", "fuzzy"])
    assert code == 2 and text == "error: --max-dim must be >= 0, got -2\n"
    code, text = run(["--max-dim", "1", "topologies", "--category", "simplex:2"])
    assert code == 2
    assert text == "error: dimension 2 exceeds the cap 1; pass --max-dim 2 to override\n"
    code, text = run(["omega", "--category", "semisimplex:5"])
    assert code == 2
    assert text == "error: dimension 5 exceeds the cap 4; pass --max-dim 5 to override\n"
    code, text = run(["--max-dim", "0", "topologies", "--category", "simplex:0"])
    assert code == 0 and text.startswith("2 topologies on simplex:0")


def test_max_dim_reaches_the_documents(tmp_path):
    # the cap applies to a document's category as to --category, and the
    # cap error names the flag that lifts it
    empty5 = write(tmp_path, "empty5.json", {"category": "semisimplex:5", "levels": {}, "actions": {}})
    code, text = run(["classify", "--topology", "000000", "--input", empty5])
    assert code == 2
    assert text == "error: dimension 5 exceeds the cap 4; pass --max-dim 5 to override\n"
    code, text = run(["--max-dim", "5", "classify", "--topology", "000000", "--input", empty5])
    assert code == 0 and text == "separated: True\ncomplete: True\nsheaf: True\n"
    empty3 = write(tmp_path, "empty3.json", {"category": "semisimplex:3", "levels": {}, "actions": {}})
    sub3 = write(tmp_path, "sub3.json", {"of": "empty3", "levels": {}})
    for argv in (
        ["classify", "--topology", "0000", "--input", empty3],
        ["closure", "--topology", "0000", "--input", empty3, "--sub", sub3],
    ):
        code, text = run(["--max-dim", "2", *argv])
        assert code == 2
        assert text == "error: dimension 3 exceeds the cap 2; pass --max-dim 3 to override\n"
        assert run(argv)[0] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["omega", "--category", "graph", "--level", "9"], "unknown level '9' for graph"),
        (["omega", "--category", "graph", "--level", "9", "--dot"], "unknown level '9' for graph"),
        (["omega", "--category", "simplex:"], "bad dimension '' in 'simplex:'"),
        (["topologies", "--category", "simplex:x"], "bad dimension 'x' in 'simplex:x'"),
        (["omega", "--category", "graph:one"], "bad dimension 'one' in 'graph:one'"),
        (["topologies", "--category", "bicolgraph:7"], "'bicolgraph:7' has no dimension"),
    ],
)
def test_bad_level_or_dimension_is_reported_before_any_output(argv, message):
    code, text = run(argv)
    assert code == 2 and text == f"error: {message}\n"


def test_topologies_tables():
    code, text = run(["topologies", "--category", "graph"])
    assert code == 0
    assert text.splitlines()[0] == "4 topologies on graph"
    code, text = run(["topologies", "--category", "reflgraph"])
    assert "3 topologies" in text
    for tag in ("00", "01", "11"):
        assert f"bits {tag}" in text
    code, text = run(["topologies", "--category", "bicolgraph"])
    assert "8 topologies" in text
    for tag in ("00", "01", "02", "03", "10", "11", "12", "13"):
        assert f"label {tag}" in text


def test_brute_method_runs_at_dimension_two():
    code, text = run(["topologies", "--category", "semisimplex:2", "--method", "brute"])
    assert code == 0
    assert text.splitlines()[0] == "8 topologies on semisimplex:2"
    assert text.count("  bits ") == 8


def test_omega_bound_is_an_input_error():
    # level 4 of semisimplex:4 and of simplex:4 has 7580 sieves, above the bound 2500
    for kind in ("semisimplex:4", "simplex:4"):
        for command in ("topologies", "omega"):
            code, text = run([command, "--category", kind])
            assert code == 2
            assert text == "error: level 4 has 7580 sieves, which exceeds the bound 2500\n"


def test_closure_command(tmp_path):
    graph = write(tmp_path, "path.json", PATH_GRAPH)
    sub = write(tmp_path, "sub.json", VERTICES_ONLY_SUB)
    code, text = run(["closure", "--topology", "01", "--input", graph, "--sub", sub])
    assert code == 0
    assert "level 1: added [ab, bc]" in text
    assert text.strip().endswith("dense")
    code, text = run(["closure", "--topology", "00", "--input", graph, "--sub", sub])
    assert code == 0
    assert "level 1: added []" in text
    assert text.strip().endswith("not dense")


def test_classify_command(tmp_path):
    graph = write(tmp_path, "path.json", PATH_GRAPH)
    code, text = run(["classify", "--topology", "01", "--input", graph])
    assert code == 0
    assert "separated: True" in text and "sheaf: False" in text
    parallel = write(tmp_path, "parallel.json", PARALLEL_GRAPH)
    code, text = run(["classify", "--topology", "01", "--input", parallel])
    assert code == 0
    assert "separated: False" in text
    assert "witness: level 1 not simple" in text


def test_a_misnamed_level_is_an_input_error(tmp_path):
    # an edge level keyed "l" instead of "1" must not load as two bare vertices
    doc = dict(PATH_GRAPH, levels={"0": ["a", "b", "c"], "l": ["ab", "bc"]})
    graph = write(tmp_path, "misnamed.json", doc)
    code, text = run(["classify", "--topology", "01", "--input", graph])
    assert code == 2
    assert text == "error: unknown object 'l' for graph\n"


def test_classify_fuzzy_route(tmp_path):
    nucleus = write(tmp_path, "nucleus.json", NUCLEUS_DOC)
    high = write(tmp_path, "high.json", FUZZY_HIGH)
    low = write(tmp_path, "low.json", FUZZY_LOW)
    code, text = run(["classify", "--nucleus", nucleus, "--input", high])
    assert code == 0 and "sheaf: True" in text
    code, text = run(["classify", "--nucleus", nucleus, "--input", low])
    assert code == 0 and "sheaf: False" in text and "separated: True" in text


def test_input_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, text = run(["omega", "--category", "dodecahedron"])
    assert code == 2 and text.startswith("error:")
    code, text = run(["classify", "--topology", "01", "--input", str(bad)])
    assert code == 2 and "error:" in text
    graph = write(tmp_path, "g.json", PATH_GRAPH)
    code, text = run(["classify", "--input", graph])
    assert code == 2
    # a malformed subobject: not action-closed
    not_closed = write(
        tmp_path, "sub.json", {"of": "path", "levels": {"0": [], "1": ["ab"]}}
    )
    code, text = run(["closure", "--topology", "01", "--input", graph, "--sub", not_closed])
    assert code == 2 and "action-closed" in text
    # a misspelt key is named, not ignored
    misspelt = dict(PATH_GRAPH, actoins=PATH_GRAPH["actions"])
    misspelt = write(tmp_path, "misspelt.json", misspelt)
    code, text = run(["classify", "--topology", "01", "--input", misspelt])
    assert code == 2 and "unknown key 'actoins'" in text


DEEP_DOCUMENTS = {
    "objects": '{"a": ' * 3000 + "1" + "}" * 3000,
    "arrays": "[" * 5000 + "]" * 5000,
}


@pytest.mark.parametrize("shape", DEEP_DOCUMENTS)
@pytest.mark.parametrize("route", ["classify", "closure", "classify --nucleus"])
def test_a_deeply_nested_document_is_an_input_error(tmp_path, route, shape):
    # the JSON decoder runs out of recursion depth: exit 2 with a message,
    # not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_DOCUMENTS[shape])
    argv = {
        "classify": ["classify", "--topology", "01", "--input", str(deep)],
        "closure": ["closure", "--topology", "01", "--input", write(tmp_path, "g.json", PATH_GRAPH),
                    "--sub", str(deep)],
        "classify --nucleus": ["classify", "--nucleus", str(deep),
                               "--input", write(tmp_path, "high.json", FUZZY_HIGH)],
    }[route]
    code, text = run(argv)
    assert code == 2
    assert text.startswith(f"error: {deep}: nested too deeply to read (")
    assert text.count("\n") == 1


REFL_POINT = {
    "category": "reflgraph",
    "levels": {"0": ["v"], "1": ["lv"]},
    "actions": {
        "d1_1": {"lv": "v"},
        "d1_0": {"lv": "v"},
        "s0_0": {"v": "lv"},
    },
}


def test_degenerate_word_is_an_input_error(tmp_path):
    code, text = run(["topologies", "--category", "reflgraph", "--method", "constrained"])
    assert code == 0
    point = write(tmp_path, "point.json", REFL_POINT)
    sub = write(tmp_path, "sub.json", {"of": "point", "levels": {"0": [], "1": []}})
    code, text = run(["closure", "--topology", "10", "--input", point, "--sub", sub])
    assert code == 2 and "'10'" in text
    code, text = run(
        ["closure", "--topology", "10", "--input", "missing.json", "--sub", "missing.json"]
    )
    assert code == 2  # file errors also land on exit 2


POINT_2 = {
    "category": "simplex:2",
    "levels": {"0": ["v"], "1": ["lv"], "2": ["llv"]},
    "actions": {
        "d1_0": {"lv": "v"},
        "d1_1": {"lv": "v"},
        "d2_0": {"llv": "lv"},
        "d2_1": {"llv": "lv"},
        "d2_2": {"llv": "lv"},
        "s0_0": {"v": "lv"},
        "s1_0": {"lv": "llv"},
        "s1_1": {"lv": "llv"},
    },
}

NO_TOPOLOGY = (
    "error: bit string {word!r} contains '10'; no topology with this closure pattern "
    "commutes with the degeneracy actions (naturality square for (0,0) fails at sieve "
    "{sieve}: level map then action gives {filled} but action then level map gives {hollow})\n"
)


def test_degenerate_word_names_its_failing_square(tmp_path):
    # the square of the collapse s_0: 1 -> 0 at the empty sieve: the hollow
    # edge with its collapsed loops on one side, the whole edge on the other
    point = write(tmp_path, "point.json", REFL_POINT)
    sub = write(tmp_path, "sub.json", {"of": "point", "levels": {"0": [], "1": []}})
    code, text = run(["closure", "--topology", "10", "--input", point, "--sub", sub])
    assert code == 2
    assert text == NO_TOPOLOGY.format(
        word="10",
        sieve="0:{} 1:{}",
        filled="0:{(0),(1)} 1:{(0,0),(0,1),(1,1)}",
        hollow="0:{(0),(1)} 1:{(0,0),(1,1)}",
    )
    point = write(tmp_path, "point2.json", POINT_2)
    sub = write(tmp_path, "sub2.json", {"of": "point", "levels": {"0": [], "1": [], "2": []}})
    code, text = run(["closure", "--topology", "100", "--input", point, "--sub", sub])
    assert code == 2
    assert text == NO_TOPOLOGY.format(
        word="100",
        sieve="0:{} 1:{} 2:{}",
        filled="0:{(0),(1)} 1:{(0,0),(0,1),(1,1)} 2:{(0,0,0),(0,0,1),(0,1,1),(1,1,1)}",
        hollow="0:{(0),(1)} 1:{(0,0),(1,1)} 2:{(0,0,0),(1,1,1)}",
    )


def _closure_documents(tmp_path, kind, top):
    """A presheaf document of y(top) on ``kind`` and two subobject
    documents: the empty one, and the one generated by the first cell."""
    from lttop.docio import presheaf_to_doc
    from lttop.fincat import build_index_category
    from lttop.presheaf import generated_subpresheaf, yoneda

    category = build_index_category(kind)
    y = yoneda(category, top)
    first = generated_subpresheaf(y, [(category.objects[0], 0)])
    levels = {str(c): [str(x) for x in first.level_labels(c)] for c in category.objects}
    return write(tmp_path, "y.json", presheaf_to_doc(y)), [
        write(tmp_path, "empty.json", {"levels": {}}),
        write(tmp_path, "first.json", {"levels": levels}),
    ]


@pytest.mark.parametrize(
    "kind, top",
    [("graph", 1), ("reflgraph", 1), ("semisimplex:2", 2), ("simplex:2", 2), ("bicolgraph", "E")],
)
def test_closure_reads_its_topology_off_the_tag_without_omega(monkeypatch, tmp_path, kind, top):
    # every valid word or label closes with no Omega, no level map and no
    # axiom check: its least covering sieves are read off the tag
    from lttop import omega, topology
    from lttop.fincat import FAMILY_BICOLOR, FAMILY_FULL, build_index_category

    category = build_index_category(kind)
    if category.family == FAMILY_BICOLOR:
        tags = topology.BICOLOR_LABELS
    else:
        words = ("".join(bits) for bits in itertools.product("01", repeat=category.dim + 1))
        tags = [w for w in words if category.family != FAMILY_FULL or "10" not in w]
    point, subs = _closure_documents(tmp_path, kind, top)

    def unreachable(*args):
        raise AssertionError("closure built Omega, a level map or an axiom check")

    monkeypatch.setattr(omega, "OmegaObject", unreachable)
    monkeypatch.setattr(topology, "_level_maps", unreachable)
    monkeypatch.setattr(topology, "verify_topology", unreachable)
    before = omega.classifying_object.cache_info()
    for tag in tags:
        for sub in subs:
            code, text = run(["closure", "--topology", tag, "--input", point, "--sub", sub])
            assert code == 0, (tag, text)
            assert text.endswith(("\ndense\n", "\nnot dense\n")), (tag, text)
    after = omega.classifying_object.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_closure_answers_on_a_dimension_four_document(tmp_path):
    # level 4 of semisimplex:4 has 7580 sieves, above the sieve bound, but
    # closure reads no Omega
    from lttop.docio import presheaf_to_doc
    from lttop.fincat import build_index_category
    from lttop.presheaf import FinitePresheaf

    category = build_index_category("semisimplex:4")
    carriers = {k: ("v",) if k == 0 else () for k in category.objects}
    actions = {g: () if g.target else (0,) for g in category.generators}
    point = write(tmp_path, "point.json", presheaf_to_doc(FinitePresheaf(category, carriers, actions)))
    sub = write(tmp_path, "sub.json", {"levels": {}})
    empty = "".join(f"level {k}: added []\n" for k in range(1, 5))
    code, text = run(["closure", "--topology", "00000", "--input", point, "--sub", sub])
    assert (code, text) == (0, "level 0: added []\n" + empty + "not dense\n")
    code, text = run(["closure", "--topology", "11111", "--input", point, "--sub", sub])
    assert (code, text) == (0, "level 0: added [v]\n" + empty + "dense\n")


def test_a_degenerate_word_at_dimension_four_names_the_word(tmp_path):
    # the witness square would need semisimplex:4's Omega, which is over
    # the sieve bound, so the error names the word alone, as classify does
    point, (sub, _) = _closure_documents(tmp_path, "simplex:4", 0)
    code, text = run(["closure", "--topology", "01000", "--input", point, "--sub", sub])
    assert code == 2
    assert text == (
        "error: bit string '01000' contains '10'; no topology with this closure "
        "pattern commutes with the degeneracy actions\n"
    )
    assert run(["classify", "--topology", "01000", "--input", point]) == (code, text)


def test_classify_takes_one_route(tmp_path):
    graph = write(tmp_path, "g.json", PATH_GRAPH)
    nucleus = write(tmp_path, "nucleus.json", NUCLEUS_DOC)
    code, text = run(["classify", "--topology", "01", "--nucleus", nucleus, "--input", graph])
    assert code == 2
    assert text == "error: classify takes only one of --topology or --nucleus\n"
    code, text = run(["classify", "--input", graph])
    assert code == 2
    assert text == "error: classify needs --topology or --nucleus\n"


def test_classify_validates_its_word_like_closure(tmp_path):
    point = write(tmp_path, "point.json", REFL_POINT)
    for word in ("0x", "10", "011"):
        code, text = run(["classify", "--topology", word, "--input", point])
        assert code == 2 and text.startswith("error:"), word
        assert "separated" not in text
    code, text = run(["classify", "--topology", "10", "--input", point])
    assert "'10'" in text
    code, text = run(["classify", "--topology", "01", "--input", point])
    assert code == 0 and "separated: True" in text


def test_non_nucleus_map_is_an_input_error(tmp_path):
    bad = write(
        tmp_path,
        "bad_nucleus.json",
        {"algebra": "chain3", "map": {"0": "1", "1/2": "1/2", "1": "1"}},
    )
    fuzzy = write(
        tmp_path,
        "fuzzy.json",
        {"algebra": "chain3", "carrier": ["a"], "membership": {"a": "1/2"}},
    )
    code, text = run(["classify", "--nucleus", bad, "--input", fuzzy])
    assert code == 2 and "not a nucleus" in text


def test_fuzzy_set_and_nucleus_over_different_algebras_is_an_input_error(tmp_path):
    nucleus = write(tmp_path, "nucleus.json", NUCLEUS_DOC)
    chain3 = write(
        tmp_path,
        "chain3.json",
        {"algebra": "chain3", "carrier": ["a"], "membership": {"a": "1/2"}},
    )
    code, text = run(["classify", "--nucleus", nucleus, "--input", chain3])
    assert (code, text) == (2, "error: fuzzy set and nucleus use different algebras\n")
    # the same chain under other names is the same algebra
    names = ["n0", "n1", "n2", "n3", "n4"]
    renamed = {
        "algebra": {"elements": names, "covers": [list(p) for p in zip(names, names[1:])]},
        "carrier": ["a", "b"],
        "membership": {"a": "n2", "b": "n4"},
    }
    code, text = run(["classify", "--nucleus", nucleus, "--input", write(tmp_path, "r.json", renamed)])
    assert (code, text) == (0, "separated: True\nsheaf: True\n")


def test_verify_fuzzy_suite():
    code, text = run(["verify", "--suite", "fuzzy"])
    assert code == 0
    assert "fuzzy suite — PASS" in text
    assert "nucleus count on chain3: expected 4, got 4 PASS" in text


def test_verify_counts_suite():
    code, text = run(["verify", "--suite", "counts"])
    assert code == 0
    for fragment in ("set:2", "graph:4", "reflgraph:3", "bicolgraph:8"):
        assert fragment in text
    assert "counts suite:" in text and "PASS" in text


def _tag_read_reversed(topology):
    least_sieves = topology.least_sieves
    return "least_sieves", lambda category, tag: least_sieves(category, tag[::-1])


def _last_coface_mask_dropped(topology):
    coface_masks = topology._coface_masks
    return "_coface_masks", lambda A, k: coface_masks(A, k)[:-1]


@pytest.mark.parametrize("fault, raised", [
    (_tag_read_reversed, "RuntimeError in _bitstring_topologies: constructed map is not a topology"),
    (_last_coface_mask_dropped, "KeyError"),
])
def test_a_route_that_raises_is_a_failed_check(monkeypatch, fault, raised):
    # a faulty route crashes the constrained enumeration; the counts suite
    # reports it per category and route, every other suite that runs into
    # it reports it as its own failure, and verify exits 1
    from lttop import topology

    monkeypatch.setattr(topology, *fault(topology))
    code, text = run(["verify", "--suite", "all"])
    assert code == 1
    assert "Traceback" not in text
    lines = text.splitlines()
    routes = [line for line in lines if " route raised " in line]
    assert [line.split(": the constrained route raised ")[0] for line in routes] == [
        f"  topology count on {kind}" for kind in ("graph", "reflgraph", "semisimplex:2", "simplex:2")
    ]
    assert all(raised in line and line.endswith(" FAIL") for line in routes), routes
    # set has no level 1 and bicolgraph no constrained route: both pass
    assert lines[1] == VERIFY_ALL[1] and lines[4] == VERIFY_ALL[4]
    assert "counts suite — FAIL" in lines
    for suite in ("closures", "criteria"):
        failed = [line for line in lines if line.startswith(f"  the {suite} suite raised ")]
        assert len(failed) == 1 and failed[0].endswith(" FAIL"), text
        assert f"{suite} suite — FAIL" in lines
    assert "fuzzy suite — PASS" in lines
    assert lines[-1] == "verification: FAIL"


def test_an_exceeded_bound_in_the_counts_suite_still_exits_2(monkeypatch):
    from lttop import cli
    from lttop.presheaf import BoundExceeded

    def over(category, method="auto"):
        raise BoundExceeded(f"{category.kind} needs more than 0 sieves", 1, 0)

    monkeypatch.setattr(cli, "enumerate_topologies", over)
    code, text = run(["verify", "--suite", "counts"])
    assert (code, text) == (2, "suite counts:\nerror: set needs more than 0 sieves\n")


def test_the_closures_suite_reads_no_orbit_rows_of_a_corpus_presheaf(monkeypatch):
    # both kernels and the subpresheaf lanes read the action tables; only
    # the representables' orbit rows are read (by the topologies)
    from lttop import presheaf
    from lttop.closure import presheaf_corpus
    from lttop.fincat import build_index_category

    corpus = {
        id(P)
        for kind in ("graph", "reflgraph", "semisimplex:2")
        for P in presheaf_corpus(build_index_category(kind), 6)
    }
    level_orbits = presheaf.FinitePresheaf.level_orbits

    def refuse_corpus(P):
        if id(P) in corpus:
            raise AssertionError(f"orbit rows read for corpus presheaf {P!r}")
        return level_orbits(P)

    monkeypatch.setattr(presheaf.FinitePresheaf, "level_orbits", refuse_corpus)
    code, text = run(["verify", "--suite", "closures", "--corpus-bound", "6"])
    assert (code, text.splitlines()) == (0, [
        "suite closures:",
        "  closure via characteristic map vs recursive on graph: 8624 instances PASS",
        "  closure via characteristic map vs recursive on reflgraph: 327 instances PASS",
        "  closure via characteristic map vs recursive on semisimplex:2: 46568 instances PASS",
        "closures suite — PASS",
        "verification: PASS",
    ])


def test_no_command_hashes_a_presheaf_or_subobject(monkeypatch):
    # presheaves and subobjects are compared, never keyed, on the product
    # paths: hashing one would read every action table
    from lttop.presheaf import FinitePresheaf

    hashed = []

    def counted(self):
        hashed.append(self)
        raise AssertionError("hashed")

    monkeypatch.setattr(FinitePresheaf, "__hash__", counted)
    monkeypatch.setattr(Subpresheaf, "__hash__", counted)
    for argv in (
        ["verify", "--suite", "all", "--corpus-bound", "6"],
        ["topologies", "--category", "simplex:3"],
        ["topologies", "--category", "semisimplex:3", "--method", "brute"],
        ["topologies", "--category", "bicolgraph"],
        ["omega", "--category", "semisimplex:3"],
    ):
        code, _ = run(argv)
        assert code == 0 and hashed == [], argv


VERIFY_ALL = [
    "suite counts:",
    "  topology count on set: expected 2, got {'constrained': 2, 'brute': 2} (methods agree) PASS",
    "  topology count on graph: expected 4, got {'constrained': 4, 'brute': 4} (methods agree) PASS",
    "  topology count on reflgraph: expected 3, got {'constrained': 3, 'brute': 3} (methods agree) PASS",
    "  topology count on bicolgraph: expected 8, got {'brute': 8} (methods agree) PASS",
    "  topology count on semisimplex:2: expected 8, got {'constrained': 8, 'brute': 8} (methods agree) PASS",
    "  topology count on simplex:2: expected 4, got {'constrained': 4, 'brute': 4} (methods agree) PASS",
    "counts suite: set:2 graph:4 reflgraph:3 bicolgraph:8 semisimplex:2:8 simplex:2:4 — PASS",
    "suite closures:",
    "  closure via characteristic map vs recursive on graph: 520 instances PASS",
    "  closure via characteristic map vs recursive on reflgraph: 45 instances PASS",
    "  closure via characteristic map vs recursive on semisimplex:2: 1384 instances PASS",
    "closures suite — PASS",
    "suite criteria:",
    "  cell-count classifier vs factorization counts on graph: 18 objects x 4 topologies PASS",
    "  cell-count classifier vs factorization counts on reflgraph: 5 objects x 3 topologies PASS",
    "criteria suite — PASS",
    "suite fuzzy:",
    "  nucleus count on chain2: expected 2, got 2 PASS",
    "  nucleus count on chain3: expected 4, got 4 PASS",
    "  nucleus count on diamond: expected 4, got 4 PASS",
    "  closure axioms for join-with-1/2 on chain5: PASS",
    "  sheaves over chain5 are the sets with membership >= 1/2: PASS",
    "fuzzy suite — PASS",
    "verification: PASS",
]


def test_verify_all_at_the_default_bounds_prints_every_line():
    code, text = run(["verify", "--suite", "all"])
    assert code == 0
    assert text.splitlines() == VERIFY_ALL


@pytest.mark.parametrize("suite, lines", [
    ("closures", [
        "suite closures:",
        "  closure via characteristic map vs recursive on graph: 8624 instances PASS",
        "  closure via characteristic map vs recursive on reflgraph: 327 instances PASS",
        "  closure via characteristic map vs recursive on semisimplex:2: 46568 instances PASS",
        "closures suite — PASS",
        "verification: PASS",
    ]),
    ("criteria", [
        "suite criteria:",
        "  cell-count classifier vs factorization counts on graph: 107 objects x 4 topologies PASS",
        "  cell-count classifier vs factorization counts on reflgraph: 16 objects x 3 topologies PASS",
        "criteria suite — PASS",
        "verification: PASS",
    ]),
])
def test_verify_at_corpus_bound_6_prints_every_line(suite, lines):
    # the corpus bound the benchmark's verify workload runs
    code, text = run(["verify", "--suite", suite, "--corpus-bound", "6"])
    assert code == 0
    assert text.splitlines() == lines


def test_verify_reports_an_exceeded_search_budget(monkeypatch):
    from lttop import closure

    monkeypatch.setattr(closure, "DEFAULT_SEARCH_BUDGET", 3)
    code, text = run(["verify", "--suite", "criteria"])
    assert code == 2
    errors = [line for line in text.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "more than 3 morphisms" in errors[0]
    assert "Traceback" not in text


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--suite", "closures", "--corpus-bound", "-1"], "--corpus-bound"),
        (["--suite", "criteria", "--corpus-bound", "-3", "--ambient-bound", "-2"], "--corpus-bound"),
        (["--suite", "criteria", "--ambient-bound", "-2"], "--ambient-bound"),
        (["--ambient-bound", "-1"], "--ambient-bound"),
    ],
)
def test_verify_rejects_a_negative_bound(argv, flag):
    code, text = run(["verify", *argv])
    assert code == 2
    assert text.startswith("error:") and flag in text
    assert "PASS" not in text and "suite" not in text


# -- the exit-code contract on arbitrary input -------------------------------

CATEGORY_NAMES = [
    "set", "graph", "reflgraph", "bicolgraph",
    "semisimplex:0", "semisimplex:1", "semisimplex:2", "simplex:0", "simplex:1", "simplex:2",
    "simplex", "simplex:x", "simplex:-1", "semisimplex:9", "nonesuch", "",
]
NAMES = st.sampled_from(["a", "b", "e", "v", "0", "1", "1/2", "1/4", "chain3", "chain5"])
LEAVES = st.one_of(NAMES, st.integers(-2, 2), st.text(max_size=2))
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(NAMES | st.text(max_size=2), inner, max_size=3),
    max_leaves=10,
)
LEVEL_NAMES = st.sampled_from(["0", "1", "2", "V", "E", "E'"])
GENERATOR_NAMES = st.sampled_from(["d1_0", "d1_1", "s0_0", "d2_0", "d2_1", "d2_2", "s", "t", "s'", "t'"])
DOCUMENTS = st.one_of(
    JSON,
    st.fixed_dictionaries({
        "category": st.sampled_from(CATEGORY_NAMES) | JSON,
        "levels": st.dictionaries(LEVEL_NAMES, st.lists(LEAVES, max_size=3) | JSON, max_size=3),
        "actions": st.dictionaries(
            GENERATOR_NAMES, st.dictionaries(NAMES, LEAVES, max_size=3) | JSON, max_size=4
        ),
    }),
    st.fixed_dictionaries({
        "algebra": st.sampled_from(["chain2", "chain3", "chain5", "diamond", "pentagon"]) | JSON,
        "carrier": st.lists(LEAVES, max_size=3) | JSON,
        "membership": st.dictionaries(NAMES, LEAVES, max_size=3) | JSON,
        "map": st.dictionaries(NAMES, LEAVES, max_size=5) | JSON,
    }),
)
COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["omega", "topologies"]), st.sampled_from(CATEGORY_NAMES)),
    st.tuples(st.sampled_from(["closure", "classify", "fuzzy"]), st.text("01x -", max_size=4)),
)


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=200, deadline=None)
@given(
    command=COMMANDS,
    first=DOCUMENTS,
    second=DOCUMENTS,
    method=st.sampled_from(["auto", "brute", "constrained"]),
    max_dim=st.none() | st.integers(-2, 4),  # larger caps let simplex:9 run for minutes
)
def test_any_input_exits_0_1_or_2(doc_dir, command, first, second, method, max_dim):
    name, value = command
    a = write(doc_dir, "a.json", first)
    b = write(doc_dir, "b.json", second)
    if name == "omega":
        argv = ["omega", f"--category={value}"]
    elif name == "topologies":
        argv = ["topologies", f"--category={value}", "--method", method]
    elif name == "closure":
        argv = ["closure", f"--topology={value}", "--input", a, "--sub", b]
    elif name == "classify":
        argv = ["classify", f"--topology={value}", "--input", a]
    else:
        argv = ["classify", "--nucleus", b, "--input", a]
    if max_dim is not None:
        argv = ["--max-dim", str(max_dim), *argv]
    code, _ = run(argv)
    assert code in (0, 1, 2)


def _flip_graph_instances(monkeypatch, corpus_bound, flips):
    """Make the recursive route of the closures suite disagree on the graph
    instances at the given 1-based positions of the suite's order (corpus
    presheaf, then subobject, then topology), one cell flipped in each.

    The suite closes every subset of a presheaf's cells at once, lane s
    holding the subset s, so the injection flips the cell at the base of
    lane ``sub.bits``, at the stride of that layout (``subset_lanes``).
    Returns the graph instances as (P, bits, word) in that order and the
    presheaves the recursive route was called on.
    """
    from lttop import cli
    from lttop.closure import presheaf_corpus
    from lttop.fincat import build_index_category
    from lttop.presheaf import enumerate_subpresheaves, subset_lanes
    from lttop.topology import _closed_bits, enumerate_topologies

    category = build_index_category("graph")
    words = [j.tag for j in enumerate_topologies(category)]
    instances = [
        (P, sub.bits, word)
        for P in presheaf_corpus(category, corpus_bound)
        for sub in enumerate_subpresheaves(P)
        for word in words
    ]
    flipped = {instances[k - 1] for k in flips}
    called = []

    def disagree(words, P, bits, lanes):
        closed = _closed_bits(words, P, bits, lanes)
        if P.category is not category:
            return closed
        called.append(P)
        _, _, stride = subset_lanes(P)
        for t, word in enumerate(words):
            for sub in enumerate_subpresheaves(P):
                if (P, sub.bits, word) in flipped:
                    closed[t] ^= 1 << sub.bits * stride
        return closed

    monkeypatch.setattr(cli, "_closed_bits", disagree)
    return instances, called


def test_verify_closures_reports_the_first_mismatch(monkeypatch):
    from lttop.closure import presheaf_corpus
    from lttop.fincat import build_index_category

    # flip one cell of the recursive closure on the 3rd and 30th graph instances
    instances, called = _flip_graph_instances(monkeypatch, 4, (3, 30))
    code, text = run(["verify", "--suite", "closures"])
    assert code == 1
    P, bits, word = instances[2]
    # the witness names P by its position in the default-bound corpus
    corpus = presheaf_corpus(build_index_category("graph"), 4)
    n = next(i for i, Q in enumerate(corpus) if Q is P)
    # the suite stops at the presheaf of the first mismatch
    assert set(called) == set(corpus[: n + 1])
    first = str((n, P, Subpresheaf(P, bits), word))
    assert text.splitlines() == [
        "suite closures:",
        f"  closure via characteristic map vs recursive on graph: 3 instances FAIL {first}",
        "  closure via characteristic map vs recursive on reflgraph: 45 instances PASS",
        "  closure via characteristic map vs recursive on semisimplex:2: 1384 instances PASS",
        "closures suite — FAIL",
        "verification: FAIL",
    ]
    assert "Traceback" not in text


def test_verify_closures_witness_names_the_corpus_position(monkeypatch):
    # a mismatch past the first corpus presheaf is named by its position in
    # presheaf_corpus(graph, corpus bound), so the instance can be replayed
    from lttop.closure import presheaf_corpus
    from lttop.fincat import build_index_category

    instances, _ = _flip_graph_instances(monkeypatch, 3, (30,))
    code, text = run(["verify", "--suite", "closures", "--corpus-bound", "3"])
    assert code == 1
    P, bits, word = instances[29]
    corpus = presheaf_corpus(build_index_category("graph"), 3)
    n = next(i for i, Q in enumerate(corpus) if Q is P)
    assert n > 0
    witness = str((n, P, Subpresheaf(P, bits), word))
    line = f"  closure via characteristic map vs recursive on graph: 30 instances FAIL {witness}"
    assert text.splitlines()[1] == line


def test_first_closure_mismatch_takes_the_lowest_lane_first(monkeypatch):
    # two mismatches in one presheaf: an earlier lane under a later
    # topology, and a later lane under an earlier one; the suite's order
    # visits every topology of a subobject before the next subobject
    from lttop import cli
    from lttop.closure import presheaf_corpus
    from lttop.fincat import build_index_category
    from lttop.presheaf import enumerate_subpresheaves
    from lttop.topology import enumerate_topologies

    category = build_index_category("graph")
    topologies = enumerate_topologies(category)
    T = len(topologies)
    corpus = presheaf_corpus(category, 4)
    n = next(i for i, P in enumerate(corpus) if len(enumerate_subpresheaves(P)) >= 5)
    before = sum(len(enumerate_subpresheaves(P)) for P in corpus[:n]) * T
    early, late = (2, T - 1), (4, 0)  # (lane, topology position)
    flips = [before + s * T + t + 1 for s, t in (late, early)]
    _flip_graph_instances(monkeypatch, 4, flips)
    checked, mismatch = cli._first_closure_mismatch(category, topologies, 4)
    s, t = early
    assert checked == before + s * T + t + 1
    sub = enumerate_subpresheaves(corpus[n])[s]
    assert mismatch == (n, corpus[n], sub, topologies[t].tag)


def test_first_closure_mismatch_builds_no_subpresheaf_when_the_routes_agree(monkeypatch):
    # the lanes are read off the subobject integers; a Subpresheaf is built
    # only for a mismatch witness
    from lttop import cli
    from lttop.closure import presheaf_corpus
    from lttop.fincat import build_index_category
    from lttop.topology import enumerate_topologies

    category = build_index_category("graph")
    topologies = enumerate_topologies(category)
    presheaf_corpus(category, 4)
    built = []
    init = Subpresheaf.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Subpresheaf, "__init__", counted_init)
    checked, mismatch = cli._first_closure_mismatch(category, topologies, 4)
    assert mismatch is None and checked > 0
    assert built == []


@pytest.mark.parametrize("kind", ["graph", "reflgraph", "semisimplex:2"])
def test_first_closure_mismatch_hashes_no_morphism_per_presheaf(monkeypatch, kind):
    # actions, orbits and closure plans are read by morphism position, so
    # a larger corpus makes no more morphism lookups
    from lttop import cli
    from lttop.closure import presheaf_corpus
    from lttop.fincat import SimplexMorphism, build_index_category
    from lttop.topology import enumerate_topologies

    category = build_index_category(kind)
    topologies = enumerate_topologies(category)
    hashed = []
    original = SimplexMorphism.__hash__

    def counted_hash(self):
        hashed.append(self)
        return original(self)

    counts = []
    for bound in (3, 5):
        presheaf_corpus(category, bound)
        hashed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(SimplexMorphism, "__hash__", counted_hash)
            checked, mismatch = cli._first_closure_mismatch(category, topologies, bound)
        assert mismatch is None and checked > 0
        counts.append(len(hashed))
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("kind", ["graph", "reflgraph", "semisimplex:2"])
def test_first_closure_mismatch_plans_the_chi_kernel_once_per_category(monkeypatch, kind):
    # which topologies share each (level, m_c) part is planned once for the
    # category and topologies, so a larger corpus looks up no more
    # generating sets
    from lttop import cli, topology
    from lttop.closure import presheaf_corpus
    from lttop.fincat import build_index_category
    from lttop.topology import enumerate_topologies

    category = build_index_category(kind)
    topologies = enumerate_topologies(category)
    original = topology._generator_positions
    looked_up = []

    def counted(*args):
        looked_up.append(args)
        return original(*args)

    counts = []
    for bound in (3, 5):
        presheaf_corpus(category, bound)
        topology._chi_plan.cache_clear()
        looked_up.clear()
        with monkeypatch.context() as patch:
            patch.setattr(topology, "_generator_positions", counted)
            checked, mismatch = cli._first_closure_mismatch(category, topologies, bound)
        assert mismatch is None and checked > 0
        assert topology._chi_plan.cache_info().misses == 1
        counts.append(len(looked_up))
    assert counts[0] == counts[1] > 0, counts


@pytest.mark.parametrize("kind", ["graph", "reflgraph", "semisimplex:2"])
def test_first_closure_mismatch_calls_the_recursive_kernel_once_per_presheaf(monkeypatch, kind):
    # the recursive kernel takes every topology's word at once, as the chi
    # kernel takes every least covering sieve
    from lttop import cli
    from lttop.closure import presheaf_corpus
    from lttop.fincat import build_index_category
    from lttop.topology import enumerate_topologies

    category = build_index_category(kind)
    topologies = enumerate_topologies(category)
    assert len(topologies) > 1
    original = cli._closed_bits
    calls = []

    def counted(words, *args):
        calls.append(list(words))
        return original(words, *args)

    monkeypatch.setattr(cli, "_closed_bits", counted)
    checked, mismatch = cli._first_closure_mismatch(category, topologies, 5)
    assert mismatch is None and checked > 0
    corpus = presheaf_corpus(category, 5)
    assert len(calls) == len(corpus)
    assert calls == [[j.tag for j in topologies]] * len(corpus)


def _faulty_kernel(fault):
    """``topology._closed_bits`` with one bit flipped in each lane and word
    for which ``fault(P, subset, word)`` gives a bit position.  The subset
    is read off the lane itself, so the fault hits the same instances
    whatever subsets a caller packs into its lanes."""
    from lttop.presheaf import pack_lanes, unpack_lanes
    from lttop.topology import _closed_bits

    def kernel(words, P, bits, lanes=1):
        closed = _closed_bits(words, P, bits, lanes)
        _, _, stride = pack_lanes(P, [])
        subsets = unpack_lanes(bits, stride, lanes.bit_count())
        for t, word in enumerate(words):
            for s, subset in enumerate(subsets):
                bit = fault(P, subset, word)
                if bit is not None:
                    closed[t] ^= 1 << s * stride + bit
        return closed

    return kernel


def _is_subpresheaf():
    """A test whether a subset of a presheaf's cells is a subpresheaf,
    caching each presheaf's subpresheaves by identity (presheaves of one
    size vector share a hash)."""
    from lttop.presheaf import subpresheaf_bits

    found = {}

    def test(P, subset):
        if id(P) not in found:
            found[id(P)] = P, frozenset(subpresheaf_bits(P))
        return subset in found[id(P)][1]

    return test


@pytest.mark.parametrize("kind", ["graph", "semisimplex:2"])
@pytest.mark.parametrize("fault", ["late", "sparse", "past the cells", "middle"])
def test_first_closure_mismatch_matches_the_enumerating_reference(
    monkeypatch, kind, fault, closure_mismatch_reference
):
    # the suite closes every subset of the cells and keeps the subpresheaf
    # lanes; under the same fault it reports what closing the enumerated
    # subpresheaves reports, count and witness
    from lttop import cli
    from lttop.closure import presheaf_corpus
    from lttop.fincat import build_index_category
    from lttop.presheaf import subpresheaf_bits
    from lttop.topology import enumerate_topologies

    category = build_index_category(kind)
    topologies = enumerate_topologies(category)
    words = [j.tag for j in topologies]
    corpus = presheaf_corpus(category, 6)
    is_sub = _is_subpresheaf()
    middle = corpus[len(corpus) // 2]
    middle_subs = subpresheaf_bits(middle)
    middle_sub, middle_word = middle_subs[len(middle_subs) // 2], words[len(words) // 2]

    def late(P, subset, word):
        # the full subobject of the last presheaf, under the last word
        full = subset == (1 << P.total_size) - 1
        return 0 if P is corpus[-1] and full and word == words[-1] else None

    def sparse(P, subset, word):
        # the top cell of every 3-cell subobject under the second word, and
        # of every 4-cell one under the first
        picked = word == words[1] and subset.bit_count() == 3
        picked = picked or word == words[0] and subset.bit_count() == 4
        return subset.bit_length() - 1 if picked and is_sub(P, subset) else None

    def past_the_cells(P, subset, word):
        # the first bit above the cells, inside the lane
        picked = P.total_size in (3, 5) and word == words[-2]
        return P.total_size if picked and is_sub(P, subset) else None

    def in_the_middle(P, subset, word):
        return 0 if P is middle and subset == middle_sub and word == middle_word else None

    faults = {
        "late": late,
        "sparse": sparse,
        "past the cells": past_the_cells,
        "middle": in_the_middle,
    }
    kernel = _faulty_kernel(faults[fault])
    monkeypatch.setattr(cli, "_closed_bits", kernel)
    got = cli._first_closure_mismatch(category, topologies, 6)
    want = closure_mismatch_reference(category, topologies, 6, closed_bits=kernel)
    assert want[1] is not None
    assert got == want


def test_a_fault_outside_the_subpresheaf_lanes_leaves_the_closures_suite_passing(monkeypatch):
    # the suite also closes subsets that are not subpresheaves; a difference
    # in their lanes is no instance, and the counts stay those of the
    # subpresheaves
    from lttop import cli

    is_sub = _is_subpresheaf()

    def outside(P, subset, word):
        return None if is_sub(P, subset) else (subset ^ len(word)) % (P.total_size or 1)

    monkeypatch.setattr(cli, "_closed_bits", _faulty_kernel(outside))
    code, text = run(["verify", "--suite", "closures", "--corpus-bound", "6"])
    assert code == 0
    assert text.splitlines() == [
        "suite closures:",
        "  closure via characteristic map vs recursive on graph: 8624 instances PASS",
        "  closure via characteristic map vs recursive on reflgraph: 327 instances PASS",
        "  closure via characteristic map vs recursive on semisimplex:2: 46568 instances PASS",
        "closures suite — PASS",
        "verification: PASS",
    ]


def test_the_closures_suite_neither_enumerates_nor_packs_subobjects_per_presheaf(monkeypatch):
    # every presheaf of one size shares one all-subsets layout, so the
    # suite packs once per size and enumerates no corpus subobjects
    from lttop import cli, presheaf
    from lttop.fincat import build_index_category
    from lttop.topology import enumerate_topologies

    def refuse(*args):
        raise AssertionError("the closures suite enumerated or packed subobjects")

    # Omega, which enumerates the sieves of each y(c), is built and cached first
    for kind in ("graph", "reflgraph", "semisimplex:2"):
        enumerate_topologies(build_index_category(kind))
    monkeypatch.setattr(cli, "subpresheaf_bits", refuse, raising=False)
    monkeypatch.setattr(cli, "pack_lanes", refuse, raising=False)
    monkeypatch.setattr(presheaf, "subpresheaf_bits", refuse)
    packed = []
    pack = presheaf.pack_lanes

    def counted(P, subs):
        packed.append(P.total_size)
        return pack(P, subs)

    monkeypatch.setattr(presheaf, "pack_lanes", counted)
    monkeypatch.setattr(presheaf, "_SUBSET_LANES", {})
    code, text = run(["verify", "--suite", "closures", "--corpus-bound", "6"])
    assert code == 0, text
    assert text.splitlines()[-2:] == ["closures suite — PASS", "verification: PASS"]
    assert sorted(packed) == list(range(7))


def test_the_corpus_budget_bounds_the_all_subsets_lanes():
    # at bound 9 the graph corpus has presheaves of 9 cells, 512 lanes;
    # the suite closes them and reflgraph's, and semisimplex:2's corpus
    # then exceeds the corpus budget: no bound of its own is needed
    from lttop.closure import DEFAULT_CORPUS_BUDGET, presheaf_corpus
    from lttop.fincat import build_index_category
    from lttop.presheaf import subset_lanes

    code, text = run(["verify", "--suite", "closures", "--corpus-bound", "9"])
    assert code == 2
    assert text.splitlines() == [
        "suite closures:",
        "  closure via characteristic map vs recursive on graph: 894392 instances PASS",
        "  closure via characteristic map vs recursive on reflgraph: 8940 instances PASS",
        f"error: the semisimplex:2 corpus at bound 9 needs more than {DEFAULT_CORPUS_BUDGET} "
        "search steps, the corpus budget",
    ]
    largest = max(presheaf_corpus(build_index_category("graph"), 9), key=lambda P: P.total_size)
    _, lanes, stride = subset_lanes(largest)
    assert largest.total_size == 9
    assert lanes.bit_count() == 512 and stride == 16


def test_criteria_suite_finds_each_level_witness_once_per_presheaf(monkeypatch):
    from collections import Counter

    from lttop import cli, closure

    calls = Counter()
    for name in ("_shared_cells", "_unfilled_boundary"):
        original = getattr(closure, name)

        def counted(B, k, name=name, original=original):
            calls[name, id(B), k] += 1
            return original(B, k)

        monkeypatch.setattr(closure, name, counted)
    out = io.StringIO()
    assert cli._suite_criteria(out, 5)
    assert calls and max(calls.values()) == 1
    assert {name for name, _, _ in calls} == {"_shared_cells", "_unfilled_boundary"}


def test_criteria_suite_plans_each_search_once_per_category(monkeypatch):
    # the source side of each Yoneda search is planned once per (y(c),
    # dense sieve) and kept on y(c), so a larger corpus builds no more plans
    from collections import Counter

    from lttop import cli, presheaf
    from lttop.closure import presheaf_corpus
    from lttop.fincat import build_index_category

    categories = [build_index_category(kind) for kind in ("graph", "reflgraph")]
    original = presheaf._build_search_plan
    built = Counter()

    def counted(source, bits):
        built[source.category.kind] += 1
        return original(source, bits)

    counts = []
    for bound in (3, 5):
        for category in categories:
            presheaf_corpus(category, bound)
            for c in category.objects:
                presheaf.yoneda(category, c)._search_plans = None
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(presheaf, "_build_search_plan", counted)
            assert cli._suite_criteria(io.StringIO(), bound)
        counts.append(dict(built))
    assert counts[0] == counts[1], counts
    assert set(counts[0]) == {"graph", "reflgraph"} and min(counts[0].values()) > 0


def test_criteria_suite_builds_no_witness_when_the_two_sides_agree(monkeypatch):
    # the oracle's reports build a witness only when its field is read,
    # and the suite reads only the flags
    from lttop import cli, closure
    from lttop.fincat import build_index_category
    from lttop.topology import enumerate_topologies

    built = []
    for name in ("components_of", "PresheafMorphism"):
        original = getattr(closure, name)

        def counted(*args, name=name, original=original):
            built.append(name)
            return original(*args)

        monkeypatch.setattr(closure, name, counted)
    out = io.StringIO()
    assert cli._suite_criteria(out, 5)
    assert built == []
    # reading a witness field builds it, through the counted calls
    category = build_index_category("graph")
    topologies = enumerate_topologies(category)
    reports = [
        report
        for B in closure.presheaf_corpus(category, 5)
        for report in closure.factorization_checks(B, topologies)
    ]
    assert built == []
    assert any(report.separated_witness for report in reports)
    assert set(built) == {"components_of", "PresheafMorphism"}


def test_omega_refuses_an_oversized_level_before_building_the_larger_ones():
    # simplex:7 fails at level 3, whose y(3) would have 494 cells; y(4) .. y(7)
    # are never built, so the refusal takes seconds, not minutes
    src = str(Path(lttop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["--max-dim", "7", "omega", "--category", "simplex:7"]
    proc = subprocess.run(
        [sys.executable, "-m", "lttop.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == "error: carrier has 494 elements, enumeration bound is 300\n"
    assert "Traceback" not in proc.stderr, proc.stderr


def test_verify_reports_an_exceeded_corpus_budget(monkeypatch):
    from lttop import closure

    # the graph corpus at bound 4 takes 86 steps, the reflgraph one 85 and
    # the semisimplex:2 one 285
    monkeypatch.setattr(closure, "DEFAULT_CORPUS_BUDGET", 100)
    code, text = run(["verify", "--suite", "closures"])
    assert code == 2
    lines = text.splitlines()
    assert lines[1].startswith("  closure via characteristic map vs recursive on graph:")
    assert lines[2].startswith("  closure via characteristic map vs recursive on reflgraph:")
    assert lines[3:] == [
        "error: the semisimplex:2 corpus at bound 4 needs more than 100 search steps, "
        "the corpus budget"
    ]
    assert "Traceback" not in text


def test_a_large_corpus_bound_exits_on_the_corpus_budget():
    from lttop.closure import DEFAULT_CORPUS_BUDGET

    code, text = run(["verify", "--corpus-bound", "12"])
    assert code == 2
    errors = [line for line in text.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert f"more than {DEFAULT_CORPUS_BUDGET} search steps, the corpus budget" in errors[0]
    assert "Traceback" not in text
