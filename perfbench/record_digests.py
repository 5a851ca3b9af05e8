"""Record the stdout digests that the ``catalog`` workload checks against.

Run from the repository root, at the commit whose output is the reference:

    python3 perfbench/record_digests.py

It runs every catalog request (``omega`` and ``topologies`` on each
category, and ``omega --level L --dot`` on each level of the categories up
to dimension 2) and writes their SHA-256 digests to perfbench/digests.json.
The output of these commands must stay identical across changes, so the
file is only rewritten when a change is meant to alter the output.
"""

import json
import os
import subprocess
import sys

import workloads

DOT_LEVELS = {
    "set": ["0"],
    "graph": ["0", "1"],
    "reflgraph": ["0", "1"],
    "bicolgraph": ["V", "E", "E'"],
    "semisimplex:1": ["0", "1"],
    "semisimplex:2": ["0", "1", "2"],
    "simplex:1": ["0", "1"],
    "simplex:2": ["0", "1", "2"],
}


def main():
    argvs = [
        [command, "--category", kind]
        for kind in workloads.TOPOLOGY_COUNTS
        for command in ("omega", "topologies")
    ]
    argvs += [
        ["omega", "--category", kind, "--level", level, "--dot"]
        for kind, levels in DOT_LEVELS.items()
        for level in levels
    ]
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONIOENCODING="utf-8")
    digests = {}
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "lttop.cli", *argv],
            env=env, capture_output=True, encoding="utf-8", check=True,
        )
        digests[workloads.catalog_key(argv)] = workloads.digest(proc.stdout)
    with open(os.path.join(workloads.HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
