"""Time command-line rows of the README: the end-to-end rows of the
roadmap (`syncprim classify` on C7 and S6, `verify --max-degree 6`,
`search --degrees 3..6` and `syn-dfa` on the Černý automaton at n = 12,
14 and 16), then the power-set table's larger rows: `syn-dfa` on the
Černý automaton and `classify` on the cyclic group C_n, which is
imprimitive, so that conditions 2-6 refine the power set after the
sync-max scan fails.

Every run is a fresh child process that imports syncprim from the tree's
src/ with PYTHONDONTWRITEBYTECODE=1, so no run reads bytecode another one
cached.  The wall time is taken around the child, and the peak RSS is the
child's own, read from os.wait4.  The child inherits the environment
otherwise, so MALLOC_MMAP_THRESHOLD_=131072 in it fixes where glibc's
malloc places the arrays for both trees, a control for peaks that move
with that placement alone.

With --against PATH, every row also runs on the checkout at PATH (the
"before" tree), the two trees alternating run by run, the before tree
first on even runs.  A row whose outputs differ between the runs is
marked.  Prints one line per row: wall-time and peak-RSS ranges over the
runs, as before → after with --against.

    python3 benchmarks/cli_rows.py [--runs R] [--rows C7,max-degree-6,cerny-16,...] [--against PATH] [--json PATH]

Rows: cerny-N (`syn-dfa`), CN and SN (`classify`), max-degree-N
(`verify --max-degree N`) and degrees-A..B (`search --degrees A..B`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROWS = ["C7", "S6", "max-degree-6", "degrees-3..6", "cerny-12", "cerny-14"]
ROWS += [f"cerny-{n}" for n in (16, 18, 20, 22, 24)] + [f"C{n}" for n in (16, 18, 20)]

_CHILD = "import sys\nfrom syncprim.cli import main\nsys.exit(main(sys.argv[1:]))"


def command_line(row: str, directory: str) -> list[str]:
    """The arguments of `syncprim` for a row; a row that reads an input
    file has it written into directory in the .aut or .grp format."""
    if row.startswith("max-degree-"):
        return ["verify", "--max-degree", row.removeprefix("max-degree-")]
    if row.startswith("degrees-"):
        return ["search", "--degrees", row.removeprefix("degrees-")]
    if row.startswith("cerny-"):
        n = int(row.removeprefix("cerny-"))
        shift = " ".join(str((i + 1) % n) for i in range(n))
        merge = " ".join(str(max(i, 1)) for i in range(n))
        command, text = "syn-dfa", f"degree {n}\n{shift}\n{merge}\n"
    elif row[:1] in ("C", "S"):
        n = int(row[1:])
        cycle = f"({' '.join(map(str, range(n)))})\n"
        command, text = "classify", f"degree {n}\n" + ("(0 1)\n" if row[0] == "S" else "") + cycle
    else:
        raise SystemExit(f"unknown row {row!r}: cerny-N, CN, SN, max-degree-N or degrees-A..B")
    path = os.path.join(directory, f"{row}.txt")
    Path(path).write_text(text)
    return [command, path]


def run_once(tree: Path, args: list[str]) -> tuple[float, float, str]:
    """One child run of `syncprim args` on tree: its wall seconds, its
    peak RSS in MB and the sha256 of its output."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", _CHILD, *args], stdout=out, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise SystemExit(f"{tree}: syncprim {' '.join(args)} exited {child.returncode}")
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return wall, usage.ru_maxrss / 1024.0, digest


def span(values: list[float], digits: int) -> str:
    lo, hi = f"{min(values):.{digits}f}", f"{max(values):.{digits}f}"
    return lo if lo == hi else f"{lo}–{hi}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per row and tree")
    parser.add_argument("--rows", default=",".join(ROWS), help="comma-separated rows, such as cerny-16 or C7")
    parser.add_argument("--against", type=Path, help="a second checkout, the before tree")
    parser.add_argument("--json", help="write every run to this path")
    args = parser.parse_args(argv)
    trees = {"after": Path(__file__).resolve().parent.parent}
    if args.against:
        trees = {"before": args.against.resolve(), **trees}
    runs = {}
    with tempfile.TemporaryDirectory() as directory:
        for row in args.rows.split(","):
            command = command_line(row, directory)
            got = {name: [] for name in trees}
            for k in range(args.runs):
                order = list(trees) if k % 2 == 0 else list(trees)[::-1]
                for name in order:
                    got[name].append(run_once(trees[name], command))
            runs[row] = got
            digests = {d for results in got.values() for _, _, d in results}
            walls = " → ".join(span([w for w, _, _ in got[name]], 2) for name in trees)
            peaks = " → ".join(span([m for _, m, _ in got[name]], 1) for name in trees)
            mark = "" if len(digests) == 1 else "  OUTPUTS DIFFER"
            print(f"{command[0]} {row}: wall {walls} s, peak RSS {peaks} MB{mark}", flush=True)
    if args.json:
        doc = {"trees": {name: str(tree) for name, tree in trees.items()}, "runs": runs}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
