"""Compare the stateid reports of a base revision and the working tree, byte for byte.

    python3 tools/report_diff.py --base REV

The base revision is exported with `git archive` into a temporary directory
(tools/bench_pairs.py's export); the head side is the working tree that holds
this script.  Each argv of INVOCATIONS runs as `python -m stateid ARGV` on
both sides, each in a fresh interpreter with 1 BLAS thread that writes no
bytecode.  Every argv whose stdout, stderr or exit code differs between the
sides is printed with what differs; the exit code is 1 when any differs and
0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import BLAS_VARS, ROOT, export

# every subcommand in text, --json and --csv; the edge priors; the usage
# errors, each of a different rule; a batch that forks two workers
INVOCATIONS = (
    ("dims", "--d", "3"),
    ("dims", "--da", "2", "--db", "3", "--json"),
    ("dims", "--da", "2", "--db", "2", "--csv"),
    ("minerr", "--d", "3", "--eta1", "0.3", "--baseline", "--simulate", "--n", "2000",
     "--seed", "7"),
    ("minerr", "--da", "2", "--db", "2", "--locc", "--simulate", "--n", "2000", "--seed", "7",
     "--json"),
    ("minerr", "--da", "3", "--db", "3", "--eta1", "0.7", "--locc", "--csv"),
    ("unamb", "--da", "2", "--db", "2", "--simulate", "--n", "2000", "--seed", "7"),
    ("unamb", "--d", "3", "--baseline", "--simulate", "--n", "2000", "--json"),
    ("unamb", "--da", "2", "--db", "3", "--csv"),
    ("verify-all",),
    ("verify-all", "--seed", "3", "--json"),
    ("verify-all", "--csv"),
    ("minerr", "--da", "2", "--db", "2", "--locc", "--eta1", "0", "--simulate", "--n", "2000",
     "--json"),
    ("minerr", "--da", "2", "--db", "2", "--locc", "--eta1", "1", "--simulate", "--n", "2000",
     "--json"),
    ("minerr", "--d", "2", "--eta1", "nan"),
    (),
    ("minerr", "--d", "2", "--da", "2", "--db", "2"),
    ("minerr", "--da", "2"),
    ("minerr", "--d", "4", "--locc"),
    ("unamb", "--d", "1"),
    ("minerr", "--d", "2", "--simulate", "--n", "0"),
    ("dims", "--d", "2", "--json", "--csv"),
    ("minerr", "--da", "2", "--db", "2", "--locc", "--simulate", "--n", "9000", "--workers", "2",
     "--seed", "5", "--json"),
)


def run(tree: Path, argv: tuple[str, ...]) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of `python -m stateid argv` on tree's src."""
    env = {**os.environ, **dict.fromkeys(BLAS_VARS, "1"), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "stateid", *argv], cwd=tree, env=env,
                          capture_output=True)
    return proc.stdout, proc.stderr, proc.returncode


def diff_trees(base: Path, head: Path, invocations=INVOCATIONS) -> int:
    """Run each invocation on both trees and print each that differs; 1 if any does."""
    differing = 0
    for argv in invocations:
        parts = [name for name, b, h in zip(("stdout", "stderr", "exit code"),
                                            run(base, argv), run(head, argv)) if b != h]
        if parts:
            differing += 1
            print(f"differs ({', '.join(parts)}): stateid {' '.join(argv)}")
    print(f"{len(invocations) - differing} of {len(invocations)} invocations identical")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    args = parser.parse_args(argv)
    workdir = Path(tempfile.mkdtemp(prefix="report-diff-"))
    try:
        return diff_trees(export(args.base, workdir), ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
