"""Count the source lines of the stateid package, per module and in total.

    python3 tools/src_lines.py
    python3 tools/src_lines.py --against REV

A line counts when it is not blank and is not a `#` comment; docstrings and
other string lines count.  With --against, each module's count at the git
revision REV (read with `git show`), its count in the working tree and the
delta, then the totals; a module missing on one side counts 0 there.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stateid"


def count_text(text: str) -> int:
    lines = (line.strip() for line in text.splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def count(path: Path) -> int:
    return count_text(path.read_text(encoding="utf-8"))


def tree_counts() -> dict[str, int]:
    return {module.name: count(module) for module in sorted(PACKAGE.glob("*.py"))}


def _git(*args: str) -> str:
    result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if result.returncode:
        sys.exit(f"src_lines.py: git {' '.join(args)}: {result.stderr.strip()}")
    return result.stdout


def rev_counts(rev: str) -> dict[str, int]:
    """Each module's count at the git revision rev."""
    package = PACKAGE.relative_to(ROOT).as_posix()
    paths = [p for p in _git("ls-tree", "--name-only", rev, f"{package}/").splitlines()
             if p.endswith(".py")]
    return {Path(p).name: count_text(_git("show", f"{rev}:{p}")) for p in paths}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also print each module's count at git revision REV and the delta")
    args = parser.parse_args(argv)
    now = tree_counts()
    if args.against is None:
        width = max(map(len, now))
        for name, n in now.items():
            print(f"{name:<{width}}  {n:5d}")
        print(f"{'total':<{width}}  {sum(now.values()):5d}")
        return
    before = rev_counts(args.against)
    rows = [(name, before.get(name, 0), now.get(name, 0)) for name in sorted({*before, *now})]
    rows.append(("total", sum(before.values()), sum(now.values())))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {args.against[:12]:>12}  {'tree':>5}  {'delta':>5}")
    for name, old, new in rows:
        print(f"{name:<{width}}  {old:12d}  {new:5d}  {new - old:+5d}")


if __name__ == "__main__":
    main()
