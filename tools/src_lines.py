"""Count the source lines of the stateid package, per module and in total.

    python3 tools/src_lines.py

A line counts when it is not blank and is not a `#` comment; docstrings and
other string lines count.
"""

from __future__ import annotations

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stateid"


def count(path: Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> None:
    counts = {module.name: count(module) for module in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
