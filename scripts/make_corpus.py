#!/usr/bin/env python3
"""Regenerate the bundled JSON corpus (groups, reps, example states)."""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # the corpus builder lives with the tests

from corpus import write_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "directory",
        nargs="?",
        default=ROOT / "corpus",
        type=Path,
    )
    args = parser.parse_args()
    written = write_corpus(args.directory)
    for name, paths in written.items():
        print(f"{name}: {paths['group'].name}, {paths['rep'].name}")
    print(f"corpus written to {args.directory}")


if __name__ == "__main__":
    main()
