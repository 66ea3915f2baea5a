"""Benchmark entry point; run from the repository root:

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The library is imported from this checkout's `src/`.  Without it the run
stops with exit code 2 and prints no result.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    if not (SRC / "transversals" / "__init__.py").is_file():
        print(f"error: the transversals sources are missing from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # needs the library on the path set just above

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
