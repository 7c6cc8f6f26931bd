"""Write the golden outputs that tests/test_goldens.py compares byte for byte.

    python3 scripts/capture_goldens.py                 # rewrite tests/goldens/
    python3 scripts/capture_goldens.py --out DIR --h12-seeds 10 --h64-seeds 8

The goldens are solution JSON plus best-objective history for hospital12
(N=4000) and hospital64 (N=400), seeds 0-3, full evaluation profiles of
random solutions, and the serialize_instance text of hospital12 and of a
small Solomon profile.  Regenerate them only with a change that declares a
behaviour change; a refactor must leave every file identical.  ``--out``,
``--h12-seeds`` and ``--h64-seeds`` write a wider set elsewhere, e.g. to
diff two checkouts with ``diff -r``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import GOLDEN_DIR, golden_cases, golden_text  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_DIR)
    parser.add_argument("--h12-seeds", type=int, default=4)
    parser.add_argument("--h64-seeds", type=int, default=4)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for stem, build in golden_cases(args.h12_seeds, args.h64_seeds).items():
        path = args.out / f"{stem}.json"
        path.write_text(golden_text(build()))
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
