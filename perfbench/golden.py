"""Rewrite golden.json: the SHA-256 of each fixed query's output.

    python3 perfbench/golden.py

Run it only when a change to the program's output is intended, and review
the outputs it pins.
"""

import hashlib
import json
import sys

from answers import GOLDEN
from run import SRC, call
from workloads import FIXED_QUERIES


def main() -> None:
    sys.path.insert(0, str(SRC))
    from g2cubics import cli

    digests = {}
    for argv in FIXED_QUERIES:
        res = call(cli, argv, None)
        if res.rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {res.rc}: {res.err}")
        digests[" ".join(argv)] = hashlib.sha256(res.out.encode()).hexdigest()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
