#!/usr/bin/env python3
"""Strict JSON validity check for emitted artifacts.

    python3 scripts/check_json.py FILE...           # one document per file
    python3 scripts/check_json.py --lines FILE...   # one document per line (JSONL)

Python's json module accepts the non-standard constants NaN, Infinity
and -Infinity by default; this check rejects them, so a report that
would break a strict consumer fails here. Exits nonzero on the first
invalid file.
"""

import json
import sys


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def main(argv):
    lines = bool(argv) and argv[0] == "--lines"
    paths = argv[1:] if lines else argv
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        with open(path, encoding="utf-8") as f:
            docs = [line for line in f if line.strip()] if lines else [f.read()]
        for n, doc in enumerate(docs, 1):
            try:
                json.loads(doc, parse_constant=reject_constant)
            except ValueError as e:
                where = f"{path}:{n}" if lines else path
                print(f"INVALID JSON {where}: {e}", file=sys.stderr)
                return 1
        print(f"{path}: {len(docs)} strict JSON document(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
