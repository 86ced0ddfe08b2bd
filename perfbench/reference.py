"""Reference KBs for the output checks: a direct ``QKBfly.build_kb``
over the benchmark world, with no serving tier in between.

    python3 perfbench/reference.py --keys IN.json --out OUT.json

``IN.json`` is a list of ``[query, source, k]``; ``OUT.json`` maps the
JSON of each key to the digest of its KB (:func:`kb_digest`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys


def kb_digest(kb_dict) -> str:
    """SHA-256 of the canonical JSON of ``KnowledgeBase.to_dict()``."""
    canonical = json.dumps(
        json.loads(json.dumps(kb_dict, default=str)),
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def key_id(key) -> str:
    return json.dumps(list(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keys", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.core.qkbfly import QKBfly
    from workloads import build_bench_world

    with open(args.keys, encoding="utf-8") as handle:
        keys = json.load(handle)
    qkbfly = QKBfly.from_world(build_bench_world())
    digests = {
        key_id(key): kb_digest(
            qkbfly.build_kb(key[0], source=key[1], num_documents=key[2])
            .to_dict()
        )
        for key in keys
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(digests, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
