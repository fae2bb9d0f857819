"""Print one sha256 over the deterministic outputs of a checkout.

Run from anywhere:

    python3 tools/identity.py [ROOT]

ROOT is a checkout of this repository (default: the one that holds this
file); its `src/` is imported.  For s = 0-20, each with `symmetric` False
and True (42 scenarios), the digest covers, in this order:

* `run_suite("all", gen_random_scenario(s, symmetric=b)).body()`;
* `scenario_to_text` of that scenario;
* `run_connection_check(kind, scenario).body()` for the kinds `metric`,
  `symmetric` and `lagrangian`, or `Type: message` of the exception it
  raises.

Each output is hashed as its UTF-8 text followed by one NUL byte.  Two
checkouts whose digests match give byte-identical report bodies, generator
texts and connection-check bodies on these scenarios; a refactor that must
change no output is checked by running this on the parent and on the
change.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

SEEDS = range(21)
KINDS = ("metric", "symmetric", "lagrangian")


def outputs():
    """Yield every covered output text, in digest order."""
    from dvbcalc import gen_random_scenario, run_connection_check, run_suite, scenario_to_text

    for s in SEEDS:
        for symmetric in (False, True):
            sc = gen_random_scenario(s, symmetric=symmetric)
            yield run_suite("all", sc).body()
            yield scenario_to_text(sc)
            for kind in KINDS:
                try:
                    yield run_connection_check(kind, sc).body()
                except Exception as exc:
                    yield f"{type(exc).__name__}: {exc}"


def digest() -> tuple[str, int]:
    """The sha256 hex digest over `outputs()` and the number of outputs."""
    h, count = hashlib.sha256(), 0
    for text in outputs():
        h.update(text.encode("utf-8") + b"\0")
        count += 1
    return h.hexdigest(), count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    hexdigest, count = digest()
    print(f"{hexdigest}  ({count} outputs, seeds {SEEDS.start}-{SEEDS.stop - 1}, plain and symmetric)")


if __name__ == "__main__":
    main()
