"""Write worst-case scenario files: dense blocks at the parser's caps.

Run from anywhere:

    python3 tools/worst_case.py OUT_DIR

It writes one scenario JSON file per name below into OUT_DIR (made if
missing) and prints each path.  `dvb check --scenario FILE` loads them.  A
dense entry holds its number of terms with distinct exponent vectors, each
exponent drawn from 0-16 (the parser's cap), and each coefficient p/q with p
and q of exactly 32 digits (the parser's digit cap), p of either sign, so
the denominators are distinct.  perfbench draws only generator scenarios,
whose denominators are at most 7, so it cannot see coefficient height; these
files can.  The output is the same on every run: each file draws from its
own seeded `random.Random`.  Only the standard library is used.

* dense8t3: bundle (n, n_F, n_C, n_E) = (3, 8, 8, 8) with only a morphism
  section.  Phi_l and Phi_c are identities, Psi is zero, and every entry of
  Phi_r is dense with 3 terms (`random.Random(1)`).
* dense8t12: the same shape with 12 terms in each entry of Phi_r
  (`random.Random(12)`).  Its parse-time certificate, one elimination of
  Phi_r's values at the parser's witness point, is the heaviest step of
  `load_scenario`.
* compose-t3r3-outer, compose-t3r3-inner: two fully dense morphisms of the
  bundle (3, 3, 3, 3), every entry of every block, Psi included, with 3
  terms; `compose_morphisms(outer, inner)` is the dense composition.
* compose-t8r3-outer, compose-t8r3-inner: the same with 8 terms per entry.
* vanish6, vanish8: bundle (3, R, R, R) for R = 6 and 8 with only a
  morphism section.  Phi_l and Phi_c are identities, Psi is zero, and every
  entry of Phi_r has 3 terms with exponents in 0-9 and coefficients in
  +-{1, 2, 3} (`random.Random(R)`); row 0 is then multiplied by 7*x1 - 3.
  The determinant of Phi_r is not the zero polynomial, but it vanishes at
  the parser's first witness point (x1 = 3/7), so `load_scenario`
  certifies Phi_r at the second witness: two eliminations of rank-R values.
* vanish8all: vanish8 with row 0 multiplied instead by (7*x1 - 3)(11*x1 + 5)
  (13*x1 - 7)(17*x1 + 11), exponents up to 13.  Its determinant is not the
  zero polynomial, but it vanishes at all four witness points, so the
  parser refuses the file with exit 2 (`INCONSISTENT_SCENARIO`), an honest
  input that the bounded certificate cannot accept.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

DIM = 3
MAX_EXPONENT = 16
DIGITS = 32


def dense_literal(rng: random.Random, terms: int) -> list[dict]:
    """One polynomial literal: `terms` terms at the caps."""
    exps: list[tuple[int, ...]] = []
    while len(exps) < terms:
        e = tuple(rng.randint(0, MAX_EXPONENT) for _ in range(DIM))
        if e not in exps:
            exps.append(e)
    out = []
    for e in exps:
        p = rng.randint(10 ** (DIGITS - 1), 10**DIGITS - 1) * rng.choice((1, -1))
        q = rng.randint(10 ** (DIGITS - 1), 10**DIGITS - 1)
        out.append({"coeff": f"{p}/{q}", "exps": list(e)})
    return out


def identity(n: int) -> list:
    one = [{"coeff": 1, "exps": [0] * DIM}]
    return [[one if i == j else [] for j in range(n)] for i in range(n)]


def dense(rng: random.Random, terms: int, *shape: int) -> list:
    """Nested lists of dense literals with the given lengths."""
    if not shape:
        return dense_literal(rng, terms)
    return [dense(rng, terms, *shape[1:]) for _ in range(shape[0])]


def scenario(ranks: tuple[int, int, int], morphism: dict) -> dict:
    n_f, n_c, n_e = ranks
    return {"bundle": {"n": DIM, "n_F": n_f, "n_C": n_c, "n_E": n_e}, "morphism": morphism}


def right_block_only(phi_r: list) -> dict:
    """Identity side and core blocks, zero Psi and the given Phi_r."""
    rank = len(phi_r)
    return scenario(
        (rank, rank, rank),
        {
            "Phi_l": identity(rank),
            "Phi_c": identity(rank),
            "Phi_r": phi_r,
            "Psi": [[[[] for _ in range(rank)] for _ in range(rank)] for _ in range(rank)],
        },
    )


def dense8(terms: int, rng: random.Random) -> dict:
    """Rank 8 with a dense Phi_r."""
    return right_block_only(dense(rng, terms, 8, 8))


def fully_dense(terms: int, rank: int, side: str) -> dict:
    rng = random.Random(f"compose-t{terms}r{rank}-{side}")
    blocks = {
        name: dense(rng, terms, *shape)
        for name, shape in (
            ("Phi_l", (rank, rank)),
            ("Phi_c", (rank, rank)),
            ("Phi_r", (rank, rank)),
            ("Psi", (rank, rank, rank)),
        )
    }
    return scenario((rank, rank, rank), blocks)


# x1 = 3/7, -5/11, 7/13 and -11/17 are the first coordinates of the parser's
# four witness points; each factor a*x1 + b below vanishes at one of them
WITNESS_FACTORS = ((7, -3), (11, 5), (13, -7), (17, 11))


def vanishing_literal(rng: random.Random, factors) -> list[dict]:
    """3 terms, exponents in 0-9 and coefficients in +-{1, 2, 3}, times
    a*x1 + b for each (a, b) in `factors`."""
    terms: dict[tuple[int, ...], int] = {}
    while len(terms) < 3:
        e = tuple(rng.randint(0, 9) for _ in range(DIM))
        if e not in terms:
            terms[e] = rng.choice((1, 2, 3)) * rng.choice((1, -1))
    for a, b in factors:
        product: dict[tuple[int, ...], int] = {}
        for e, c in terms.items():
            for shifted, k in (((e[0] + 1, *e[1:]), a * c), (e, b * c)):
                product[shifted] = product.get(shifted, 0) + k
        terms = {e: c for e, c in product.items() if c}
    return [{"coeff": c, "exps": list(e)} for e, c in sorted(terms.items(), reverse=True)]


def vanish(rank: int, factors) -> dict:
    """Rank `rank` with a Phi_r whose row 0 is multiplied by `factors`."""
    rng = random.Random(rank)
    rows = [[vanishing_literal(rng, factors if i == 0 else ()) for _ in range(rank)]
            for i in range(rank)]
    return right_block_only(rows)


def cases() -> dict[str, dict]:
    out = {"dense8t3": dense8(3, random.Random(1)), "dense8t12": dense8(12, random.Random(12))}
    out.update((f"vanish{rank}", vanish(rank, WITNESS_FACTORS[:1])) for rank in (6, 8))
    out["vanish8all"] = vanish(8, WITNESS_FACTORS)
    for terms, rank in ((3, 3), (8, 3)):
        for side in ("outer", "inner"):
            out[f"compose-t{terms}r{rank}-{side}"] = fully_dense(terms, rank, side)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("out_dir", type=Path)
    args = p.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, obj in cases().items():
        path = args.out_dir / f"{name}.json"
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
