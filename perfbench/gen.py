"""Seeded problem generator for the four benchmark families.

Each family fixes the shape and the coefficients of its instance; the seed
picks one of ``VARIANTS`` namings of the variables and, over GF(p), the
coefficients of the target structure.  Over QQ the coefficients stay fixed,
because the size of the rationals in the matrix moves the cost of a command
by up to 40% between draws; every name set keeps the alphabetical order of
the variables, so every seed of a family costs the same work.  The pinned
correctness table in ``pins.json`` holds one entry per variant, so every
seed can be checked against it.

    python3 perfbench/gen.py --workload qq-differential --seed 3 --out p.json
"""

from __future__ import annotations

import argparse
import json
import random

VARIANTS = 8

# Size parameters of each family.  One pass over the six commands takes
# 2.5-5 s on a 2-core machine, so a run times each command several times.
SIZES = {
    "qq-differential": {"r": 4},
    "gfp-relations": {"r": 3},
    "nilpotent-obstruction": {"r": 4},
    "gf2-hom-enumeration": {"k": 3},
}

# (generator name, label name, base-variable name) per variant; in each the
# base variable sorts before the generator and the generator before the label.
NAMES = [
    ("t", "y", "a"), ("s", "x", "b"), ("p", "w", "c"), ("q", "z", "a"),
    ("r", "v", "b"), ("m", "u", "c"), ("g", "n", "a"), ("e", "h", "b"),
]

DUAL_NUMBERS = {
    "basis": ["1", "d"],
    "products": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
    "factors": [{"idempotent": ["1", "0"], "maximal_ideal": [["0", "1"]]}],
}

# k[d]/(d^3): the coefficient algebra of a truncated Hasse-Schmidt derivation.
TRUNCATED_JETS = {
    "basis": ["1", "d", "d2"],
    "products": [
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
        [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
    ],
    "factors": [{"idempotent": ["1", "0", "0"],
                 "maximal_ideal": [["0", "1", "0"], ["0", "0", "1"]]}],
}

FIELD_ONLY = {
    "basis": ["1"],
    "products": [[["1"]]],
    "factors": [{"idempotent": ["1"], "maximal_ideal": []}],
}


def _truncated_power_basis(r: int, y: str):
    """Labels and structure constants of k[y]/(y^r) in the basis 1, y1..y{r-1}."""
    labels = ["1"] + [f"{y}{i}" for i in range(1, r)]
    products = [
        [["1" if m == i + j else "0" for m in range(r)] for j in range(r)]
        for i in range(r)
    ]
    return labels, products


def qq_differential(rng: random.Random, names, r: int) -> dict:
    t, y, _ = names
    labels, products = _truncated_power_basis(r, y)
    return {
        "field": "rationals",
        "D": DUAL_NUMBERS,
        "A": {"variables": [], "relations": [], "images": {}},
        "B": {
            "basis": labels,
            "products": products,
            # the derivation y -> y, so y^i -> i*y^i
            "images": {f"{y}{i}": [f"{y}{i}", f"{i}*{y}{i}"] for i in range(1, r)},
        },
        "C": {
            "generators": [f"{t}1", f"{t}2"],
            "relations": [],
            "images": {
                f"{t}1": [f"{t}1", f"{t}1^2 + {y}1*{t}2"],
                f"{t}2": [f"{t}2", f"{t}2^2 + {y}1*{t}1"],
            },
        },
        "second": {
            "D": FIELD_ONLY,
            "A_images": {},
            "B_images": {f"{y}{i}": [f"{2 ** i}*{y}{i}"] for i in range(1, r)},
            "C_images": {f"{t}1": [f"{t}1"], f"{t}2": [f"{t}2"]},
        },
    }


def gfp_relations(rng: random.Random, names, r: int, p: int = 101) -> dict:
    t, y, a = names
    labels, products = _truncated_power_basis(r, y)
    half = pow(2, -1, p)
    images = {}
    for i, nxt in ((1, 2), (2, 1)):
        c1, c2 = rng.randint(1, p - 1), rng.randint(1, p - 1)
        images[f"{t}{i}"] = [f"{t}{i}", f"{c1}*{t}{i}*{y}1 + {c2}*{t}{i}*{t}{nxt}", "0"]
    return {
        "field": {"prime": p},
        "D": TRUNCATED_JETS,
        "A": {"variables": [a], "relations": [], "images": {a: [a, "1", "0"]}},
        "B": {
            "basis": labels,
            "products": products,
            # y^i -> y^i * exp(i*d), the Hasse-Schmidt derivation of y -> y
            "images": {
                f"{y}{i}": [f"{y}{i}", f"{i % p}*{y}{i}", f"{i * i * half % p}*{y}{i}"]
                for i in range(1, r)
            },
        },
        "C": {
            "generators": [f"{t}1", f"{t}2"],
            "relations": [f"{t}1^3", f"{t}2^3"],
            "images": images,
        },
        "second": {
            "D": FIELD_ONLY,
            "A_images": {a: [a]},
            "B_images": {f"{y}{i}": [f"{pow(2, i, p)}*{y}{i}"] for i in range(1, r)},
            "C_images": {f"{t}1": [f"{t}1"], f"{t}2": [f"{t}2"]},
        },
    }


def nilpotent_obstruction(rng: random.Random, names, r: int) -> dict:
    t, y, a = names
    labels, products = _truncated_power_basis(r, y)

    def a_power(n):
        return "1" if n == 0 else (a if n == 1 else f"{a}^{n}")

    # y -> a*y + y*d, so y^i -> a^i*y^i + i*a^(i-1)*y^i*d, truncated by a^3
    b_images = {}
    for i in range(1, r):
        sigma = f"{a_power(i)}*{y}{i}" if i < 3 else "0"
        delta = f"{i}*{a_power(i - 1)}*{y}{i}" if i < 4 else "0"
        b_images[f"{y}{i}"] = [sigma, delta]
    return {
        "field": "rationals",
        "D": DUAL_NUMBERS,
        "A": {"variables": [a], "relations": [f"{a}^3"], "images": {a: [a, "0"]}},
        "B": {"basis": labels, "products": products, "images": b_images},
        "C": {"generators": [t], "relations": [], "images": {t: [t, f"{t}^2"]}},
        "z": ["0", f"{y}1"],
        "second": {
            "D": FIELD_ONLY,
            "A_images": {a: [a]},
            "B_images": {f"{y}{i}": [f"{y}{i}"] for i in range(1, r)},
            "C_images": {t: [t]},
        },
    }


def gf2_hom_enumeration(rng: random.Random, names, k: int) -> dict:
    t, w, u = names[0], names[1], names[1] + "u"
    return {
        "field": {"prime": 2},
        "D": FIELD_ONLY,
        "A": {"variables": [], "relations": [], "images": {}},
        "B": {
            "basis": ["1", w],
            "products": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
            "images": {w: [w]},
        },
        "C": {"generators": [t], "relations": [f"{t}^2"], "images": {t: [t]}},
        "R": {"variables": [u], "relations": [f"{u}^{k}"], "images": {u: [u]}},
        "second": {
            "D": FIELD_ONLY,
            "A_images": {},
            "B_images": {w: [w]},
            "C_images": {t: [t]},
        },
    }


FAMILIES = {
    "qq-differential": qq_differential,
    "gfp-relations": gfp_relations,
    "nilpotent-obstruction": nilpotent_obstruction,
    "gf2-hom-enumeration": gf2_hom_enumeration,
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def generate(workload: str, seed: int, **sizes) -> dict:
    """The problem document of ``workload`` for ``seed``; sizes default to SIZES."""
    params = dict(SIZES[workload], **sizes)
    variant = variant_of(seed)
    rng = random.Random(f"{workload}/{variant}")
    return FAMILIES[workload](rng, NAMES[variant], **params)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, help="override r (or k) of the family")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sizes = {}
    if args.size is not None:
        (name,) = SIZES[args.workload]
        sizes[name] = args.size
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(generate(args.workload, args.seed, **sizes), handle, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
