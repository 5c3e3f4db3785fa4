"""The benchmark's inputs: the crafted corpus and two seeded generators.

Every generated program pins its initial state and is bounded, so its
violation probability is exact.  Each generator computes that value itself,
by enumerating the program's coin outcomes, to place the threshold; the
benchmark then checks it against the library's oracle before timing.  The
library only ever sees the generated texts.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    mode: str  # "verify" or "refute": which verification loop decides it
    truth: Optional[Fraction]  # exact violation probability, if known without the oracle
    expect: Optional[str] = None  # the golden verdict; None makes the oracle the reference


def digest(cases: list[Case]) -> str:
    """Fingerprint of the inputs, so two commits can be shown to run the same programs."""
    h = hashlib.sha256()
    for c in cases:
        h.update(f"{c.name}\0{c.mode}\0{c.text}\0".encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# suite: the crafted corpus
# ---------------------------------------------------------------------------

# `walk` alone runs 36-51 s on a 2-core machine, more than one benchmark run
# may take; `refute` keeps the walk family at a size that fits.
SUITE_SKIP = frozenset({"walk.prob"})


def suite(rng: random.Random, corpus: Path, motivating: Path) -> list[Case]:
    """The corpus programs with frozen goldens, plus the motivating example,
    whose reference comes from the oracle.  Loops make the automata algebra
    (the language difference) dominate.  The seed only orders the inputs."""
    golden = json.loads((corpus / "golden.json").read_text())
    cases = []
    for path in sorted(corpus.glob("*.prob")):
        if path.name in SUITE_SKIP:
            continue
        g = golden[path.name]
        cases.append(Case(path.stem, path.read_text(), "verify",
                          Fraction(g["oracle_num"], g["oracle_den"]), g["expected_verdict"]))
    cases.append(Case(motivating.stem, motivating.read_text(), "verify", None))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# flips: loop-free coin programs through `verify`
# ---------------------------------------------------------------------------

# heads and tails increments of (X, Y)
_COINS = {
    "{ X := X + 1; } <+> { Y := Y + 1; };": ((1, 0), (0, 1)),
    "{ X := X + 1; } <+> { skip; };": ((1, 0), (0, 0)),
    "{ Y := Y + 1; } <+> { skip; };": ((0, 1), (0, 0)),
}
_FORMS = {"X": (1, 0), "X + Y": (1, 1), "X - Y": (1, -1)}


def flips(rng: random.Random) -> list[Case]:
    """Four to six fair coins that each raise one of two counters, and a
    threshold on a linear form of them.  Loop-free, so Hoare saturation, the
    solver facade's cache and the formula constructors do most of the work
    and the automata algebra little: this workload predicts no change for
    work on the language difference.  More than six coins would shift the
    time into the automata algebra.  Each program runs twice: with the
    threshold at the exact violation probability (Sat, and the bound must be
    exact) and at nine tenths of it (Unsat).

    The coins and the threshold's place in the distribution are fixed per
    (coins, form) slot; the seed draws the start values, which move the
    threshold with them, and the input order.  So runs under different
    seeds verify different programs with the same amount of work."""
    kinds = sorted(_COINS)
    cases = []
    for n in (4, 5, 6):
        for j, (form, (cx, cy)) in enumerate(_FORMS.items()):
            coins = [kinds[(i + j) % len(kinds)] for i in range(n)]
            values = [0]  # the form's increment under each of the 2**n outcomes
            for coin in coins:
                values = [v + cx * dx + cy * dy for v in values for (dx, dy) in _COINS[coin]]
            values.sort()
            k = min(values[len(values) // 2], values[-1] - 1)  # the median outcome, below the top
            truth = Fraction(sum(1 for v in values if v > k), len(values))
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            bound = cx * a + cy * b + k
            body = "\n".join(coins)
            for beta, tag in ((truth, "sat"), (truth * Fraction(9, 10), "unsat")):
                text = (
                    f"# {n} coins; violation when {form} ends above {bound}\n"
                    f"@pre X = {a} && Y = {b}\n@post {form} <= {bound}\n@beta {beta}\n"
                    f"int X;\nint Y;\n{body}\n"
                )
                cases.append(Case(f"flips{n}_{form.replace(' ', '')}_{tag}", text, "verify", truth))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# refute: violated loop programs through `verify_refutational`
# ---------------------------------------------------------------------------

def _walk_probability(steps: int, lo: int, hi: int) -> Fraction:
    outside = sum(1 for signs in product((1, -1), repeat=steps) if not lo <= sum(signs) <= hi)
    return Fraction(outside, 2**steps)


def refute(rng: random.Random) -> list[Case]:
    """Violated contracts from the corpus's loop families, at sizes where the
    refutational loop settles in a few seconds.  That loop never runs
    `examine`: each iteration materialises the residual language (difference,
    then minimisation) and bounds it with MDP policy iteration, so the MDP
    layer carries a larger share here than in `suite`.  Only violated
    contracts, because there the loop is complete; on satisfied ones it may
    end Inconclusive by design.

    Each threshold is drawn from 60-84 % of the exact value: in that band
    every family needs the same violating traces before the found mass
    passes it, so runs under different seeds do the same work.  The seed
    also draws start values and bounds, and the input order."""

    def beta(truth: Fraction) -> Fraction:
        return truth * Fraction(rng.randint(60, 84), 100)

    cases = []
    a, lo, hi = rng.randint(-1, 1), rng.choice((1, 2)), rng.choice((1, 2))
    truth = _walk_probability(3, -lo, hi)
    cases.append(Case("walk", (
        f"# random walk of 3 steps from {a}; violation when it ends outside [{a - lo}, {a + hi}]\n"
        f"@pre X = {a} && T = 3\n@post X >= {a - lo} && X <= {a + hi}\n@beta {beta(truth)}\n"
        "int X;\nint T;\nwhile (T > 0) {\n  { X := X + 1; } <+> { X := X - 1; };\n  T := T - 1;\n}\n"
    ), "refute", truth))

    o = rng.randint(-2, 1)
    truth = _walk_probability(3, -1, 99)  # from one unit above ruin
    cases.append(Case("ruin", (
        f"# one unit above ruin at {o}, three fair rounds; violation when it ends below {o}\n"
        f"@pre C = {o + 1} && R = 3\n@post C >= {o}\n@beta {beta(truth)}\n"
        "int C;\nint R;\nwhile (R > 0) {\n  { C := C + 1; } <+> { C := C - 1; };\n  R := R - 1;\n}\n"
    ), "refute", truth))

    truth = Fraction(2, 2**4)  # all four draws of the same kind
    cases.append(Case("coupon", (
        "# two coupon kinds, four draws; violation when a kind is never drawn\n"
        f"@pre T = 4 && !A && !B\n@post A && B\n@beta {beta(truth)}\n"
        "bool A;\nbool B;\nint T;\nwhile (T > 0) {\n  { A := true; } <+> { B := true; };\n  T := T - 1;\n}\n"
    ), "refute", truth))

    low = rng.randint(-2, 0)
    truth = Fraction(7, 16)  # worst case C = 3: the first coin keeps C, a later one raises X
    cases.append(Case("counter", (
        f"# coin-guarded counter from C in [{low}, 3]; violation when X ends nonzero\n"
        f"@pre C >= {low} && C <= 3\n@post X = 0\n@beta {beta(truth)}\n"
        "int X;\nint C;\nX := 0;\n{ C := 0; } <+> { skip; };\n"
        "while (C > 0) {\n  { X := X + 1; } <+> { skip; };\n  C := C - 1;\n}\n"
    ), "refute", truth))
    rng.shuffle(cases)
    return cases
