"""Shared helpers for the test suite: seeded random generators for
automata and programs, bounded-language utilities, and small runners."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from probtrace.cfa import (
    PCFA,
    Assign,
    Assume,
    Label,
    Nd,
    Pb,
    SkipL,
    _nfa_of,
    _nfa_trim,
    _nfa_union,
    _subset_product,
    _to_pcfa,
    label_key,
    nfa_shortest,
    trace_key,
    trim,
)
from probtrace.formula import (
    EQ,
    LE,
    And,
    BoolLit,
    Cmp,
    FalseF,
    IntTerm,
    Or,
    TrueF,
    _cmp,
    as_term,
    bool_vars,
    eq,
    fand,
    for_,
    ge,
    int_vars,
    ivar,
    le,
)
from probtrace.lang import parse, to_pcfa
from probtrace.markov import actions_at
from probtrace.semantics import wp_demonic

DATA_DIR = Path(__file__).parent / "data"
BENCH_DIR = Path(__file__).parent.parent / "benchmarks"


def load_program(name: str):
    """Parse one of the checked-in data programs."""
    return parse((DATA_DIR / name).read_text())


def total_state(f, model: dict) -> dict:
    """`model` as a state of every variable of `f`: a variable the model
    leaves out reads 0 or False, as in `Solver.get_model`."""
    return {**dict.fromkeys(int_vars(f), 0), **dict.fromkeys(bool_vars(f), False), **model}


# ---------------------------------------------------------------------------
# views and transformers only the tests use


def simplify(f):
    """Rebuild through the smart constructors (canonical form)."""
    if isinstance(f, And):
        return fand(*(simplify(a) for a in f.args))
    if isinstance(f, Or):
        return for_(*(simplify(a) for a in f.args))
    if isinstance(f, Cmp):
        return _cmp(f.term, f.op)
    return f


def enumerate_traces(a: PCFA, max_len: int) -> list[tuple[Label, ...]]:
    """All accepted traces of length <= max_len, in (length, label-order)."""
    out: list[tuple[Label, ...]] = []
    frontier: list[tuple[int, tuple[Label, ...]]] = [(a.initial, ())]
    for _ in range(max_len + 1):
        nxt: list[tuple[int, tuple[Label, ...]]] = []
        for state, trace in frontier:
            if state == a.accepting:
                out.append(trace)
            for lab, t in a.out_edges(state):
                if len(trace) < max_len:
                    nxt.append((t, trace + (lab,)))
        frontier = nxt
        if not frontier:
            break
    return sorted(out, key=lambda tr: (len(tr), trace_key(tr)))


def union(a: PCFA, b: PCFA) -> PCFA:
    """L(a) ∪ L(b): the subset construction of their disjoint union."""
    return _to_pcfa(_nfa_trim(_subset_product(_nfa_union([a, b]), [], lambda x, y: x)))


def dump(a: PCFA) -> str:
    lines = [f"init: {a.initial}", f"accept: {a.accepting}"]
    for s, lab, t in sorted(a.transitions, key=lambda e: (e[0], label_key(e[1]), e[2])):
        lines.append(f"{s} -[{lab}]-> {t}")
    return "\n".join(lines)


def shortest_accepted_trace(a: PCFA):
    """Minimal-length accepted trace; ties broken by the label order."""
    return nfa_shortest(_nfa_of(a))


def wp_demonic_trace(trace, phi):
    for lab in reversed(trace):
        phi = wp_demonic(lab, phi)
    return phi


def bounded_language(a: PCFA, depth: int) -> set:
    return set(enumerate_traces(a, depth))


def bounded_equal_deterministic(a: PCFA, b: PCFA, depth: int) -> bool:
    """Depth-bounded language equality for deterministic automata via a
    product walk (no path enumeration, so deep bounds stay cheap).

    A pair state tracks where each side is, or None once that side has
    died.  Divergence = exactly one side alive at an accepting/step point.
    """
    assert a.is_deterministic() and b.is_deterministic()

    def accepting(side: PCFA, loc) -> bool:
        return loc is not None and loc == side.accepting

    def steps(side: PCFA, loc):
        if loc is None:
            return {}
        return {lab: t for lab, t in side.out_edges(loc)}

    seen = set()
    frontier = {(a.initial, b.initial)}
    for _ in range(depth + 1):
        nxt = set()
        for la, lb in frontier:
            if accepting(a, la) != accepting(b, lb):
                return False
            if (la, lb) in seen:
                continue
            seen.add((la, lb))
            ea, eb = steps(a, la), steps(b, lb)
            for lab in set(ea) | set(eb):
                nxt.add((ea.get(lab), eb.get(lab)))
        frontier = nxt - seen
        if not frontier:
            return True
    # the walk only decides divergence up to `depth` steps; anything beyond
    # is out of scope for a bounded check
    return True


# ---------------------------------------------------------------------------
# random CFMDPs (for normalization and strategy round-trip suites)

_X = ivar("X")

_DET_LABELS = [
    SkipL(),
    Assign("X", _X + as_term(1)),
    Assign("X", _X - as_term(1)),
    Assign("X", as_term(0)),
    Assume(ge(_X, 0)),
    Assume(le(_X, 0)),
    Assume(eq(_X, 1)),
]


def random_cfmdp(rng: random.Random, max_locs: int = 8) -> PCFA:
    """A random CFMDP: deterministic, accepting location is a sink.

    Locations 0..n-1 with 0 initial and n-1 accepting.  Every other
    location gets one to three actions: plain labels or a fresh coin
    (whose two branch targets may coincide, so that normalization has
    real work to do).  Coin sides are occasionally dropped.
    """
    n = rng.randint(2, max_locs)
    init, acc = 0, n - 1
    trans: set = set()
    pid = 0
    for loc in range(n):
        if loc == acc:
            continue
        labels = rng.sample(_DET_LABELS, len(_DET_LABELS))
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.45:
                lt = rng.randrange(n)
                # a *shared* coin target must not be the accepting location:
                # splitting it would need a second accepting location, which
                # the single-accepting automaton shape cannot carry (program
                # construction never produces that case)
                if rng.random() < 0.4 and lt != acc:
                    rt = lt
                else:
                    rt = rng.randrange(n)
                    if rt == lt == acc:
                        rt = rng.randrange(n - 1)
                if rng.random() < 0.15:
                    # single-sided coin: the other branch's mass is lost
                    side = rng.choice("LR")
                    trans.add((loc, Pb(pid, side), lt))
                else:
                    trans.add((loc, Pb(pid, "L"), lt))
                    trans.add((loc, Pb(pid, "R"), rt))
                pid += 1
            elif labels:
                trans.add((loc, labels.pop(), rng.randrange(n)))
    a = PCFA(trans, init, acc, locations=set(range(n)))
    assert a.is_cfmdp()
    return a


def random_sub_cfmc(rng: random.Random, a: PCFA) -> PCFA:
    """Carve a sub-CFMC out of a CFMDP by fixing one action per location
    (sometimes dropping one side of the chosen coin), then trimming."""
    trans: set = set()
    for loc in sorted(a.locations):
        if loc == a.accepting:
            continue
        acts = actions_at(a, loc)
        if not acts:
            continue
        act = rng.choice(sorted(acts, key=repr))
        tgt = acts[act]
        if isinstance(tgt, dict):
            sides = sorted(tgt)
            if len(sides) > 1 and rng.random() < 0.3:
                sides = [rng.choice(sides)]
            for side in sides:
                trans.add((loc, Pb(act, side), tgt[side]))
        else:
            trans.add((loc, act, tgt))
    m = trim(PCFA(trans, a.initial, a.accepting, locations=set(a.locations)))
    assert m.is_cfmc()
    return m


# ---------------------------------------------------------------------------
# random loop-free programs (oracle-equivalence suite)


def random_loopfree_program(rng: random.Random) -> str:
    """A loop-free program over one or two integer variables in [-4, 4]
    with at most three fair coins, branching, and linear updates."""
    nvars = rng.choice([1, 2])
    names = ["X", "Y"][:nvars]

    def term(depth: int = 0) -> str:
        r = rng.random()
        if r < 0.45:
            return str(rng.randint(-3, 3))
        v = rng.choice(names)
        if r < 0.75 or depth > 0:
            return v
        return f"{v} {rng.choice(['+', '-'])} {term(depth + 1)}"

    def cond() -> str:
        lhs = rng.choice(names)
        op = rng.choice(["<=", ">=", "=", "!=", "<", ">"])
        return f"{lhs} {op} {rng.randint(-2, 2)}"

    def assign() -> str:
        return f"{rng.choice(names)} := {term()};"

    def simple() -> str:
        return assign() if rng.random() < 0.85 else "skip;"

    coins = rng.randint(1, 3)
    lines: list[str] = []
    for _ in range(rng.randint(2, 4)):
        r = rng.random()
        if coins and r < 0.55:
            coins -= 1
            lines.append(f"{{ {simple()} }} <+> {{ {simple()} }};")
        elif r < 0.75:
            lines.append(f"if ({cond()}) {{ {simple()} }} else {{ {simple()} }}")
        else:
            lines.append(assign())

    pre_parts = []
    for v in names:
        lo = rng.randint(-4, 0)
        hi = rng.randint(lo, 4)
        if lo == hi:
            pre_parts.append(f"{v} = {lo}")
        else:
            pre_parts.append(f"{v} >= {lo} && {v} <= {hi}")
    post = cond()

    decls = "\n".join(f"int {v};" for v in names)
    body = "\n".join(lines)
    return (
        f"@pre {' && '.join(pre_parts)}\n"
        f"@post {post}\n"
        f"@beta 1/2\n"
        f"{decls}\n{body}\n"
    )


# ---------------------------------------------------------------------------
# random bounded-counter loops (oracle soundness on loops)


def random_counter_loop(rng: random.Random) -> str:
    """A random walk or ruin shape: a coin-driven update of X inside a loop
    whose guard a counter T decrements, so every run stops within three
    rounds.  The precondition keeps X and T inside the oracle's default
    domain, so its interval covers every initial state the verifier sees.
    The coin is tossed in every round: with a body that may skip it,
    `examine` works through thousands of coin-free unrollings."""
    x_lo = rng.randint(-2, 1)
    x_hi = x_lo + rng.choice([0, 0, 1])
    t_hi = rng.randint(1, 3)
    t_lo = rng.randint(max(0, t_hi - 1), t_hi)

    def update() -> str:
        return rng.choice(["X := X + 1;", "X := X - 1;", "skip;", "X := 0;"])

    body = f"{{ {update()} }} <+> {{ {update()} }};"
    guard = "T > 0"
    if rng.random() < 0.4:  # ruin shape: stop early once X drops below a floor
        guard = f"T > 0 && X >= {x_lo - rng.randint(0, 1)}"
    post = f"X {rng.choice(['<=', '>=', '!='])} {rng.randint(-2, 2)}"
    beta = rng.choice(["1/8", "1/4", "3/8", "1/2", "3/4"])
    x_pre = f"X = {x_lo}" if x_lo == x_hi else f"X >= {x_lo} && X <= {x_hi}"
    t_pre = f"T = {t_lo}" if t_lo == t_hi else f"T >= {t_lo} && T <= {t_hi}"
    return (
        f"@pre {x_pre} && {t_pre}\n"
        f"@post {post}\n"
        f"@beta {beta}\n"
        "int X;\nint T;\n"
        f"while ({guard}) {{\n  {body}\n  T := T - 1;\n}}\n"
    )


# ---------------------------------------------------------------------------
# random loops whose strongest postconditions project


# each holds in every state the precondition admits, so a violation needs a
# round of the loop
_HOLDS_AT_ENTRY = [
    "X <= 1", "X >= 0", "Y <= 1", "X <= Y + 1", "X >= Y - 1", "X + Y <= 2", "X != 2",
]


def random_projecting_loop(rng: random.Random) -> str:
    """A loop of at most two rounds over X and Y whose body overwrites
    them: after `X := c` or `X := Y + c` the strongest postcondition must
    project the old X, after `Y := X` the old Y.  Fair coins, branch tags
    and `if` nest the assignments.  The precondition keeps every variable
    inside the oracle's default domain."""

    def cond() -> str:
        return f"{rng.choice('XY')} {rng.choice(['<=', '>=', '=', '!='])} {rng.randint(0, 2)}"

    def stmt(depth: int = 0) -> str:
        r = rng.random()
        if depth < 2 and r < 0.3:
            op = rng.choice(["<+>", "<+>", "<*>"])
            return f"{{ {stmt(depth + 1)} }} {op} {{ {stmt(depth + 1)} }};"
        if depth < 2 and r < 0.45:
            return f"if ({cond()}) {{ {stmt(depth + 1)} }} else {{ {stmt(depth + 1)} }}"
        c = rng.randint(-1, 2)
        return rng.choice(
            [f"X := Y {'+' if c >= 0 else '-'} {abs(c)};", "Y := X;", f"X := {c};"]
        )

    body = " ".join(stmt() for _ in range(rng.randint(1, 2)))
    beta = rng.choice(["1/8", "1/4", "3/8", "1/2", "3/4"])
    return (
        "@pre X >= 0 && X <= 1 && Y >= 0 && Y <= 1 && T >= 0 && T <= 2\n"
        f"@post {rng.choice(_HOLDS_AT_ENTRY)}\n"
        f"@beta {beta}\n"
        "int X;\nint Y;\nint T;\n"
        f"while (T > 0) {{\n  {body}\n  T := T - 1;\n}}\n"
    )


# ---------------------------------------------------------------------------
# random loops over a boolean and a counter


def random_boolean_loop(rng: random.Random) -> str:
    """A loop of at most two rounds over an integer X and a boolean B:
    each round flips or sets B and moves X by at most one, under fair
    coins, branch tags and `if (B)` or `if (X >= c)`.  The precondition
    leaves B free and keeps X and T inside the oracle's default domain,
    and X ends within [-2, 3], so every value stays inside it too."""

    def guard() -> str:
        return rng.choice(["B", "!B", f"X >= {rng.randint(0, 2)}"])

    def stmt(kinds: list[str], depth: int = 0) -> str:
        r = rng.random()
        if depth < 2 and r < 0.3:
            op = rng.choice(["<+>", "<+>", "<*>"])
            return f"{{ {stmt(kinds, depth + 1)} }} {op} {{ {stmt(kinds, depth + 1)} }};"
        if depth < 2 and r < 0.45:
            return f"if ({guard()}) {{ {stmt(kinds, depth + 1)} }} else {{ {stmt(kinds, depth + 1)} }}"
        return rng.choice(kinds)

    moves = ["X := X + 1;", "X := X - 1;", "skip;"]
    flips = ["B := !B;", "B := X >= 1;", "skip;"]
    body = stmt(moves + flips)
    if rng.random() < 0.5:  # a second statement may touch only B
        body += " " + stmt(flips)
    beta = rng.choice(["1/8", "1/4", "3/8", "1/2", "3/4"])
    post = rng.choice(["B", "!B", "X <= 1", "X >= 0", "B || X <= 1", "!B || X >= 1"])
    return (
        "@pre X >= 0 && X <= 1 && T >= 0 && T <= 2\n"
        f"@post {post}\n"
        f"@beta {beta}\n"
        "int X;\nbool B;\nint T;\n"
        f"while (T > 0) {{\n  {body}\n  T := T - 1;\n}}\n"
    )


def program_pcfa(text: str):
    program, spec = parse(text)
    return to_pcfa(program), spec


HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# references for the keys and atoms each node stores: the walks the library
# made on every call before it stored them


def reference_formula_key(f):
    """The fixed total order on formulas, walked through the whole tree."""
    if isinstance(f, TrueF):
        return (0,)
    if isinstance(f, FalseF):
        return (1,)
    if isinstance(f, BoolLit):
        return (2, f.name, f.positive)
    if isinstance(f, Cmp):
        return (3, f.op, f.term.coeffs, f.term.const)
    if isinstance(f, And):
        return (4, tuple(reference_formula_key(a) for a in f.args))
    return (5, tuple(reference_formula_key(a) for a in f.args))


def reference_label_key(lab):
    """Fixed total order: Assign < Assume < Skip < Pb < Nd, then operands."""
    if isinstance(lab, Assign):
        if isinstance(lab.expr, IntTerm):
            ek = (0, lab.expr.coeffs, lab.expr.const)
        else:
            ek = (1, reference_formula_key(lab.expr))
        return (0, lab.var, ek)
    if isinstance(lab, Assume):
        return (1, reference_formula_key(lab.cond))
    if isinstance(lab, SkipL):
        return (2,)
    if isinstance(lab, Pb):
        return (3, lab.pid, 0 if lab.side == "L" else 1)
    if isinstance(lab, Nd):
        return (4, lab.tag)
    raise TypeError(f"not a label: {lab!r}")


def reference_least_atom(f):
    """The atom of `f` with the least key, found by walking every node."""
    best = None
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (And, Or)):
            stack.extend(g.args)
        elif isinstance(g, (BoolLit, Cmp)):
            k = reference_formula_key(g)
            if best is None or k < best_key:
                best, best_key = g, k
    return best


def reference_cmp_fact(a: Cmp) -> tuple[tuple, str, int]:
    """A comparison read as a fact on its linear base, from its term and
    sign on every call."""
    coeffs, const = a.term.coeffs, a.term.const
    if a.op == LE:
        if coeffs[0][1] < 0:
            return tuple((v, -c) for v, c in coeffs), "lb", const
        return coeffs, "ub", -const
    return coeffs, "eq" if a.op == EQ else "ne", -const


# ---------------------------------------------------------------------------
# reference for `cfa._to_pcfa`


def reference_merged_pcfa(n) -> PCFA:
    """A trimmed product whose accepting states are dead ends as a PCFA,
    built twice: the accepting states merged into the least one, then
    renumbered in sorted order by `PCFA.renumber`."""
    target = min(n.accepting)
    remap = {s: (target if s in n.accepting else s) for s in n.states}
    (init,) = n.initials
    merged = {(remap[s], lab, remap[t]) for s, lab, t in n.transitions}
    return PCFA(merged, remap[init], target).renumber()
