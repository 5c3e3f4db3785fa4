"""Automata layer: products, difference, minimization, normalization.

Ground truth throughout is bounded trace enumeration: for length-preserving
operations, the set identity restricted to traces of length <= d must hold
exactly, so randomized comparisons against Python set algebra are decisive.
"""

import copy
import dataclasses
import gc
import itertools
import pickle
import random
import signal
import sys
import threading
import weakref

import pytest

from probtrace import cfa
from probtrace.cfa import (
    PCFA,
    Assign,
    Assume,
    Nd,
    Pb,
    SkipL,
    difference_all,
    difference_nfa,
    empty_pcfa,
    intersect,
    label_key,
    nfa_is_empty,
    nfa_shortest,
    trace_key,
    trace_tree,
    trim,
)
from probtrace.formula import as_term, bvar, for_, ge, ivar, le
from probtrace.lang import parse, parse_label, to_pcfa
from probtrace.theory import determinize, is_empty, is_normalized, minimize, normalize

from helpers import (
    BENCH_DIR,
    DATA_DIR,
    bounded_equal_deterministic,
    bounded_language,
    random_cfmdp,
    random_sub_cfmc,
    reference_label_key,
    reference_merged_pcfa,
    shortest_accepted_trace,
    union,
)

X = ivar("X")
INC = Assign("X", X + as_term(1))
RESET = Assign("X", as_term(0))
SKIP = SkipL()
POS = Assume(ge(X, 1))
NEG = Assume(le(X, 0))
ALPHABET = (INC, RESET, SKIP, POS, NEG, Pb(0, "L"), Pb(0, "R"))


def nfa(*edges, initial=0, accepting=9) -> PCFA:
    return PCFA(set(edges), initial, accepting)


def random_nfa(rng: random.Random, max_locs: int = 5) -> PCFA:
    """Possibly nondeterministic automaton with an accepting sink."""
    n = rng.randint(2, max_locs)
    labels = list(ALPHABET)
    trans = set()
    for _ in range(rng.randint(2, 2 * n + 2)):
        src = rng.randrange(n - 1)
        trans.add((src, rng.choice(labels), rng.randrange(n)))
    return PCFA(trans, 0, n - 1, locations=set(range(n)))


# ---------------------------------------------------------------------------
# basics


def test_accepting_must_be_reached_for_accepts():
    a = nfa((0, INC, 1), (1, SKIP, 9))
    assert a.accepts((INC, SKIP))
    assert not a.accepts((INC,))
    assert not a.accepts((SKIP, INC))
    assert a.accepts(()) is False


def test_empty_trace_accepted_when_initial_is_accepting():
    a = PCFA(set(), 0, 0)
    assert a.accepts(())
    assert () in bounded_language(a, 3)


def test_enumerate_traces_matches_accepts():
    rng = random.Random(5)
    for _ in range(30):
        a = random_nfa(rng)
        for tr in bounded_language(a, 4):
            assert a.accepts(tr)


def test_accepts_twice_agrees_with_the_bounded_language_seeded():
    # an automaton keeps its adjacency after the first `accepts`, so the
    # second round of calls reads the kept one
    rng = random.Random(1901)
    words = [w for n in range(4) for w in itertools.product(ALPHABET, repeat=n)]
    for _ in range(30):
        a = random_nfa(rng)
        lang = bounded_language(a, 3)
        for _ in range(2):
            assert {w for w in words if a.accepts(w)} == lang


def test_trim_removes_dead_locations():
    a = nfa((0, INC, 1), (1, SKIP, 9), (2, RESET, 2), (0, RESET, 3))
    t = trim(a)
    assert bounded_language(t, 5) == bounded_language(a, 5)
    assert 2 not in t.locations


def test_is_empty_and_shortest():
    a = nfa((0, INC, 1), (1, SKIP, 9), (0, SKIP, 2))
    assert not is_empty(a)
    assert shortest_accepted_trace(a) == (INC, SKIP)
    assert is_empty(empty_pcfa())
    assert shortest_accepted_trace(empty_pcfa()) is None


def test_shortest_word_search_ends_without_a_reachable_accepting_state():
    def hang(signum, frame):
        raise TimeoutError("nfa_shortest did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(2)
    try:
        assert nfa_shortest(cfa._NFA({(0, SKIP, 0)}, {0}, {1}, {0, 1})) is None
        looping = nfa((0, INC, 1), (1, SKIP, 0), (2, RESET, 9))
        assert shortest_accepted_trace(looping) is None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_shortest_accepted_trace_is_the_least_shortest_word_randomized():
    rng = random.Random(2203)
    for _ in range(150):
        a = random_nfa(rng)
        words = bounded_language(a, len(a.locations))
        got = shortest_accepted_trace(a)
        if not words:
            assert got is None
        else:
            assert got == min(words, key=lambda tr: (len(tr), trace_key(tr)))


def test_label_and_trace_keys_are_total_orders():
    labs = sorted(ALPHABET, key=label_key)
    assert len(labs) == len(ALPHABET)
    assert sorted([labs[3], labs[0]], key=label_key)[0] == labs[0]
    t1, t2 = (INC,), (INC, SKIP)
    assert trace_key(t1) < trace_key(t2)


# ---------------------------------------------------------------------------
# determinization and boolean algebra vs. enumeration


def random_prefix_free_words(rng: random.Random) -> list[tuple]:
    """A non-empty prefix-free set of non-empty words, in draw order."""
    words: list[tuple] = []
    for _ in range(rng.randint(1, 6)):
        w = tuple(rng.choice(ALPHABET) for _ in range(rng.randint(1, 5)))
        if not any(
            w[: len(v)] == v or v[: len(w)] == w for v in words
        ):
            words.append(w)
    return words


def random_prefix_free_nfa(rng: random.Random) -> PCFA:
    """Nondeterministic automaton for a prefix-free finite language (the
    shape of program trace languages, where exact determinization and
    minimization are promised)."""
    words = random_prefix_free_words(rng)
    trans = set()
    fresh = 10
    for w in words:
        cur = 0
        for i, lab in enumerate(w):
            nxt = 9 if i == len(w) - 1 else fresh
            if nxt == fresh:
                fresh += 1
            trans.add((cur, lab, nxt))
            cur = nxt
    return PCFA(trans, 0, 9, locations=set(range(10)) | set(range(10, fresh)))


def test_trace_tree_accepts_exactly_the_traces_seeded():
    rng = random.Random(121)
    for _ in range(60):
        words = random_prefix_free_words(rng)
        tree = trace_tree(words)
        assert bounded_language(tree, 7) == set(words)
        assert tree.is_cfmdp()


def test_trace_tree_has_one_location_per_proper_prefix_seeded():
    rng = random.Random(131)
    for _ in range(60):
        words = random_prefix_free_words(rng)
        prefixes = {w[:k] for w in words for k in range(len(w))}
        assert len(trace_tree(words).locations) == len(prefixes) + 1


def test_determinize_preserves_language_randomized():
    rng = random.Random(101)
    for _ in range(40):
        a = random_nfa(rng)
        d = determinize(a)
        assert bounded_language(a, 5) == bounded_language(d, 5)


def test_determinize_exact_on_prefix_free_languages():
    rng = random.Random(111)
    for _ in range(40):
        a = random_prefix_free_nfa(rng)
        d = determinize(a)
        assert d.is_deterministic()
        assert bounded_language(a, 6) == bounded_language(d, 6)


def test_union_intersection_difference_randomized():
    rng = random.Random(202)
    for _ in range(35):
        a, b = random_nfa(rng), random_nfa(rng)
        depth = 4
        la, lb = bounded_language(a, depth), bounded_language(b, depth)
        assert bounded_language(union(a, b), depth) == la | lb
        assert bounded_language(intersect(a, b), depth) == la & lb
        assert bounded_language(difference_all(a, [b]), depth) == la - lb


def test_difference_all_matches_folded_difference():
    rng = random.Random(303)
    for _ in range(20):
        a, b, c = random_nfa(rng), random_nfa(rng), random_nfa(rng)
        multi = difference_all(a, [b, c])
        folded = difference_all(difference_all(a, [b]), [c])
        assert bounded_language(multi, 4) == bounded_language(folded, 4)


def test_difference_nfa_empty_and_shortest_agree():
    rng = random.Random(404)
    for _ in range(25):
        a, b = random_nfa(rng), random_nfa(rng)
        n = difference_nfa(a, [b])
        lang = bounded_language(a, 4) - bounded_language(b, 4)
        if nfa_is_empty(n):
            assert not lang or all(len(t) > 4 for t in lang)
        else:
            w = nfa_shortest(n)
            assert w is not None
            assert a.accepts(w) and not b.accepts(w)
            if lang:
                assert len(w) <= min(len(t) for t in lang)


def nfa_language(n, depth: int) -> set:
    """Accepted words of length <= depth of an internal automaton."""
    out = set()
    frontier = {(s, ()) for s in n.initials}
    for _ in range(depth + 1):
        out |= {tr for s, tr in frontier if s in n.accepting}
        frontier = {
            (t, tr + (lab,))
            for s, tr in frontier
            if len(tr) < depth
            for src, lab, t in n.transitions
            if src == s
        }
    return out


def random_nondeterministic_nfa(rng: random.Random) -> PCFA:
    while True:
        a = random_nfa(rng)
        if not a.is_deterministic():
            return a


def test_difference_nfa_of_nondeterministic_left_operand_randomized():
    rng = random.Random(707)
    for _ in range(30):
        a = random_nondeterministic_nfa(rng)
        bs = [random_nfa(rng) for _ in range(3)]
        n = difference_nfa(a, bs)
        want = bounded_language(a, 5) - set().union(
            *(bounded_language(b, 5) for b in bs)
        )
        assert nfa_language(n, 5) == want
        labels_out = [(s, lab) for s, lab, _ in n.transitions]
        assert len(labels_out) == len(set(labels_out))  # deterministic


def test_difference_nfa_narrows_an_earlier_result_seeded():
    # the verification loops keep their residual and subtract one batch of
    # automata at a time; the picks must not depend on how it was narrowed
    rng = random.Random(1818)
    for _ in range(40):
        a = random_nfa(rng)
        bs = [random_nfa(rng) for _ in range(rng.randint(1, 4))]
        chained = difference_nfa(a, [])
        for b in bs:
            chained = difference_nfa(chained, [b])
        once = difference_nfa(a, bs)
        assert nfa_language(chained, 5) == nfa_language(once, 5)
        assert nfa_shortest(chained) == nfa_shortest(once)
        b = bs[0]
        assert bounded_language(intersect(a, b), 5) == bounded_language(intersect(b, a), 5)


def test_difference_nfa_explores_only_the_left_operand(monkeypatch):
    # one subset construction per difference: no operand is determinized
    # by a second one up front
    entered = []
    product = cfa._subset_product

    def counted(*args):
        entered.append(args)
        return product(*args)

    monkeypatch.setattr(cfa, "_subset_product", counted)
    rng = random.Random(808)
    for _ in range(30):
        word = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 6))]
        a = PCFA({(i, lab, i + 1) for i, lab in enumerate(word)}, 0, len(word))
        bs = [random_nfa(rng) for _ in range(rng.randint(0, 3))]
        entered.clear()
        assert len(difference_nfa(a, bs).states) <= len(word) + 1
        assert len(entered) == 1


def test_intersect_of_nondeterministic_pair_randomized():
    rng = random.Random(909)
    for _ in range(30):
        a = random_nondeterministic_nfa(rng)
        b = random_nondeterministic_nfa(rng)
        depth = 5
        la, lb = bounded_language(a, depth), bounded_language(b, depth)
        assert bounded_language(intersect(a, b), depth) == la & lb


def test_shortest_word_less_the_minus_automata_matches_the_difference_product_seeded():
    # the pick searches the pairs of the difference product as it reaches
    # them and must find the word that the built and trimmed product gives,
    # on a nondeterministic left operand and on an earlier difference alike
    rng = random.Random(3301)
    words = emptied = 0
    for i in range(300):
        a = random_nondeterministic_nfa(rng) if i % 2 else random_nfa(rng)
        n = cfa._nfa_of(a) if i % 3 else difference_nfa(a, [])
        bs = [
            rng.choice([random_nfa, random_nondeterministic_nfa])(rng)
            for _ in range(rng.randint(0, 3))
        ]
        if bs and i % 5 == 0:
            bs[rng.randrange(len(bs))] = a
        got = nfa_shortest(n, bs)
        assert got == nfa_shortest(difference_nfa(n, bs)), (a, bs)
        words += got is not None
        emptied += got is None and nfa_shortest(n) is not None
    assert words > 60 and emptied > 20, (words, emptied)


def test_shortest_word_search_past_a_cycle_ends_without_a_word():
    # both sides have a reachable cycle and the difference has no word: each
    # pair is expanded once, so the search ends
    def hang(signum, frame):
        raise TimeoutError("nfa_shortest did not return")

    loop = nfa((0, INC, 1), (1, SKIP, 0), (0, RESET, 9))
    cover = nfa((0, INC, 1), (1, SKIP, 0), (0, INC, 2), (2, SKIP, 0), (0, RESET, 9))
    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(2)
    try:
        assert nfa_shortest(cfa._nfa_of(loop), [cover]) is None
        assert nfa_shortest(cfa._nfa_of(loop), [nfa((0, RESET, 9)), cover]) is None
        assert nfa_shortest(cfa._nfa_of(loop), [nfa((0, RESET, 9))]) == (INC, SKIP, RESET)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_intersect_with_several_right_operands_is_one_product_seeded(monkeypatch):
    # L(a) with the union of the bs, built in one product and equal to
    # intersecting with their union built first
    entered = []
    product = cfa._subset_product

    def counted(*args):
        entered.append(args)
        return product(*args)

    monkeypatch.setattr(cfa, "_subset_product", counted)
    rng = random.Random(3302)
    nonempty = 0
    for _ in range(100):
        a = random_nondeterministic_nfa(rng)
        b, c = random_nfa(rng), random_nfa(rng)
        entered.clear()
        got = intersect(a, b, c)
        assert len(entered) == 1
        lang = bounded_language(got, 5)
        assert lang == bounded_language(intersect(a, union(b, c)), 5)
        nonempty += bool(lang)
    assert nonempty > 20, nonempty


def test_to_pcfa_numbers_a_merged_product_in_sorted_order_seeded():
    # a product whose accepting states are dead ends becomes one PCFA, its
    # locations in sorted order and the merged accepting one in the place of
    # the least: the automaton that merging and then renumbering built
    rng = random.Random(3303)
    checked = 0
    for _ in range(120):
        a, b = random_prefix_free_nfa(rng), random_prefix_free_nfa(rng)
        products = [
            cfa._subset_product(cfa._nfa_of(a), [b], lambda x, y: x and y),
            cfa._subset_product(cfa._nfa_of(a), [b], lambda x, y: x and not y),
            cfa._subset_product(cfa._nfa_union([a, b]), [], lambda x, y: x),
        ]
        for n in map(cfa._nfa_trim, products):
            if not n.accepting or any(s in n.accepting for s, _, _ in n.transitions):
                continue
            got, want = cfa._to_pcfa(n), reference_merged_pcfa(n)
            assert got.transitions == want.transitions
            assert (got.initial, got.accepting) == (want.initial, want.accepting)
            assert got.locations == want.locations
            checked += 1
    assert checked > 150, checked


def test_products_keep_accepting_a_sink():
    rng = random.Random(505)
    for _ in range(20):
        a = random_cfmdp(rng, max_locs=6)
        b = random_nfa(rng)
        for out in (intersect(a, b), difference_all(a, [b])):
            if not is_empty(out):
                assert out.is_cfmdp()


def test_minimize_preserves_language_and_shrinks():
    rng = random.Random(606)
    for _ in range(30):
        a = determinize(random_prefix_free_nfa(rng))
        m = minimize(a)
        assert m.is_deterministic()
        assert len(m.locations) <= len(a.locations)
        assert bounded_language(a, 6) == bounded_language(m, 6)


def _minimize_dense(a: PCFA) -> PCFA:
    """Moore refinement with dense signatures: the target class of every
    label of the sorted alphabet, -1 for a missing edge.  On deterministic
    input `minimize` must return exactly what this returns."""
    a = determinize(a)
    if is_empty(a):
        return empty_pcfa()
    sigma = sorted(a.alphabet, key=label_key)
    states = sorted(a.locations)
    cls = {s: (1 if s == a.accepting else 0) for s in states}
    adj = {s: {} for s in states}
    for s, lab, t in a.transitions:
        adj[s][lab] = t
    while True:
        sig = {
            s: (cls[s], tuple(cls[adj[s][lab]] if lab in adj[s] else -1 for lab in sigma))
            for s in states
        }
        mapping = {}
        new_cls = {}
        for s in states:
            new_cls[s] = mapping.setdefault(sig[s], len(mapping))
        if new_cls == cls:
            break
        cls = new_cls
    trans = {(cls[s], lab, cls[t]) for s, lab, t in a.transitions}
    return trim(PCFA(trans, cls[a.initial], cls[a.accepting])).renumber()


Y = ivar("Y")
WIDE_ALPHABET = (
    ALPHABET
    + tuple(Assign("X", X + as_term(k)) for k in (2, 3, -1))
    + (Assign("Y", X), Assign("Y", Y + as_term(1)))
    + tuple(Assume(ge(Y, k)) for k in (0, 2))
    + (Assume(le(Y, 5)), Pb(1, "L"), Pb(1, "R"))
)


def random_sparse_dfa(rng: random.Random) -> PCFA:
    """A deterministic automaton over up to all of WIDE_ALPHABET, each state
    reading a few labels; a small label pool makes equivalent states likely
    and back edges make refinement take several rounds."""
    n = rng.randint(3, 16)
    pool = rng.sample(WIDE_ALPHABET, rng.choice([3, 5, len(WIDE_ALPHABET), len(WIDE_ALPHABET)]))
    succ = {(src, rng.choice(pool)): src + 1 for src in range(n - 1)}
    for _ in range(rng.randint(0, n)):
        src = rng.randrange(n - 1)
        succ.setdefault((src, rng.choice(pool)), rng.randint(src + 1, n - 1))
    for _ in range(rng.choice([0, 0, 1, 3])):  # from the accepting state too
        src = rng.randrange(1, n)
        succ.setdefault((src, rng.choice(pool)), rng.randrange(src))
    trans = {(src, lab, t) for (src, lab), t in succ.items()}
    return PCFA(trans, 0, n - 1, locations=set(range(n)))


def test_minimize_sparse_signatures_match_dense_refinement_seeded():
    rng = random.Random(2012)
    wide = merged = 0
    for k in range(360):
        a = random_sparse_dfa(rng) if k % 3 else random_prefix_free_nfa(rng)
        d = determinize(a)
        assert d.is_deterministic()
        m, ref = minimize(a), _minimize_dense(a)
        assert m.transitions == ref.transitions
        assert (m.initial, m.accepting) == (ref.initial, ref.accepting)
        wide += len(d.alphabet) >= 10 and 4 * len(d.transitions) <= len(d.locations) * len(d.alphabet)
        merged += len(m.locations) < len(d.locations)
    assert wide >= 30 and merged >= 25


def test_minimize_keeps_the_language_of_a_nondeterministic_determinization():
    # a language that is not prefix-free can determinize to a nondeterministic
    # PCFA (its accepting states merge); refining on every edge a state has
    # is then a bisimulation quotient, which keeps the language
    rng = random.Random(2012)
    nondeterministic = 0
    for _ in range(600):
        d = determinize(random_nfa(rng, max_locs=8))
        if d.is_deterministic():
            continue
        nondeterministic += 1
        assert bounded_language(minimize(d), 5) == bounded_language(d, 5)
    assert nondeterministic >= 50


def test_epsilon_with_longer_words_is_not_representable():
    from probtrace.cfa import NotRepresentable

    eps_only = PCFA(set(), 0, 0)
    chain = nfa((0, INC, 9))
    with pytest.raises(NotRepresentable):
        union(eps_only, chain)


def test_minimize_identifies_equivalent_chains():
    # two sibling branches with identical futures collapse
    a = nfa((0, Pb(0, "L"), 1), (0, Pb(0, "R"), 2), (1, SKIP, 9), (2, SKIP, 9))
    m = minimize(determinize(a))
    assert len(m.locations) < len(a.locations)


def test_renumber_preserves_language():
    a = nfa((0, INC, 4), (4, SKIP, 9))
    r = a.renumber()
    assert bounded_language(a, 4) == bounded_language(r, 4)
    assert sorted(r.locations) == list(range(len(r.locations)))


# ---------------------------------------------------------------------------
# normalization


def test_normalize_rejects_non_cfmdp():
    bad = nfa((0, INC, 1), (0, INC, 2))  # nondeterministic
    with pytest.raises(ValueError):
        normalize(bad)


def test_normalize_splits_shared_coin_targets():
    a = PCFA({(0, Pb(0, "L"), 1), (0, Pb(0, "R"), 1), (1, SKIP, 2)}, 0, 2)
    assert not is_normalized(a)
    b = normalize(a)
    assert is_normalized(b)
    assert b.is_cfmdp()
    assert bounded_language(a, 6) == bounded_language(b, 6)


def test_normalize_handles_self_loop_pairs():
    a = PCFA(
        {(0, Pb(0, "L"), 0), (0, Pb(0, "R"), 0), (0, SKIP, 1)},
        0,
        1,
    )
    b = normalize(a)
    assert is_normalized(b)
    assert bounded_equal_deterministic(a, b, 12)


def test_normalize_randomized_small():
    rng = random.Random(707)
    for _ in range(25):
        a = random_cfmdp(rng, max_locs=5)
        b = normalize(a)
        assert is_normalized(b)
        assert b.is_cfmdp()
        depth = 2 * max(len(a.locations), len(b.locations))
        assert bounded_equal_deterministic(a, b, depth)
        again = normalize(b)
        assert bounded_equal_deterministic(b, again, depth)
        assert is_normalized(again)


def test_bounded_equality_helpers_agree():
    rng = random.Random(808)
    for _ in range(25):
        a = random_cfmdp(rng, max_locs=5)
        b = normalize(a)
        c = random_cfmdp(rng, max_locs=5)
        assert bounded_equal_deterministic(a, b, 6) == (
            bounded_language(a, 6) == bounded_language(b, 6)
        )
        assert bounded_equal_deterministic(a, c, 6) == (
            bounded_language(a, 6) == bounded_language(c, 6)
        )


def test_sub_cfmc_language_contained():
    rng = random.Random(909)
    for _ in range(20):
        a = normalize(random_cfmdp(rng, max_locs=6))
        m = random_sub_cfmc(rng, a)
        assert nfa_is_empty(difference_nfa(m, [a]))


# ---------------------------------------------------------------------------
# hash-consed labels

def test_equal_constructions_give_one_label():
    assert Assign("X", X + as_term(1)) is INC
    assert Assign(var="X", expr=X + as_term(1)) is INC
    assert Assign("X", expr=X + as_term(1)) is INC
    assert Assume(cond=ge(X, 1)) is POS
    assert Pb(0, side="L") is Pb(pid=0, side="L") is ALPHABET[5]
    assert Nd(tag=3) is Nd(3)
    assert SkipL() is SKIP is cfa.SKIP
    assert Pb(0, "L") is not Pb(0, "R")
    assert Assume(ge(X, 1)) is not Assume(ge(X, 2))


def test_label_construction_checks_its_arguments():
    for bad in (lambda: Pb(0), lambda: Pb(0, "L", 1), lambda: Pb(0, "L", pid=0), lambda: Nd(tag=1, side="L")):
        with pytest.raises(TypeError):
            bad()


def test_copies_of_a_label_are_the_label():
    for lab in ALPHABET + (Nd(2),):
        assert copy.copy(lab) is lab
        assert copy.deepcopy(lab) is lab
        assert pickle.loads(pickle.dumps(lab)) is lab
        assert dataclasses.replace(lab) is lab
    assert dataclasses.replace(Pb(0, "L"), side="R") is Pb(0, "R")
    assert dataclasses.replace(INC, expr=as_term(0)) is RESET


def test_labels_stay_frozen():
    for lab in ALPHABET + (Nd(2),):
        for f in dataclasses.fields(lab):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(lab, f.name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        SKIP.extra = 1
    assert POS.cond == ge(X, 1)


def test_labels_compare_and_hash_by_identity():
    for cls in (Assign, Assume, SkipL, Pb, Nd):
        assert cls.__eq__ is object.__eq__
        assert cls.__hash__ is object.__hash__
    assert repr(POS) == f"Assume(cond={ge(X, 1)!r})"
    assert str(INC) == "X := X + 1"


def test_printed_labels_of_every_program_parse_back_to_themselves():
    # the certificate loader reads labels this way
    paths = sorted(BENCH_DIR.glob("*.prob")) + [DATA_DIR / "motivating.prob"]
    for path in paths:
        program, _ = parse(path.read_text())
        sorts = dict(program.declarations)
        alphabet = to_pcfa(program).alphabet
        assert alphabet
        for lab in alphabet:
            assert parse_label(str(lab), sorts) is lab, (path.name, str(lab))


def test_each_label_stores_its_key_in_the_label_order():
    paths = sorted(BENCH_DIR.glob("*.prob")) + [DATA_DIR / "motivating.prob"]
    labels = {*ALPHABET, Assign("B", for_(bvar("B"), le(X, 3)))}
    for path in paths:
        labels |= to_pcfa(parse(path.read_text())[0]).alphabet
    assert len(labels) > 20 and any(isinstance(lab, Assume) for lab in labels)
    for lab in labels:
        assert lab.sort_key == reference_label_key(lab), str(lab)
        assert label_key(lab) is lab.sort_key


def test_a_label_no_one_holds_leaves_the_table():
    key = (Nd, 987_654)
    ref = weakref.ref(Nd(987_654))
    gc.collect()
    assert ref() is None
    assert key not in cfa._TABLE
    lab = Nd(987_654)
    assert cfa._TABLE[key] is lab
    assert Nd(tag=987_654) is lab


def test_threads_building_equal_labels_get_one_object():
    # a lost race in the table would hand two threads two equal labels
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    built = [None] * 4
    try:
        def build(i):
            built[i] = [Nd(500_000 + k) for k in range(2_000)]

        threads = [threading.Thread(target=build, args=(i,)) for i in range(len(built))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for labs in built[1:]:
        assert all(a is b for a, b in zip(labs, built[0], strict=True))
