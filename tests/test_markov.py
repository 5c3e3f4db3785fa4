"""Quantitative layer: exact maximum reachability, optimal strategies,
strategy application, and trace merging."""

import random
import signal
from fractions import Fraction
from itertools import islice

import pytest

from probtrace import markov
from probtrace.cfa import (
    PCFA,
    Assign,
    Assume,
    Nd,
    NotRepresentable,
    Pb,
    SkipL,
    action_key,
    difference_all,
    empty_pcfa,
    intersect,
)
from probtrace.evidence import _optimal_subcfmdp, enumerate_by_weight
from probtrace.formula import as_term, ge, ivar, le
from probtrace.markov import _policy_value, _sccs, _solve_cyclic, actions_at, analyze_mdp, merge_traces
from probtrace.semantics import weight
from probtrace.theory import (
    Strategy,
    apply_strategy,
    mdp_upper_bound,
    memoryless,
    minimize,
    normalize,
    strategy_for_sublanguage,
)

from helpers import bounded_equal_deterministic, dump, enumerate_traces, random_cfmdp, random_sub_cfmc, union

X = ivar("X")
SKIP = SkipL()
INC = Assign("X", X + as_term(1))


def test_single_sided_coins_lose_mass():
    a = PCFA({(0, Pb(0, "L"), 1), (1, Pb(1, "L"), 2)}, 0, 2)
    bound, _ = mdp_upper_bound(a)
    assert bound == Fraction(1, 4)


def test_paired_coin_keeps_all_mass():
    a = PCFA(
        {(0, Pb(0, "L"), 1), (0, Pb(0, "R"), 2), (1, SKIP, 3), (2, INC, 3)},
        0,
        3,
    )
    bound, _ = mdp_upper_bound(a)
    assert bound == 1


def test_max_over_actions_prefers_certainty():
    a = PCFA(
        {
            (0, Pb(0, "L"), 1),  # coin: only half the mass survives
            (0, SKIP, 2),  # certain route
            (1, INC, 3),
            (2, INC, 3),
        },
        0,
        3,
    )
    analysis = analyze_mdp(a)
    assert analysis.bound == 1
    assert analysis.optimal_actions[0] == [SKIP]
    assert analysis.policy[0] == SKIP


def test_nondeterministic_tags_are_actions():
    a = PCFA(
        {(0, Nd(0), 1), (0, Nd(1), 2), (1, Pb(0, "L"), 3), (2, SKIP, 3)},
        0,
        3,
    )
    analysis = analyze_mdp(a)
    assert analysis.bound == 1
    assert analysis.policy[0] == Nd(1)


def test_cyclic_chain_solved_exactly():
    # 0 loops on L, escapes on R: the accepting location is reached a.s.
    a = PCFA({(0, Pb(0, "L"), 0), (0, Pb(0, "R"), 1), (1, SKIP, 2)}, 0, 2)
    bound, _ = mdp_upper_bound(a)
    assert bound == 1


def test_cyclic_chain_with_leak():
    # after escaping, a single-sided coin halves the mass
    a = PCFA(
        {(0, Pb(0, "L"), 0), (0, Pb(0, "R"), 1), (1, Pb(1, "L"), 2)},
        0,
        2,
    )
    analysis = analyze_mdp(a)
    assert analysis.bound == Fraction(1, 2)
    assert analysis.values[1] == Fraction(1, 2)


def test_values_are_per_location():
    a = PCFA({(0, Pb(0, "L"), 1), (1, Pb(1, "L"), 2)}, 0, 2)
    analysis = analyze_mdp(a)
    assert analysis.values[2] == 1
    assert analysis.values[1] == Fraction(1, 2)
    assert analysis.values[0] == Fraction(1, 4)


def test_mdp_bound_dominates_every_memoryless_strategy():
    rng = random.Random(2024)
    for _ in range(25):
        a = random_cfmdp(rng, max_locs=6)
        analysis = analyze_mdp(a)
        for _ in range(4):
            policy = {}
            for loc in sorted(a.locations):
                acts = actions_at(a, loc)
                if acts and loc != a.accepting:
                    policy[loc] = rng.choice(sorted(acts, key=repr))
            if not policy or a.initial == a.accepting:
                continue
            induced = apply_strategy(a, memoryless(policy))
            got = analyze_mdp(induced).bound if induced.transitions else Fraction(0)
            assert got <= analysis.bound


def test_reason_cfmc_attains_the_bound():
    rng = random.Random(2025)
    for _ in range(25):
        a = random_cfmdp(rng, max_locs=6)
        if a.initial == a.accepting:
            continue
        bound, psi = mdp_upper_bound(a)
        reason = apply_strategy(a, psi)
        assert reason.is_cfmc()
        got = analyze_mdp(reason).bound if reason.transitions else Fraction(0)
        assert got == bound


def _dense_policy_value(a: PCFA, policy: dict) -> dict:
    """Reference: the value of a fixed policy by one Gauss-Jordan elimination
    over every state that reaches the accepting location."""
    succ = {}
    for loc, act in policy.items():
        here = actions_at(a, loc)
        if isinstance(act, int):
            succ[loc] = [(Fraction(1, 2), t) for t in here[act].values()]
        else:
            succ[loc] = [(Fraction(1), here[act])]
    reach = {a.accepting}
    changed = True
    while changed:
        changed = False
        for loc, outs in succ.items():
            if loc not in reach and any(t in reach for _, t in outs):
                reach.add(loc)
                changed = True
    values = {loc: Fraction(0) for loc in a.locations}
    values[a.accepting] = Fraction(1)
    unknowns = sorted(reach - {a.accepting})
    idx = {loc: i for i, loc in enumerate(unknowns)}
    n = len(unknowns)
    mat = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for loc in unknowns:
        i = idx[loc]
        mat[i][i] = Fraction(1)
        for p, t in succ[loc]:
            if t == a.accepting:
                mat[i][n] += p
            elif t in idx:
                mat[i][idx[t]] -= p
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        pv = mat[row][col]
        mat[row] = [x / pv for x in mat[row]]
        for r in range(n):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[row])]
        row += 1
    for loc in unknowns:
        values[loc] = mat[idx[loc]][n]
    return values


def _action_map(a: PCFA) -> dict:
    return {
        loc: actions_at(a, loc)
        for loc in sorted(a.locations)
        if loc != a.accepting and a.out_edges(loc)
    }


def test_policy_value_by_component_matches_dense_solve_seeded():
    rng = random.Random(2203)
    seen = {"shared": 0, "self_loop": 0, "single_sided": 0, "cyclic": 0}
    for _ in range(600):
        a = random_cfmdp(rng, max_locs=9)
        acts = _action_map(a)
        policy = {loc: rng.choice(sorted(here, key=repr)) for loc, here in acts.items()}
        succ = {}
        for loc, act in policy.items():
            step = acts[loc][act]
            targets = list(step.values()) if isinstance(act, int) else [step]
            succ[loc] = [(1, t) for t in targets]
            seen["shared"] += isinstance(act, int) and len(set(targets)) < len(targets)
            seen["self_loop"] += loc in targets
            seen["single_sided"] += isinstance(act, int) and len(targets) == 1
        seen["cyclic"] += any(len(c) > 1 for c in _sccs(set(policy), succ))
        assert _policy_value(a, acts, policy) == _dense_policy_value(a, policy)
    assert all(seen.values()), seen


def test_policy_value_matches_dense_solve_at_refute_scale_seeded(monkeypatch):
    # components as large as the refutational loop's residual modules, some
    # fed by an already-solved cyclic component whose value is not dyadic
    seen = {"large": 0, "non_dyadic_input": 0}
    solve = markov._solve_cyclic

    def spy(comp, succ, values):
        seen["large"] += len(comp) >= 10
        inputs = [values[t] for loc in comp for _, t in succ[loc] if t not in comp]
        seen["non_dyadic_input"] += any(v.denominator & (v.denominator - 1) for v in inputs)
        solve(comp, succ, values)

    monkeypatch.setattr(markov, "_solve_cyclic", spy)
    rng = random.Random(1304)
    for _ in range(300):
        a = random_cfmdp(rng, max_locs=20)
        acts = _action_map(a)
        policy = {loc: rng.choice(sorted(here, key=repr)) for loc, here in acts.items()}
        assert _policy_value(a, acts, policy) == _dense_policy_value(a, policy)
    assert all(seen.values()), seen


def test_acyclic_chain_of_coins_is_back_substituted():
    k = 2000
    a = PCFA({(i, Pb(i, "L"), i + 1) for i in range(k)}, 0, k)

    def hang(signum, frame):
        raise TimeoutError("the chain was not solved in time")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        analysis = analyze_mdp(a)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert analysis.bound == Fraction(1, 2**k)
    assert analysis.values[k - 3] == Fraction(1, 8)


def test_fair_gamblers_ruin_cycle_is_eliminated_sparsely():
    # one cyclic component of n - 1 states, each a fair coin one step up or
    # down between ruin at 0 and acceptance at n: a dense solve is cubic in n
    n = 400
    a = PCFA(
        {(i, Pb(i, side), i + step) for i in range(1, n) for side, step in (("L", 1), ("R", -1))},
        1,
        n,
    )

    def hang(signum, frame):
        raise TimeoutError("the cycle was not solved in time")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        analysis = analyze_mdp(a)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert analysis.values == {i: Fraction(i, n) for i in range(n + 1)}


def test_cyclic_components_solved_in_sequence():
    # upper component {0, 1} exits into lower component {2, 3}; each coin's
    # other side loops back or loses its mass
    a = PCFA(
        {
            (0, Pb(0, "L"), 1),
            (0, Pb(0, "R"), 2),
            (1, Pb(1, "L"), 0),
            (2, Pb(2, "L"), 3),
            (2, Pb(2, "R"), 4),
            (3, Pb(3, "L"), 2),
        },
        0,
        4,
    )
    acts = _action_map(a)
    policy = {loc: next(iter(here)) for loc, here in acts.items()}
    succ = {loc: [(1, t) for t in acts[loc][pid].values()] for loc, pid in policy.items()}
    assert [sorted(c) for c in _sccs(set(policy), succ)] == [[2, 3], [0, 1]]
    # x2 = x3/2 + 1/2, x3 = x2/2; then x0 = x1/2 + x2/2, x1 = x0/2
    values = _policy_value(a, acts, policy)
    assert values == {
        0: Fraction(4, 9),
        1: Fraction(2, 9),
        2: Fraction(2, 3),
        3: Fraction(1, 3),
        4: Fraction(1),
    }
    assert analyze_mdp(a).values == values


def test_solve_cyclic_rejects_a_closed_cycle():
    # 0 -> 1 -> 0 by plain labels (weight 2 of 2) never exits: singular
    values = {0: Fraction(0), 1: Fraction(0)}
    with pytest.raises(ArithmeticError, match="singular"):
        _solve_cyclic([0, 1], {0: [(2, 1)], 1: [(2, 0)]}, values)


def _fraction_analyze_mdp(a: PCFA) -> markov.MdpAnalysis:
    """Reference: policy iteration with every q-value a Fraction and every
    policy evaluated by `_dense_policy_value`, as `analyze_mdp` did before
    it compared integers."""

    def q_value(loc, act):
        step = acts[loc][act]
        if isinstance(act, int):
            return sum((Fraction(1, 2) * values[t] for t in step.values()), Fraction(0))
        return values[step]

    acts = {
        loc: dict(sorted(here.items(), key=lambda kv: action_key(kv[0])))
        for loc, here in _action_map(a).items()
    }
    policy = {loc: next(iter(here)) for loc, here in acts.items()}
    values = _dense_policy_value(a, policy)
    while True:
        improved = False
        optimal = {}
        for loc, here in acts.items():
            best_act, best_q = policy[loc], values[loc]
            optimal[loc] = []
            for act in here:
                q = q_value(loc, act)
                if q == values[loc]:
                    optimal[loc].append(act)
                if q > best_q:
                    best_act, best_q = act, q
            if best_act != policy[loc] and best_q > values[loc]:
                policy[loc] = best_act
                improved = True
        if not improved:
            return markov.MdpAnalysis(values.get(a.initial, Fraction(0)), values, policy, optimal)
        values = _dense_policy_value(a, policy)


def _subset_built_cfmdps(rng: random.Random, count: int) -> list:
    """Deterministic, trimmed CFMDPs as the subset construction builds them:
    the product, union or difference of two random CFMDPs, kept when it is a
    non-empty CFMDP (a union need not be prefix-free)."""
    ops = [intersect, union, lambda x, y: difference_all(x, [y])]
    out = []
    while len(out) < count:
        a, b = random_cfmdp(rng, max_locs=7), random_cfmdp(rng, max_locs=7)
        try:
            m = rng.choice(ops)(a, b)
        except NotRepresentable:
            continue
        if m.transitions and m.is_cfmdp():
            out.append(m)
    return out


def _has_cycle(a: PCFA) -> bool:
    succ = {loc: [(1, t) for _, t in a.out_edges(loc)] for loc in a.locations}
    return any(
        len(c) > 1 or any(t == c[0] for _, t in succ[c[0]]) for c in _sccs(set(a.locations), succ)
    )


def test_analysis_does_not_depend_on_minimization_seeded():
    # language-equivalent states of a deterministic automaton are bisimilar,
    # so the automaton as built and its minimization agree location by
    # location on values and optimal actions, and so on the optimal sub-CFMDP
    rng = random.Random(2004)
    seen = {"non_minimal": 0, "cyclic_non_minimal": 0, "ties": 0}
    for a in _subset_built_cfmdps(rng, 250):
        m = minimize(a)
        ra, rm = analyze_mdp(a), analyze_mdp(m)
        assert ra.bound == rm.bound
        pairs = {(a.initial, m.initial)}
        todo = list(pairs)
        while todo:
            la, lm = todo.pop()
            assert ra.values[la] == rm.values[lm]
            assert ra.optimal_actions.get(la) == rm.optimal_actions.get(lm)
            seen["ties"] += len(ra.optimal_actions.get(la, ())) > 1
            steps = dict(m.out_edges(lm))
            for lab, t in a.out_edges(la):
                if (t, steps[lab]) not in pairs:
                    pairs.add((t, steps[lab]))
                    todo.append((t, steps[lab]))
        sub_a = _optimal_subcfmdp(a, ra.optimal_actions)
        sub_m = _optimal_subcfmdp(m, rm.optimal_actions)
        depth = (len(sub_a.locations) + 1) * (len(sub_m.locations) + 1)
        assert bounded_equal_deterministic(sub_a, sub_m, depth)
        shrunk = len(m.locations) < len(a.locations)
        seen["non_minimal"] += shrunk
        seen["cyclic_non_minimal"] += shrunk and _has_cycle(a)
    assert seen["non_minimal"] >= 80 and seen["cyclic_non_minimal"] >= 60 and seen["ties"], seen


def test_integer_sweep_matches_the_fraction_reference_seeded():
    rng = random.Random(2005)
    seen = {"improved": 0, "ties": 0, "non_dyadic": 0}
    automata = [random_cfmdp(rng, max_locs=10) for _ in range(300)]
    automata += _subset_built_cfmdps(rng, 100)
    for a in automata:
        got, want = analyze_mdp(a), _fraction_analyze_mdp(a)
        assert got.bound == want.bound
        assert got.values == want.values
        assert got.policy == want.policy
        assert got.optimal_actions == want.optimal_actions
        start = {loc: min(here, key=action_key) for loc, here in _action_map(a).items()}
        seen["improved"] += got.policy != start
        seen["ties"] += any(len(acts) > 1 for acts in got.optimal_actions.values())
        seen["non_dyadic"] += any(v.denominator & (v.denominator - 1) for v in got.values.values())
    assert seen["improved"] >= 100 and seen["ties"] >= 100 and seen["non_dyadic"] >= 5, seen


def test_every_accepted_trace_weighs_at_most_the_bound_seeded():
    # a scheduler can follow any accepted trace, so maximal reachability is
    # at least its weight; the refutational loop skips the bound on this
    rng = random.Random(2506)
    seen = {"cyclic": 0, "one_sided": 0, "plain_choice": 0, "tight": 0, "traces": 0}
    automata = [random_cfmdp(rng, max_locs=7) for _ in range(150)]
    automata += _subset_built_cfmdps(rng, 60)
    for a in automata:
        bound = analyze_mdp(a).bound
        traces = enumerate_traces(a, 6)
        assert all(weight(tr) <= bound for tr in traces)
        seen["traces"] += len(traces)
        seen["tight"] += any(weight(tr) == bound for tr in traces)
        seen["cyclic"] += _has_cycle(a)
        here = [actions_at(a, loc) for loc in a.locations]
        seen["one_sided"] += any(
            len(step) == 1 for acts in here for act, step in acts.items() if isinstance(act, int)
        )
        seen["plain_choice"] += any(
            sum(not isinstance(act, int) for act in acts) > 1 for acts in here
        )
    assert seen["traces"] >= 10_000 and seen["tight"] >= 50, seen
    assert seen["cyclic"] >= 100 and seen["one_sided"] >= 40 and seen["plain_choice"] >= 70, seen


# ---------------------------------------------------------------------------
# strategies


def test_apply_strategy_unrolls_memory():
    # one location, coin loops: a two-state memory takes the loop exactly once
    a = PCFA({(0, Pb(0, "L"), 0), (0, Pb(0, "R"), 1), (1, SKIP, 2)}, 0, 2)
    psi = Strategy(
        {
            (0, "fresh"): (0, "looped"),
            (0, "looped"): (0, "done"),
            (1, "looped"): (SKIP, "looped"),
            (1, "done"): (SKIP, "done"),
        },
        "fresh",
    )
    m = apply_strategy(a, psi)
    assert m.is_cfmc()
    lang = set(enumerate_traces(m, 6))
    assert (Pb(0, "R"), SKIP) in lang
    assert (Pb(0, "L"), Pb(0, "R"), SKIP) in lang
    assert (Pb(0, "L"), Pb(0, "L"), Pb(0, "R"), SKIP) not in lang


def test_apply_strategy_dead_pair_cuts_the_edge_into_acceptance():
    # the coin's R branch enters the accepting location at the dead pair
    # (2, 1): it is dropped, and the L branch is kept alone (half the mass);
    # the L branch reaches acceptance at memory 2, which stays live
    a = PCFA({(0, Pb(0, "L"), 1), (0, Pb(0, "R"), 2), (1, SKIP, 2)}, 0, 2)
    delta = {(0, 0): (0, 1), (1, 1): (SKIP, 2)}
    both = apply_strategy(a, Strategy(delta, 0))
    assert set(enumerate_traces(both, 4)) == {(Pb(0, "L"), SKIP), (Pb(0, "R"),)}
    assert analyze_mdp(both).bound == 1
    cut = apply_strategy(a, Strategy(delta, 0, dead=frozenset({(2, 1)})))
    assert cut.is_cfmc()
    assert set(enumerate_traces(cut, 4)) == {(Pb(0, "L"), SKIP)}
    assert analyze_mdp(cut).bound == Fraction(1, 2)


def test_strategy_roundtrip_drops_a_side_that_enters_acceptance():
    # at location 2 the sub-chain keeps only pb(3,L); the CFMDP's pb(3,R)
    # goes straight to the accepting location 3 and must stay dropped
    zero = Assign("X", as_term(0))
    nonneg = Assume(ge(X, 0))
    a = PCFA(
        {
            (0, Pb(0, "L"), 3),
            (0, Pb(0, "R"), 2),
            (0, Pb(1, "L"), 1),
            (0, Pb(1, "R"), 4),
            (1, zero, 0),
            (1, nonneg, 0),
            (1, Pb(2, "L"), 2),
            (1, Pb(2, "R"), 5),
            (2, Pb(3, "L"), 1),
            (2, Pb(3, "R"), 3),
            (4, zero, 0),
            (4, nonneg, 0),
            (4, Pb(2, "L"), 2),
            (4, Pb(2, "R"), 6),
            (5, Pb(3, "L"), 1),
            (5, Pb(3, "R"), 3),
            (6, Pb(3, "L"), 1),
            (6, Pb(3, "R"), 3),
        },
        0,
        3,
    )
    m = PCFA(
        {
            (0, Pb(1, "L"), 1),
            (0, Pb(1, "R"), 4),
            (1, Pb(2, "L"), 2),
            (1, Pb(2, "R"), 5),
            (2, Pb(3, "L"), 1),
            (4, nonneg, 0),
            (5, Pb(3, "R"), 3),
        },
        0,
        3,
    )
    dropped = (Pb(1, "L"), Pb(2, "L"), Pb(3, "R"))
    assert a.accepts(dropped) and not m.accepts(dropped)
    back = apply_strategy(a, strategy_for_sublanguage(a, m))
    assert not back.accepts(dropped)
    assert bounded_equal_deterministic(m, back, 14)


def test_strategy_roundtrip_seeded():
    rng = random.Random(6060)
    done = 0
    while done < 15:
        a = normalize(random_cfmdp(rng, max_locs=8))
        if a.initial == a.accepting:
            continue
        m = random_sub_cfmc(rng, a)
        psi = strategy_for_sublanguage(a, m)
        back = apply_strategy(a, psi)
        depth = 2 * max(len(a.locations), len(m.locations), 1)
        assert bounded_equal_deterministic(m, back, depth), (
            dump(a),
            dump(m),
            dump(back),
        )
        done += 1


def test_strategy_for_sublanguage_requires_normalization():
    a = PCFA({(0, Pb(0, "L"), 1), (0, Pb(0, "R"), 1), (1, SKIP, 2)}, 0, 2)
    m = PCFA({(0, Pb(0, "L"), 1), (1, SKIP, 2)}, 0, 2)
    with pytest.raises(ValueError, match="normalized"):
        strategy_for_sublanguage(a, m)


def test_strategy_for_sublanguage_requires_containment():
    a = normalize(PCFA({(0, Pb(0, "L"), 1), (1, SKIP, 2)}, 0, 2))
    rogue = PCFA({(0, INC, 1), (1, SKIP, 2)}, 0, 2)
    with pytest.raises(ValueError, match="sublanguage"):
        strategy_for_sublanguage(a, rogue)


# ---------------------------------------------------------------------------
# merging traces into a single chain


def test_merge_single_trace_is_linear():
    tr = (Pb(0, "L"), INC, SKIP)
    m = merge_traces([tr])
    assert m is not None and m.is_cfmc()
    assert set(enumerate_traces(m, 5)) == {tr}


def test_merge_coin_divergence_is_mergeable():
    t1 = (Pb(0, "L"), INC, SKIP)
    t2 = (Pb(0, "R"), SKIP, SKIP)
    m = merge_traces([t1, t2])
    assert m is not None and m.is_cfmc()
    assert set(enumerate_traces(m, 5)) == {t1, t2}


def test_merge_extremes_of_a_walk():
    left = (Pb(0, "L"), Pb(1, "L"), Pb(2, "L"))
    right = (Pb(0, "R"), Pb(1, "R"), Pb(2, "R"))
    m = merge_traces([left, right])
    assert m is not None
    assert analyze_mdp(m).bound == Fraction(1, 4)


def test_merge_rejects_action_conflicts():
    assert merge_traces([(Pb(0, "L"),), (Pb(1, "L"),)]) is None
    assert merge_traces([(SKIP,), (INC,)]) is None
    assert (
        merge_traces([(Assume(ge(X, 1)), SKIP), (Assume(le(X, 0)), SKIP)]) is None
    )


def test_merge_deduplicates():
    tr = (Pb(0, "L"), SKIP)
    m = merge_traces([tr, tr])
    assert m is not None
    assert set(enumerate_traces(m, 4)) == {tr}


def test_merge_rejects_a_proper_prefix():
    short = (Pb(0, "L"), SKIP)
    long = (Pb(0, "L"), SKIP, INC)
    assert merge_traces([short, long]) is None
    assert merge_traces([long, short]) is None


def test_merge_rejects_the_empty_trace():
    tr = (Pb(0, "L"), SKIP)
    assert merge_traces([()]) is None
    assert merge_traces([(), tr]) is None
    assert merge_traces([tr, ()]) is None


def test_merge_of_no_traces_raises():
    with pytest.raises(ValueError):
        merge_traces([])


def _trie_merge(traces):
    """Reference: the prefix tree of the traces built as a dict trie, merged
    only where every branching point is the two sides of one coin."""
    if not traces:
        raise ValueError("empty trace set")
    root: dict = {}
    ENDS = "$end"
    for tr in traces:
        node = root
        for lab in tr:
            node = node.setdefault(lab, {})
        node[ENDS] = True

    trans: set = set()
    counter = [2]  # 0 root, 1 accepting

    def build(node: dict, here: int) -> bool:
        labs = [k for k in node if k != ENDS]
        ended = ENDS in node
        if ended and labs:
            return False  # a trace is a proper prefix of another
        if ended:
            return True  # caller wires the edge into the accepting location
        if len(labs) > 1:
            if len(labs) != 2 or not all(isinstance(l, Pb) for l in labs):
                return False
            i, j = labs[0].pid, labs[1].pid
            if i != j or {labs[0].side, labs[1].side} != {"L", "R"}:
                return False
        for lab in labs:
            child = node[lab]
            if ENDS in child and len(child) == 1:
                trans.add((here, lab, 1))
            else:
                nxt = counter[0]
                counter[0] += 1
                trans.add((here, lab, nxt))
                if not build(child, nxt):
                    return False
        return True

    if ENDS in root and len(root) == 1:
        return None  # only the empty trace
    if not build(root, 0):
        return None
    return PCFA(trans, 0, 1)


def _random_trace_set(rng: random.Random) -> list:
    """One to four traces; each after the first branches off an earlier one,
    often at a coin by taking its other side, so that many sets merge."""
    alphabet = [Pb(0, "L"), Pb(0, "R"), Pb(1, "L"), Pb(1, "R"), SKIP, INC]

    def word(n: int) -> tuple:
        return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, n)))

    traces = [word(4)]
    for _ in range(rng.randint(0, 3)):
        base = rng.choice(traces)
        i = rng.randint(0, len(base))
        head = base[:i]
        if i < len(base) and isinstance(base[i], Pb) and rng.random() < 0.9:
            head += (Pb(base[i].pid, "R" if base[i].side == "L" else "L"),)
        traces.append(head + word(3))
    return traces


def test_merge_agrees_with_the_trie_reference_seeded():
    rng = random.Random(1515)
    merged = branched = unmerged = 0
    for _ in range(3000):
        traces = _random_trace_set(rng)
        got, want = merge_traces(traces), _trie_merge(traces)
        assert (got is None) == (want is None), traces
        if got is None:
            unmerged += 1
            continue
        merged += 1
        branched += len(set(traces)) > 1
        assert got.is_cfmc()
        assert set(enumerate_traces(got, 8)) == set(enumerate_traces(want, 8))
    assert merged > 500 and branched > 300 and unmerged > 500


def test_empty_automaton_has_bound_zero():
    r = analyze_mdp(empty_pcfa())
    assert r.bound == 0
    assert r.policy == {} and r.optimal_actions == {}
    assert mdp_upper_bound(minimize(empty_pcfa()))[0] == 0


# ---------------------------------------------------------------------------
# best-first enumeration


def test_enumerate_by_weight_orders_heavy_first():
    # language: skip (weight 1), one-coin traces (1/2), two-coin ones (1/4)
    a = PCFA(
        {
            (0, SKIP, 3),
            (0, Pb(0, "L"), 1),
            (0, Pb(0, "R"), 2),
            (1, SKIP, 3),
            (2, Pb(1, "L"), 3),
        },
        0,
        3,
    )
    got = list(islice(enumerate_by_weight(a), 10))
    weights = [weight(t) for t in got]
    assert weights == sorted(weights, reverse=True)
    assert got[0] == (SKIP,)
    assert set(got) == set(enumerate_traces(a, 4))


def test_enumerate_by_weight_is_lazy_on_infinite_languages():
    a = PCFA({(0, Pb(0, "L"), 0), (0, Pb(0, "R"), 1), (1, SKIP, 2)}, 0, 2)
    got = list(islice(enumerate_by_weight(a), 6))
    assert len(got) == 6
    weights = [weight(t) for t in got]
    assert weights == sorted(weights, reverse=True)
    assert weights[0] == Fraction(1, 2)
    assert all(tr[-1] == SKIP for tr in got)


def test_enumerate_by_weight_tie_break_is_stable():
    a = PCFA(
        {(0, Pb(0, "L"), 1), (0, Pb(0, "R"), 2), (1, SKIP, 3), (2, INC, 3)},
        0,
        3,
    )
    got = list(enumerate_by_weight(a))
    again = list(enumerate_by_weight(a))
    assert got == again
    assert len(got) == 2
