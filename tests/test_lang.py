"""Surface syntax: parsing programs, formulas, labels; control-flow build."""

from fractions import Fraction

import pytest

from probtrace.cfa import Assign, Assume, Nd, Pb, SkipL
from probtrace.formula import feval
from probtrace.lang import (
    ParseError,
    parse,
    parse_formula,
    parse_label,
    parse_term,
    to_pcfa,
)

from helpers import DATA_DIR, load_program

MOTIVATING = (DATA_DIR / "motivating.prob").read_text()


def test_parse_headers():
    program, spec = parse(MOTIVATING)
    assert spec.beta == Fraction(3, 10)
    assert program.declarations == (("X", "int"), ("C", "int"))
    assert str(spec.post) == "X = 0"


def test_missing_header_rejected():
    with pytest.raises(ParseError, match="@beta"):
        parse("@pre true\n@post X = 0\nint X;\nX := 0;\n")


def test_beta_must_be_exact_rational():
    for text in ("0.3", "1/0", "0/0"):
        bad = MOTIVATING.replace("@beta 3/10", f"@beta {text}")
        with pytest.raises(ParseError, match="@beta expects an exact rational"):
            parse(bad)
    worse = MOTIVATING.replace("@beta 3/10", "@beta 7/2")
    with pytest.raises(ParseError, match="outside"):
        parse(worse)


def test_statement_semicolons_required():
    with pytest.raises(ParseError, match="';'"):
        parse("@pre true\n@post true\n@beta 1\nint X;\nX := 0\n")


def test_undeclared_variable_rejected():
    with pytest.raises(ParseError, match="undeclared"):
        parse("@pre true\n@post true\n@beta 1\nint X;\nZ := 0;\n")


def test_keyword_not_a_variable():
    with pytest.raises(ParseError):
        parse("@pre true\n@post true\n@beta 1\nint skip;\nskip := 0;\n")


def test_choice_labels_numbered_in_program_order():
    _, _ = parse(MOTIVATING)
    p = to_pcfa(parse(MOTIVATING)[0])
    pids = {lab.pid for lab in p.alphabet if isinstance(lab, Pb)}
    assert pids == {0, 1}
    # coin 0 is the initial reset choice, coin 1 is inside the loop
    sides = sorted(str(l) for l in p.alphabet if isinstance(l, Pb))
    assert sides == ["pb(0,L)", "pb(0,R)", "pb(1,L)", "pb(1,R)"]


def test_alphabet_of_motivating_example():
    p = to_pcfa(parse(MOTIVATING)[0])
    assert {str(l) for l in p.alphabet} == {
        "X := 0",
        "C := 0",
        "skip",
        "assume C >= 1",
        "assume C <= 0",
        "pb(0,L)",
        "pb(0,R)",
        "pb(1,L)",
        "pb(1,R)",
        "X := X + 1",
        "C := C - 1",
    }


def test_pcfa_shape_is_cfmdp():
    p = to_pcfa(parse(MOTIVATING)[0])
    assert p.is_cfmdp()
    assert p.is_deterministic()
    assert not p.out_edges(p.accepting)


def test_if_else_builds_assume_guards():
    text = (
        "@pre true\n@post true\n@beta 1\nint X;\n"
        "if (X >= 1) { X := 0; } else { X := 1; }\n"
    )
    p = to_pcfa(parse(text)[0])
    labs = {str(l) for l in p.alphabet}
    assert "assume X >= 1" in labs
    assert "assume X <= 0" in labs


def test_nondeterministic_choice_label():
    text = "@pre true\n@post true\n@beta 1\nint X;\n{ X := 0; } <*> { X := 1; };\n"
    p = to_pcfa(parse(text)[0])
    nd = [l for l in p.alphabet if isinstance(l, Nd)]
    assert len(nd) == 2
    assert not p.is_deterministic() or len({t for _, l, t in p.transitions if isinstance(l, Nd)}) == 2


def test_bool_variables():
    text = (
        "@pre !A\n@post A\n@beta 1/2\nbool A;\n"
        "{ A := true; } <+> { skip; };\n"
    )
    program, spec = parse(text)
    assert program.declarations == (("A", "bool"),)
    assert feval(spec.pre, {"A": False})
    assert not feval(spec.pre, {"A": True})


def test_parse_term_and_formula_errors():
    sorts = {"X": "int", "B": "bool"}
    assert parse_term("X - 2 + X", sorts).eval({"X": 3}) == 4
    with pytest.raises(ParseError):
        parse_term("X +", sorts)
    with pytest.raises(ParseError):
        parse_formula("X >= B", sorts)
    with pytest.raises(ParseError):
        parse_formula("true ||", sorts)


def test_parenthesised_terms_and_formulas():
    # a leading "(" is read as a formula first and read again as a term
    # when a comparison follows its ")"
    sorts = {"X": "int", "Y": "int"}
    cases = {
        "(X + 1) <= 2": lambda x, y: x + 1 <= 2,
        "2 * (X - 1) >= 0": lambda x, y: 2 * (x - 1) >= 0,
        "(X <= 1) && Y = 0": lambda x, y: x <= 1 and y == 0,
    }
    for text, meaning in cases.items():
        f = parse_formula(text, sorts)
        for x in range(-3, 4):
            for y in range(-1, 2):
                assert feval(f, {"X": x, "Y": y}) == meaning(x, y), (text, x, y)


def test_parse_label_roundtrip():
    sorts = {"X": "int", "C": "int", "A": "bool"}
    examples = [
        "X := 0",
        "X := X + 1",
        "skip",
        "assume C >= 1",
        "pb(0,L)",
        "pb(3,R)",
        "nd(2)",
        "A := true",
    ]
    for text in examples:
        lab = parse_label(text, sorts)
        assert str(parse_label(str(lab), sorts)) == str(lab)
    assert isinstance(parse_label("skip", sorts), SkipL)
    assert isinstance(parse_label("pb(0,L)", sorts), Pb)
    assert isinstance(parse_label("nd(1)", sorts), Nd)
    assert isinstance(parse_label("assume X <= 0", sorts), Assume)
    assert isinstance(parse_label("X := 4", sorts), Assign)
    with pytest.raises(ParseError):
        parse_label("Z := 0", sorts)
    with pytest.raises(ParseError):
        parse_label("what is this", sorts)


def test_nested_choice_numbering_stable():
    text = (
        "@pre true\n@post true\n@beta 1\nint X;\n"
        "{ { X := 1; } <+> { X := 2; }; } <+> { X := 3; };\n"
    )
    p = to_pcfa(parse(text)[0])
    pids = sorted({lab.pid for lab in p.alphabet if isinstance(lab, Pb)})
    assert pids == [0, 1]


def test_choices_numbered_in_pre_order():
    # a choice takes its id before the choices nested in its branches, and
    # coins and nondeterministic tags are counted apart
    text = (
        "@pre true\n@post true\n@beta 1\nint X;\n"
        "{ { X := 1; } <+> { X := 2; }; } <+> { { X := 3; } <*> { X := 4; }; };\n"
        "{ X := 5; } <*> { X := 6; };\n"
    )
    p = to_pcfa(parse(text)[0])

    def out(loc):
        return {str(lab): t for lab, t in p.out_edges(loc)}

    first = out(p.initial)
    assert set(first) == {"pb(0,L)", "pb(0,R)"}
    left, right = out(first["pb(0,L)"]), out(first["pb(0,R)"])
    assert set(left) == {"pb(1,L)", "pb(1,R)"}
    assert set(right) == {"nd(0)", "nd(1)"}
    last = out(out(left["pb(1,L)"])["X := 1"])
    assert {lab: out(t) for lab, t in last.items()} == {
        "nd(2)": {"X := 5": p.accepting},
        "nd(3)": {"X := 6": p.accepting},
    }


def test_while_loop_guard_labels():
    program, _ = load_program("motivating.prob")
    p = to_pcfa(program)
    guards = {str(l) for l in p.alphabet if isinstance(l, Assume)}
    assert guards == {"assume C >= 1", "assume C <= 0"}
