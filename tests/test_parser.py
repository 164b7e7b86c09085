"""Surface syntax: tokens, precedence, round-tripping, error positions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstaq import ast as A
from lstaq.amplitude import AC_I, AC_ONE, AC_SQRT2, AlgebraicComplex
from lstaq.cli import bench_sources
from lstaq.errors import LimitExceededError, SpecSyntaxError
from lstaq.parser import (
    MAX_ATOMS,
    MAX_NESTING,
    parse,
    parse_constant,
    parse_many,
    render,
    render_many,
    tokenize,
)

CORPUS = [
    "{ |0 0> }",
    "{ (1/sqrt2) |0 0> + (1/sqrt2) |1 1> }",
    "{ sum[ |i| = 2 ] |i 0> : |j| = 1, j != 0 } \\/ { |1 1 1 1> }",
    "{ |i 0 0> : |i| = 2 } (x) { |0> } \\/ { |1> } ^ 2",
    "{ |00 0 i>, |11 1 i> : |i| = 1 } (x) { |0> } (x) { |0> }",
    "{ sum[ |i| = 3, i != 101 ] |i ~i> }",
    "bigU[ im(ah) = 0 && |ah|^2 > 7/8 ] { ah |s s> + al sum[ i != s ] |s i> : |s| = 1, |i| = 1 }",
    "{ a |0> - b |1> } ;; { |1> }",
    "{ (1 + i)/sqrt2 ^ 3 sum[ |i| = 2 ] |i> }",
]


@pytest.mark.parametrize("src", CORPUS)
def test_render_parse_round_trip(src):
    asts = parse_many(src)
    again = parse_many(render_many(asts))
    assert again == asts


def test_tokens_take_the_longest_literal_and_keep_their_positions():
    toks = tokenize("a!=b ;; c\\/d // a note\n  |x1| <= 2.5 >=!<||&&/")
    assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
        ("IDENT", "a", 1, 1), ("!=", "!=", 1, 2), ("IDENT", "b", 1, 4),
        (";;", ";;", 1, 6), ("IDENT", "c", 1, 9), ("\\/", "\\/", 1, 10),
        ("IDENT", "d", 1, 12), ("|", "|", 2, 3), ("IDENT", "x1", 2, 4),
        ("|", "|", 2, 6), ("<=", "<=", 2, 8), ("NUMBER", "2.5", 2, 11),
        (">=", ">=", 2, 15), ("!", "!", 2, 17), ("<", "<", 2, 18),
        ("||", "||", 2, 19), ("&&", "&&", 2, 21), ("/", "/", 2, 23),
        ("EOF", "", 2, 24),
    ]


# Pieces that join into token streams, blanks, newlines and comments;
# adjacent pieces may also join into one longer token.
_PIECES = ["a", "x1", "_b", "sum", "0", "12", " 2.5", " ", "\t", "\r", "\n", "// c",
           ";;", "\\/", "!=", "<=", ">=", "&&", "||", *"{}[]()|><~^+-*/=:,!"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40))
def test_each_token_position_locates_its_text(pieces):
    src = "".join(pieces)
    lines = src.split("\n")
    toks = tokenize(src)
    for t in toks:
        assert lines[t.line - 1][t.col - 1:t.col - 1 + len(t.text)] == t.text
    assert [(t.line, t.col) for t in toks] == sorted((t.line, t.col) for t in toks)
    assert toks[-1].line == len(lines) and toks[-1].col <= len(lines[-1]) + 1


@pytest.mark.parametrize("src, col", [
    ("{ |0> // c", 7), ("{ |0>// c", 6), ("{ |0>   ", 9), ("{ |0> // c\n", 1), ("// c", 1)])
def test_eof_stands_before_a_trailing_comment(src, col):
    eof = tokenize(src)[-1]
    assert (eof.kind, eof.line, eof.col) == ("EOF", src.count("\n") + 1, col)


@pytest.mark.parametrize("src, char, col", [
    ("{ é |x²> : |x²| = 1 }", "é", 3),
    ("{ |x²> : |x²| = 1 }", "²", 5),
    ("{ ٣ |0> }", "٣", 3),
    ("{ |0> } \\ { |1> }", "\\", 9),
    ("{ .5 |0> }", ".", 3),
])
def test_characters_outside_the_token_forms_are_refused(src, char, col):
    with pytest.raises(SpecSyntaxError) as exc:
        tokenize(src)
    assert (exc.value.line, exc.value.column) == (1, col)
    assert str(exc.value) == f"1:{col}: unexpected character {char!r}"


def test_power_binds_looser_than_union():
    assert parse("{ |0> } \\/ { |1> } ^ 2") == parse("( { |0> } \\/ { |1> } ) ^ 2")
    ast = parse("{ |0> } \\/ { |1> } ^ 2")
    (pset,) = ast.segments
    assert pset.power == 2 and len(pset.base.alternatives) == 2


def test_tensor_is_the_loosest_set_operator():
    ast = parse("{ |0> } \\/ { |1> } (x) { |0> }")
    assert len(ast.segments) == 2
    assert len(ast.segments[0].base.alternatives) == 2
    assert len(ast.segments[1].base.alternatives) == 1


def test_parenthesised_tensor_groups_flatten():
    ast = parse("( { |0> } (x) { |1> } ) (x) { |0> }")
    assert len(ast.segments) == 3


def test_powers_of_tensor_groups_are_rejected():
    with pytest.raises(SpecSyntaxError):
        parse("( { |0> } (x) { |1> } ) ^ 2")


def test_ket_runs_expand_and_vanish():
    ast = parse("{ |1 0^3 i 0^0> : |i| = 1 }")
    (sq,) = list(ast.setqs())
    (term,) = sq.diracs[0]
    assert term.pattern == (A.Const("1000"), A.Var("i"))


def test_complement_atoms_parse_and_render():
    ast = parse("{ sum[ |v| = 2 ] |v ~v> }")
    (sq,) = list(ast.setqs())
    (term,) = sq.diracs[0]
    assert isinstance(term.pattern[1], A.Compl) and term.pattern[1].name == "v"
    assert "~v" in render(ast)


def test_minus_between_terms_negates_the_amplitude():
    ast = parse("{ |0> - |1> }")
    (sq,) = list(ast.setqs())
    t0, t1 = sq.diracs[0]
    assert t1.amplitude == -t0.amplitude


def test_multi_dirac_sets_keep_their_members():
    ast = parse("{ |0 0>, |1 1> }")
    (sq,) = list(ast.setqs())
    assert len(sq.diracs) == 2


def test_amplitude_arithmetic_is_exact():
    assert parse_constant("1/sqrt2 * sqrt2") == AC_ONE
    assert parse_constant("(1 + i) / sqrt2") == AlgebraicComplex(0, 1, 0, 0, 0)
    assert parse_constant("i ^ 2") == -AC_ONE
    assert parse_constant("0.5 * 2") == AC_ONE
    assert parse_constant("2 - 3") == -AC_ONE
    assert parse_constant("-i * i") == AC_ONE
    assert parse_constant("sqrt2 ^ 3") == AC_SQRT2 * AlgebraicComplex.from_int(2)


def test_amplitude_variables_not_allowed_in_constants():
    with pytest.raises(SpecSyntaxError):
        parse_constant("ah / 2")


def test_formula_comma_means_conjunction():
    a = parse("bigU[ re(a) = 0, im(a) = 0 ] { a |0> }")
    b = parse("bigU[ re(a) = 0 && im(a) = 0 ] { a |0> }")
    assert a.constraint == b.constraint


def test_formula_connectives_and_not():
    ast = parse("bigU[ !(re(a) < 0) || |a|^2 = 1 ] { a |0> }")
    c = ast.constraint
    assert isinstance(c, A.CBin) and c.op == "||"
    left, right = c.operands
    assert isinstance(left, A.CNot)
    assert isinstance(right, A.CCmp) and isinstance(right.left, A.CAbsSq)


@pytest.mark.parametrize("grouped, flat, same", [
    ("(re(a) > 0 && re(b) > 0) && re(c) > 0", "re(a) > 0 && re(b) > 0 && re(c) > 0", True),
    ("(re(a) > 0 || re(b) > 0) || re(c) > 0", "re(a) > 0 || re(b) > 0 || re(c) > 0", True),
    ("re(a) > 0 && re(b) > 0, re(c) > 0", "re(a) > 0 && re(b) > 0 && re(c) > 0", True),
    ("(re(a) + re(b)) - re(c) > 0", "re(a) + re(b) - re(c) > 0", True),
    ("(re(a) * re(b)) / re(c) > 0", "re(a) * re(b) / re(c) > 0", True),
    ("re(a) > 0 && (re(b) > 0 && re(c) > 0)", "re(a) > 0 && re(b) > 0 && re(c) > 0", False),
    ("re(a) - (re(b) + re(c)) > 0", "re(a) - re(b) + re(c) > 0", False),
    ("(re(a) + re(b)) * re(c) > 0", "re(a) + re(b) * re(c) > 0", False),
], ids=["and", "or", "comma", "plus", "times", "right-and", "right-minus",
        "lower-level"])
def test_a_grouped_left_operand_joins_its_chain(grouped, flat, same):
    def formula(text):
        return parse(f"bigU[ {text} ] {{ a |0> + b |1> + c |1> }}").constraint
    assert (formula(grouped) == formula(flat)) is same


@pytest.mark.parametrize("formula", [
    " && ".join(["re(a) > 0"] * 3000),
    " + ".join(["re(a)"] * 3000) + " > 0",
], ids=["and", "plus"])
def test_long_chains_compare_hash_and_print(formula):
    src = f"bigU[ {formula} ] {{ a |0> }}"
    x, y = parse(src), parse(src)
    assert x == y
    assert hash(x) == hash(y)
    assert repr(x) == repr(y)
    assert x != parse(src.replace(formula, formula[:-4] + " < 0"))


def test_comments_and_separators():
    asts = parse_many("// leading note\n{ |0> } ;; // tail\n{ |1> } ;;")
    assert len(asts) == 2


def test_syntax_errors_carry_positions():
    with pytest.raises(SpecSyntaxError) as exc:
        parse("{ |0>\n  + @ }")
    assert exc.value.line == 2
    assert exc.value.exit_code == 1


@pytest.mark.parametrize("wrap", [
    lambda d: "(" * d + "{ |0> }" + ")" * d,
    lambda d: "{ " + "(" * d + "1" + ")" * d + " |0> }",
    lambda d: "{ " + "-" * d + "1 |0> }",
    lambda d: "bigU[ " + "!" * d + "re(a) > 0 ] { a |0> }",
    lambda d: "bigU[ " + "(" * d + "re(a) > 0" + ")" * d + " ] { a |0> }",
    lambda d: "bigU[ " + "(" * d + "re(a)" + ")" * d + " > 0 ] { a |0> }",
], ids=["sets", "amplitude", "minus", "not", "formula", "arithmetic"])
def test_nesting_is_limited_at_the_offending_token(wrap):
    parse(wrap(MAX_NESTING))
    src = wrap(MAX_NESTING + 1)
    with pytest.raises(SpecSyntaxError) as exc:
        parse(src)
    assert exc.value.line == 1
    before, opener = src[:exc.value.column - 1], src[exc.value.column - 1]
    assert opener in "(-!"
    assert before.count(opener) == MAX_NESTING


def test_error_on_nonbinary_ket_digits():
    with pytest.raises(SpecSyntaxError):
        parse("{ |2> }")


def test_error_on_empty_ket():
    with pytest.raises(SpecSyntaxError):
        parse("{ |0^0> }")


def test_division_by_zero_reports_at_the_expression():
    with pytest.raises(SpecSyntaxError):
        parse("{ (1/0) |0> }")


def test_render_many_joins_with_separators():
    text = render_many(parse_many("{ |0> } ;; { |1> }"))
    assert ";;" in text


def test_a_constant_run_is_one_atom():
    asts = parse_many("{ |0^8 1 0 1^3> } (x) { |1 0> }")
    patterns = [term.pattern for sq in asts[0].setqs() for term in sq.diracs[0]]
    assert patterns == [(A.Const("0000000010111"),), (A.Const("10"),)]
    assert render_many(asts) == "{ |0000000010111> } (x) { |10> }\n"


def test_ket_atoms_are_budgeted_per_parse():
    width = A.MAX_QUBITS
    kets = MAX_ATOMS // width
    full = ", ".join([f"|0^{width}>"] * kets)
    parse(f"{{ {full} }}")
    with pytest.raises(LimitExceededError) as exc:
        parse(f"{{ {full}, |a> }}")
    col = len(f"{{ {full}, |") + 1
    assert str(exc.value) == (f"1:{col}: the kets hold at least {MAX_ATOMS + 1} atoms, "
                              f"over the limit of {MAX_ATOMS}")
    # The budget spans the assertions of one parse.
    with pytest.raises(LimitExceededError):
        parse_many(" ;; ".join([f"{{ |1^{width}> }}"] * (kets + 1)))


# The largest sizes at which every text of a bench family parses: past
# them a ket spans more than ``MAX_QUBITS`` qubits, or ``bench_sources``
# refuses the size.
CEILING_SIZES = {"bv": 65535, "ghz": 65536, "grover": 32768, "groveriter": 65536,
                 "mctoffoli": 32768}


@pytest.mark.parametrize("family", sorted(CEILING_SIZES))
def test_bench_families_at_the_qubit_ceiling_parse_within_the_atom_budget(family):
    for pre, post, _joint in bench_sources(family, CEILING_SIZES[family]):
        parse(pre)
        parse(post)
