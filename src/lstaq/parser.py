"""Concrete syntax for assertion files.

The grammar is documented in ``docs/language.md``.  In brief::

    assertion  ::=  [ "bigU" "[" formula "]" ]  tset
    tset       ::=  pset  ( "(x)" pset )*
    pset       ::=  uset [ "^" INT ]  |  "(" tset ")" [ "^" INT ]
    uset       ::=  setq ( "\\/" setq )*
    setq       ::=  "{" dirac ("," dirac)* [ ":" varcon ("," varcon)* ] "}"
    dirac      ::=  term ( ("+" | "-") term )*
    term       ::=  [ amp ] [ "sum" "[" varcon ("," varcon)* "]" ] ket
    ket        ::=  "|" atom+ ">"

Ket atoms are whitespace separated: a run of binary digits (optionally
repeated, ``0^4``; adjacent runs join), a variable or its complement ``~v``.
Amplitudes are exact arithmetic over integers, rationals, ``i`` and
``sqrt2``; ``bigU`` formulas compare arithmetic over ``re(v)``, ``im(v)``
and ``|v|^2``.  Comments run from ``//`` to end of line; assertions in one
file are separated by ``;;``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from fractions import Fraction
from typing import NamedTuple

from . import ast as A
from .amplitude import (
    AC_I,
    AC_SQRT2,
    AlgebraicComplex,
    AmplitudePoly,
    ExactDivisionError,
    POLY_ONE,
)
from .errors import LimitExceededError, SpecSyntaxError

# One token per match, after any blanks: a newline, a comment, a
# punctuation literal (a longer literal before its one-character prefix), a
# NUMBER, an IDENT, or any other single character, which is an error.  The
# forms are those of ``docs/language.md``, ASCII only.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<NL>\n)
  | (?P<COMMENT>//)[^\n]*
  | (?P<PUNCT>;;|\\/|!=|<=|>=|&&|\|\||[{}\[\]()|><~^+\-*/=:,!])
  | (?P<NUMBER>[0-9][0-9.]*)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<BAD>.)
  | \Z)""", re.VERBOSE)
_KEYWORDS = {"bigU", "sum"}
# Binding powers of the infix arithmetic operators.
_BP = {"*": 20, "/": 20, "+": 10, "-": 10}
# Deepest nesting of parentheses, prefix minus and negation that a spec
# may use.  The parser descends one level per Python call (up to four
# calls in formulas), so this keeps any spec clear of the interpreter's
# recursion limit; past it the spec is a syntax error.
MAX_NESTING = 100
# Most constant bits and variable occurrences that one parse's kets may hold,
# four kets of ``MAX_QUBITS`` bits: twice what a bench family's text at the
# qubit ceiling holds.  Past it the parse is refused before the run is built.
MAX_ATOMS = 1 << 18
# Most pairs of polynomial terms that one parse may multiply, over all its
# amplitude products and powers: ``(a+b)^255 * (a+b)^255`` multiplies
# 121,180, so a second such amplitude passes it.  Each product is first
# held to ``amplitude``'s bound on one product.  Past it the parse is
# refused before the product is built.
MAX_TERM_PAIRS = 1 << 17


class Token(NamedTuple):
    kind: str  # punctuation literal, IDENT, NUMBER or EOF
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    """The tokens of ``src`` and a closing EOF, whose column is that of a
    comment ending the last line, or else one past the line's end.  A
    character that starts no token is a syntax error at its position."""
    toks: list[Token] = []
    line, start, comment = 1, 0, -1  # start: offset of the line's first character
    new = tuple.__new__
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "NL":
            line, start = line + 1, m.end()
        elif kind == "COMMENT":
            comment = m.start(kind)
        elif kind is not None:
            text, col = m[kind], m.start(kind) - start + 1
            if kind == "BAD":
                raise SpecSyntaxError(f"unexpected character {text!r}", line, col)
            toks.append(new(Token, (text if kind == "PUNCT" else kind, text, line, col)))
    end = comment if comment >= start else len(src)
    toks.append(new(Token, ("EOF", "", line, end - start + 1)))
    return toks


# Tokens past the current one that the parser looks at: ``(x)`` needs two.
_LOOKAHEAD = 2


class _Parser:
    def __init__(self, text: str):
        toks = tokenize(text)
        # Copies of the closing EOF cover the deepest lookahead, two tokens
        # past it, and ``next`` never moves past the first EOF.
        self.toks = toks + [toks[-1]] * _LOOKAHEAD
        self.pos = 0
        self.depth = 0
        self.atoms = 0
        self.pairs = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, ahead: int = 0) -> bool:
        return self.toks[self.pos + ahead].kind == kind

    def expect(self, kind: str) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text!r}", tok)
        return self.next()

    def fail(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise SpecSyntaxError(msg, tok.line, tok.col)

    @contextmanager
    def _nested(self, tok: Token):
        """One level of nesting opened at ``tok``; fails past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", tok)
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    # -- entry points --------------------------------------------------------

    def parse_file(self) -> list[A.AssertionAst]:
        out = [self.parse_assertion()]
        while self.at(";;"):
            self.next()
            if self.at("EOF"):
                break
            out.append(self.parse_assertion())
        self.expect("EOF")
        return out

    def parse_assertion(self) -> A.AssertionAst:
        constraint = None
        if self.at("IDENT") and self.peek().text == "bigU":
            self.next()
            self.expect("[")
            constraint = self.parse_formula()
            self.expect("]")
        return A.AssertionAst(tuple(self.parse_tset()), constraint)

    # -- set structure -------------------------------------------------------

    def parse_tset(self) -> list[A.PSet]:
        """Tensor operands ``pset ( "(x)" pset )*``, flattened in order.

        The operator ``(x)`` is three tokens; a set expression can never
        otherwise start with ``(x``, so the lookahead is unambiguous.
        """
        segments = self.parse_pset()
        while (self.at("(") and self.at("IDENT", 1) and self.peek(1).text == "x"
               and self.at(")", 2)):
            self.pos += 3
            segments += self.parse_pset()
        return segments

    def parse_pset(self) -> list[A.PSet]:
        if self.at("("):
            with self._nested(self.next()):
                inner = self.parse_tset()
                self.expect(")")
            if self.at("^"):
                tok = self.next()
                power = self.parse_int()
                if len(inner) != 1 or inner[0].power != 1:
                    self.fail("a power applies to a single union", tok)
                return [A.PSet(inner[0].base, power)]
            return inner
        base = self.parse_uset()
        power = 1
        if self.at("^"):
            self.next()
            power = self.parse_int()
        return [A.PSet(base, power)]

    def parse_uset(self) -> A.USet:
        alts = [self.parse_setq()]
        while self.at("\\/"):
            self.next()
            alts.append(self.parse_setq())
        return A.USet(tuple(alts))

    def parse_setq(self) -> A.SetQ:
        self.expect("{")
        diracs = [self.parse_dirac()]
        while self.at(","):
            self.next()
            diracs.append(self.parse_dirac())
        predicate: tuple[A.VarCon, ...] = ()
        if self.at(":"):
            self.next()
            predicate = self.parse_varcons()
        self.expect("}")
        return A.SetQ(tuple(diracs), predicate)

    def parse_dirac(self) -> A.Dirac:
        terms = [self.parse_term()]
        while self.at("+") or self.at("-"):
            negate = self.next().kind == "-"
            term = self.parse_term()
            if negate:
                term = A.Term(-term.amplitude, term.sum_constraints, term.pattern)
            terms.append(term)
        return tuple(terms)

    def parse_term(self) -> A.Term:
        amp = POLY_ONE
        if not self.at("|") and not self._at_keyword("sum"):
            amp = self.parse_amp()
        cons: tuple[A.VarCon, ...] = ()
        if self._at_keyword("sum"):
            self.next()
            self.expect("[")
            cons = self.parse_varcons()
            self.expect("]")
        pattern = self.parse_ket()
        return A.Term(amp, cons, pattern)

    def _at_keyword(self, word: str) -> bool:
        return self.at("IDENT") and self.peek().text == word

    def parse_ket(self) -> tuple[A.Atom, ...]:
        self.expect("|")
        start = self.atoms  # so the ket holds ``self.atoms - start`` bits and variables
        atoms: list[A.Atom] = []
        run = ""  # the constant bits since the last variable
        while not self.at(">"):
            tok = self.peek()
            if tok.kind == "NUMBER":
                self.next()
                bits = tok.text
                if set(bits) - {"0", "1"}:
                    self.fail(f"{bits!r} is not a binary string", tok)
                if self.at("^"):
                    self.next()
                    bits *= self._bounded_int(
                        "the ket spans at least {} qubits", self.atoms - start, len(bits))
                self._spend(len(bits), tok)
                run += bits
                continue
            if tok.kind == "IDENT":
                self.next()
                atom = A.Var(tok.text)
            elif tok.kind == "~":
                self.next()
                atom = A.Compl(self.expect("IDENT").text)
            else:
                self.fail(f"unexpected {tok.text!r} inside a ket", tok)
            self._spend(1, tok)
            atoms += (A.Const(run), atom) if run else (atom,)
            run = ""
        self.expect(">")
        if run:
            atoms.append(A.Const(run))
        if not atoms:
            self.fail("empty ket")
        return tuple(atoms)

    def _spend(self, n: int, tok: Token) -> None:
        """Count ``n`` more constant bits or variable occurrences, starting
        at ``tok``; fails past ``MAX_ATOMS``, before they are built."""
        self.atoms += n
        if self.atoms > MAX_ATOMS:
            raise LimitExceededError(MAX_ATOMS, (
                f"{tok.line}:{tok.col}: the kets hold at least {self.atoms} atoms, "
                f"over the limit of {MAX_ATOMS}"))

    # -- variable constraints -------------------------------------------------

    def parse_varcons(self) -> tuple[A.VarCon, ...]:
        cons = [self.parse_varcon()]
        while self.at(","):
            self.next()
            cons.append(self.parse_varcon())
        return tuple(cons)

    def parse_varcon(self) -> A.VarCon:
        if self.at("|"):
            self.next()
            var = self.expect("IDENT").text
            self.expect("|")
            self.expect("=")
            return A.Len(var, self.parse_int())
        var = self.expect("IDENT").text
        if self.at("!="):
            self.next()
            if self.at("IDENT"):
                return A.NeqVar(var, self.next().text)
            return A.NeqConst(var, self.parse_bits())
        if self.at("="):
            self.next()
            return A.EqConst(var, self.parse_bits())
        self.fail("expected '!=' or '=' in a variable constraint")

    def parse_bits(self) -> str:
        tok = self.expect("NUMBER")
        if set(tok.text) - {"0", "1"}:
            self.fail(f"{tok.text!r} is not a binary string", tok)
        return tok.text

    def parse_int(self) -> int:
        tok = self.expect("NUMBER")
        if not tok.text.isdigit():
            self.fail(f"expected an integer, found {tok.text!r}", tok)
        try:
            return int(tok.text)
        except ValueError:  # more digits than ``int`` converts
            self.fail(f"an integer of {len(tok.text)} digits is too long", tok)

    def _bounded_int(self, what: str, base: int = 0, scale: int = 1) -> int:
        """An integer ``k`` with ``base + scale * k`` at most ``MAX_QUBITS``."""
        tok = self.peek()
        k = self.parse_int()
        n = base + scale * k
        if n > A.MAX_QUBITS:
            raise LimitExceededError(A.MAX_QUBITS, (
                f"{tok.line}:{tok.col}: {what.format(n)}, "
                f"over the limit of {A.MAX_QUBITS}"))
        return k

    # -- amplitude expressions --------------------------------------------------

    def parse_amp(self, min_bp: int = 0) -> AmplitudePoly:
        tok = self.peek()
        try:
            left = self._amp_prefix()
            while True:
                op = self.peek()
                if op.kind == "^":
                    self.next()
                    k = self._bounded_int("an exponent of {}")
                    left = left.power(k, lambda x, y: self._times(x, y, op))
                    continue
                bp = _BP.get(op.kind)
                if bp is None or bp < min_bp:
                    break
                self.next()
                right = self.parse_amp(bp + 1)
                if op.kind == "*":
                    left = self._times(left, right, op)
                elif op.kind == "/":
                    left = left / right
                elif op.kind == "+":
                    left = left + right
                else:
                    left = left - right
            return left
        except ExactDivisionError as exc:
            raise SpecSyntaxError(str(exc), tok.line, tok.col) from exc

    def _times(self, left: AmplitudePoly, right: AmplitudePoly, tok: Token) -> AmplitudePoly:
        """``left * right`` at ``tok``.  Once ``term_pairs`` has held it to
        the bound on one product, its pairs join the parse's count, and the
        parse fails past ``MAX_TERM_PAIRS`` before the product is built."""
        self.pairs += left.term_pairs(right)
        if self.pairs > MAX_TERM_PAIRS:
            raise LimitExceededError(MAX_TERM_PAIRS, (
                f"{tok.line}:{tok.col}: the amplitudes multiply at least "
                f"{self.pairs} term pairs, over the limit of {MAX_TERM_PAIRS}"))
        return left * right

    def _amp_prefix(self) -> AmplitudePoly:
        tok = self.next()
        if tok.kind == "NUMBER":
            return _number_poly(tok)
        if tok.kind == "IDENT":
            if tok.text == "i":
                return AmplitudePoly.const(AC_I)
            if tok.text == "sqrt2":
                return AmplitudePoly.const(AC_SQRT2)
            if tok.text in _KEYWORDS:
                self.fail(f"{tok.text!r} cannot start an amplitude", tok)
            return AmplitudePoly.var(tok.text)
        if tok.kind == "(":
            with self._nested(tok):
                inner = self.parse_amp()
                self.expect(")")
            return inner
        if tok.kind == "-":
            with self._nested(tok):
                return -self.parse_amp(30)
        self.fail(f"unexpected {tok.text!r} in an amplitude", tok)

    # -- amplitude-constraint formulas -------------------------------------------

    def parse_formula(self) -> A.CCons:
        return self._connective(",", "&&", self._formula_or)

    def _formula_or(self) -> A.CCons:
        return self._connective("||", "||", self._formula_and)

    def _formula_and(self) -> A.CCons:
        return self._connective("&&", "&&", self._formula_not)

    def _connective(self, sep: str, op: str, operand) -> A.CCons:
        """Operands separated by ``sep`` and joined by ``op`` into one chain."""
        operands = [operand()]
        while self.at(sep):
            self.next()
            operands.append(operand())
        first = operands[0]
        if isinstance(first, A.CBin) and first.op == op:
            operands[:1] = first.operands
        return A.CBin(op, tuple(operands)) if len(operands) > 1 else first

    def _formula_not(self) -> A.CCons:
        if self.at("!"):
            with self._nested(self.next()):
                return A.CNot(self._formula_not())
        if self.at("("):
            # Either a parenthesised formula or a parenthesised arithmetic
            # expression starting a comparison: try the formula first.
            mark = self.pos
            try:
                with self._nested(self.next()):
                    inner = self.parse_formula()
                    self.expect(")")
                return inner
            except SpecSyntaxError:
                self.pos = mark
        return self._comparison()

    def _comparison(self) -> A.CCmp:
        left = self._carith()
        op = self.peek()
        if op.kind not in ("=", "!=", "<", "<=", ">", ">="):
            self.fail("expected a comparison operator", op)
        self.next()
        right = self._carith()
        return A.CCmp(op.kind, left, right)

    def _carith(self, min_bp: int = 0) -> A.CExpr:
        left = self._carith_prefix()
        links: list[tuple[str, A.CExpr]] = []
        while True:
            op = self.peek()
            bp = _BP.get(op.kind)
            if bp is None or bp < min_bp:
                return _arith_chain(left, links)
            if links and bp != _BP[links[0][0]]:
                left, links = _arith_chain(left, links), []
            self.next()
            links.append((op.kind, self._carith(bp + 1)))

    def _carith_prefix(self) -> A.CExpr:
        tok = self.next()
        if tok.kind == "NUMBER":
            return A.CNum(_number_fraction(tok.text))
        if tok.kind == "-":
            with self._nested(tok):
                inner = self._carith(30)
            return A.CArith(A.CNum(Fraction(0)), (("-", inner),))
        if tok.kind == "(":
            with self._nested(tok):
                inner = self._carith()
                self.expect(")")
            return inner
        if tok.kind == "|":
            var = self.expect("IDENT").text
            self.expect("|")
            self.expect("^")
            tok2 = self.expect("NUMBER")
            if tok2.text != "2":
                self.fail("only squared magnitudes |v|^2 are supported", tok2)
            return A.CAbsSq(var)
        if tok.kind == "IDENT" and tok.text in ("re", "im"):
            self.expect("(")
            var = self.expect("IDENT").text
            self.expect(")")
            return A.CRe(var) if tok.text == "re" else A.CIm(var)
        self.fail(f"unexpected {tok.text!r} in a constraint formula", tok)


def _arith_chain(first: A.CExpr, links: list) -> A.CExpr:
    """``first`` then ``links`` of one level; a ``first`` of that level joins."""
    if not links:
        return first
    if isinstance(first, A.CArith) and _BP[first.rest[0][0]] == _BP[links[0][0]]:
        return A.CArith(first.first, first.rest + tuple(links))
    return A.CArith(first, tuple(links))


def _number_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        raise SpecSyntaxError(f"malformed number {text!r}") from None


def _number_poly(tok: Token) -> AmplitudePoly:
    frac = _number_fraction(tok.text)
    num = AlgebraicComplex.from_int(frac.numerator)
    den = AlgebraicComplex.from_int(frac.denominator)
    return AmplitudePoly.const(num / den)


def parse(text: str) -> A.AssertionAst:
    """Parse a single assertion."""
    asts = _Parser(text).parse_file()
    if len(asts) != 1:
        raise SpecSyntaxError(f"expected one assertion, found {len(asts)}")
    return asts[0]


def parse_many(text: str) -> list[A.AssertionAst]:
    """Parse a file of assertions separated by ``;;``."""
    return _Parser(text).parse_file()


def parse_constant(text: str) -> AlgebraicComplex:
    """Parse one constant amplitude expression such as ``-i/sqrt2``."""
    p = _Parser(text)
    poly = p.parse_amp()
    p.expect("EOF")
    if not poly.is_constant:
        p.fail("amplitude variables are not allowed here")
    return poly.constant_value


# ---------------------------------------------------------------------------
# Rendering: the inverse of parse up to insignificant whitespace.
# ---------------------------------------------------------------------------


def render(ast: A.AssertionAst) -> str:
    parts = []
    if ast.constraint is not None:
        parts.append(f"bigU[ {render_formula(ast.constraint)} ]")
    segs = []
    for seg in ast.segments:
        body = " \\/ ".join(_render_setq(sq) for sq in seg.base.alternatives)
        if seg.power != 1:
            body = f"({body})^{seg.power}" if len(seg.base.alternatives) > 1 else f"{body}^{seg.power}"
        segs.append(body)
    parts.append(" (x) ".join(segs))
    return " ".join(parts)


def render_many(asts: list[A.AssertionAst]) -> str:
    return "\n;;\n".join(render(a) for a in asts) + "\n"


def _render_setq(sq: A.SetQ) -> str:
    diracs = ", ".join(_render_dirac(d) for d in sq.diracs)
    if sq.predicate:
        cons = ", ".join(render_varcon(c) for c in sq.predicate)
        return "{ %s : %s }" % (diracs, cons)
    return "{ %s }" % diracs


def _render_dirac(dirac: A.Dirac) -> str:
    return " + ".join(_render_term(t) for t in dirac)


def _render_term(term: A.Term) -> str:
    bits = []
    if term.amplitude != POLY_ONE:
        bits.append(render_amplitude(term.amplitude))
    if term.sum_constraints:
        cons = ", ".join(render_varcon(c) for c in term.sum_constraints)
        bits.append(f"sum[ {cons} ]")
    bits.append(render_ket(term.pattern))
    return " ".join(bits)


def render_ket(pattern: tuple[A.Atom, ...]) -> str:
    """The ``|...>`` text of a pattern, one word per atom."""
    return "|%s>" % " ".join(
        atom.bits if isinstance(atom, A.Const)
        else atom.name if isinstance(atom, A.Var) else f"~{atom.name}"
        for atom in pattern)


def render_varcon(con: A.VarCon) -> str:
    if isinstance(con, A.Len):
        return f"|{con.var}| = {con.n}"
    if isinstance(con, A.NeqVar):
        return f"{con.left} != {con.right}"
    if isinstance(con, A.NeqConst):
        return f"{con.var} != {con.bits}"
    return f"{con.var} = {con.bits}"


def render_amplitude(poly: AmplitudePoly) -> str:
    """Render a polynomial amplitude as a parseable prefix for a ket."""
    text = str(poly)
    return text if text.isidentifier() or text.isdigit() else f"({text})"


_LEVEL = {"||": 1, "&&": 2, "+": 1, "-": 1, "*": 2, "/": 2}


def _level(e) -> int:
    """How tightly the top of ``e`` binds; an atom or a comparison binds tightest."""
    if isinstance(e, A.CBin):
        return _LEVEL[e.op]
    if isinstance(e, A.CArith):
        return _LEVEL[e.rest[0][0]]
    if isinstance(e, A.CNum) and e.value.denominator != 1:
        return _LEVEL["/"]  # written as a quotient
    return 3


def render_formula(e: A.CCons | A.CExpr) -> str:
    """Text that re-parses to ``e``, a formula or an arithmetic expression.

    A chain of one level is written flat.  An operand is parenthesised only
    where the grammar would group it otherwise: on the left when it binds
    more loosely than the chain, on the right when it binds no tighter.
    """
    if isinstance(e, A.CBin):
        head, rest = e.operands[0], [(e.op, x) for x in e.operands[1:]]
    elif isinstance(e, A.CArith):
        head, rest = e.first, e.rest
    else:
        return _render_leaf(e)
    top = _level(e)

    def operand(x, loosest: int) -> str:
        return f"({render_formula(x)})" if _level(x) < loosest else render_formula(x)

    return operand(head, top) + "".join(f" {op} {operand(x, top + 1)}" for op, x in rest)


def _render_leaf(e: A.CCons | A.CExpr) -> str:
    if isinstance(e, A.CNot):
        inner = render_formula(e.inner)
        return f"!({inner})" if isinstance(e.inner, A.CBin) else f"!{inner}"
    if isinstance(e, A.CCmp):
        return f"{render_formula(e.left)} {e.op} {render_formula(e.right)}"
    if isinstance(e, A.CNum):
        v = e.value
        return str(v) if v.denominator == 1 else f"{v.numerator} / {v.denominator}"
    if isinstance(e, A.CRe):
        return f"re({e.var})"
    if isinstance(e, A.CIm):
        return f"im({e.var})"
    return f"|{e.var}|^2"
