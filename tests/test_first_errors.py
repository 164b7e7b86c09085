"""The first error a translation raises for a spec that breaks two rules.

Each row breaks two front-end rules, or one rule twice, and names the error
that ``translate`` raises: its type, message and exit code.  The front end
checks in a fixed order (each source's lengths, well-formedness and scopes,
then every source's qubit count, then each canonical form's lengths, then
the alignment across assertions), and the rows pin that order.
"""

from __future__ import annotations

import pytest

from lstaq.build import translate
from lstaq.errors import (
    ConflictingLengthError,
    LengthMismatchError,
    LimitExceededError,
    LstaqError,
    RedundantSummationVarError,
    ScopeError,
    SegmentCountMismatchError,
    UnknownLengthError,
    WellFormednessError,
)
from lstaq.parser import parse_many

FIRST_ERRORS = [
    # (id, source, error type, message, exit code)
    ("unknown length, then an unheld constraint",
     "{ |0 i> } (x) { |0> : |k| = 1 }",
     UnknownLengthError, "length of variable 'i' cannot be inferred", 2),
    ("an unheld constraint, then an unknown length",
     "{ |0> : |k| = 1 } (x) { |0 i> }",
     UnknownLengthError, "length of variable 'i' cannot be inferred", 2),
    ("union widths, then a power below 1",
     "{ |0 0> } \\/ { |0> } (x) { |0> } ^ 0",
     LengthMismatchError, "union members: lengths 2 and 1 differ", 2),
    ("a power below 1, then union widths",
     "{ |0> } ^ 0 (x) { |0 0> } \\/ { |0> }",
     WellFormednessError, "tensor power 0 is below 1", 2),
    ("a != constant of another length beside a redundant summation",
     "{ sum[ |j| = 1 ] |i> : |i| = 1, i != 10 }",
     ConflictingLengthError, "variable 'i' has conflicting lengths 1 and 2", 2),
    ("a != variable of another length beside a redundant summation",
     "{ sum[ |j| = 1 ] |i k> : |i| = 1, |k| = 2, i != k }",
     ConflictingLengthError, "variable 'k' has conflicting lengths 1 and 2", 2),
    ("a scope error in assertion 1, a conflicting length in 2",
     "{ |0> : |k| = 1 } ;; { |i> : |i| = 1, |i| = 2 }",
     ScopeError, "variable 'k' is constrained but never appears in a pattern", 2),
    ("a conflicting length in assertion 1, a scope error in 2",
     "{ |i> : |i| = 1, |i| = 2 } ;; { |0> : |k| = 1 }",
     ConflictingLengthError, "variable 'i' has conflicting lengths 1 and 2", 2),
    ("over MAX_QUBITS, then a segment count",
     "{ |i> : |i| = 40000 } ^ 2 ;; { |0> } (x) { |0> }",
     LimitExceededError, "the spec spans 80000 qubits, over the limit of 65536", 4),
    ("a segment count, then over MAX_QUBITS",
     "{ |0> } (x) { |0> } ;; { |i> : |i| = 40000 } ^ 2",
     LimitExceededError, "the spec spans 80000 qubits, over the limit of 65536", 4),
    ("over MAX_QUBITS beside a scope error",
     "{ |i> : |i| = 70000 } (x) { |0> : |k| = 1 }",
     ScopeError, "variable 'k' is constrained but never appears in a pattern", 2),
    ("a scope error in a second ket",
     "{ |0>, |i> : |i| = 1 }",
     ScopeError, "variable 'i' is constrained but never appears in a pattern", 2),
    ("a scope error in a first ket, then an unknown length",
     "{ |i>, |0> : |i| = 1 } ;; { |j k> : |j| = 1 }",
     ScopeError, "variable 'i' is constrained but never appears in a pattern", 2),
    ("a redundant summation beside a length from another set",
     "{ |i> : |i| = 1 } (x) { sum[ |j| = 1 ] |i> }",
     RedundantSummationVarError,
     "summation variable 'j' does not occur in the ket pattern", 2),
    # A set is a scope of its own once canonical: a length the source took
    # from another set cannot be inferred there, and the error names the
    # fresh variable.
    ("a length from another set",
     "{ |i> : |i| = 1 } (x) { |i> }",
     UnknownLengthError, "length of variable 'i1' cannot be inferred", 2),
    ("a length from another set, through a !=",
     "{ |i> : |i| = 1 } (x) { sum[ i != j ] |i j> }",
     UnknownLengthError, "length of variable 'i1' cannot be inferred", 2),
    ("a length from another set, in every copy of a power",
     "{ |i> : |i| = 1 } (x) { |i> } ^ 3",
     UnknownLengthError, "length of variable 'i1' cannot be inferred", 2),
    ("two lengths from other sets: the first name in order",
     "{ |b> : |b| = 1 } (x) { |b> } (x) { |a> : |a| = 1 } (x) { |a> }",
     UnknownLengthError, "length of variable 'a1' cannot be inferred", 2),
    ("a length from another set, then a segment count",
     "{ |i> : |i| = 1 } (x) { |i> } ;; { |0> } (x) { |0> } (x) { |0> }",
     UnknownLengthError, "length of variable 'i1' cannot be inferred", 2),
    ("a length from another set, then a segment width",
     "{ |i> : |i| = 1 } (x) { |i> } ;; { |0> } (x) { |0 0> }",
     UnknownLengthError, "length of variable 'i1' cannot be inferred", 2),
    ("a segment count, then a length from another set",
     "{ |0> } (x) { |0> } ;; { |i> : |i| = 1 } (x) { |i> }",
     UnknownLengthError, "length of variable 'i1' cannot be inferred", 2),
    ("lengths from other sets in two assertions",
     "{ |i 0> : |i| = 1 } (x) { |i> } ;; { |j> : |j| = 1 } (x) { |j> }",
     UnknownLengthError, "length of variable 'i1' cannot be inferred", 2),
    # A sibling ket's width sizes the variable by position, so the length
    # is inferable and the alignment decides.
    ("a length by position, then a segment count",
     "{ |i> : |i| = 1 } (x) { |i>, |1> } ;; { |0> }",
     SegmentCountMismatchError, "assertions have 1 and 2 tensor segments", 3),
]


@pytest.mark.parametrize("source, error, message, code",
                         [row[1:] for row in FIRST_ERRORS],
                         ids=[row[0] for row in FIRST_ERRORS])
def test_the_first_of_two_faults_is_raised(source, error, message, code):
    with pytest.raises(LstaqError) as err:
        translate(parse_many(source))
    assert type(err.value) is error
    assert str(err.value) == message
    assert err.value.exit_code == code
