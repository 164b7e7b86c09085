"""A digest of an automaton that does not change when states are renamed.

It hashes the same description as the test suite's ``canonical_form``: a
structural signature for every state (the multiset of its outgoing
transitions, with successor states replaced by their own signatures),
then the root's signature and the multiset of all transitions written
over signatures.  Signatures are hashed bottom-up rather than nested, so
the digest stays linear in the automaton's size where the nested tuples
would unfold shared subtrees.
"""

from __future__ import annotations

import hashlib


def _h(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _state_signatures(a) -> dict[int, str]:
    """Signature hash of every state; automata are acyclic by level."""
    by_top: dict[int, list] = {}
    for t in a.internal:
        by_top.setdefault(t.top, []).append(t)
    for t in a.leaves:
        by_top.setdefault(t.top, []).append(t)
    render = a.semiring.render
    sigs: dict[int, str] = {}
    for q in a.states:
        stack = [q]
        while stack:
            s = stack[-1]
            if s in sigs:
                stack.pop()
                continue
            pending = [c for t in by_top.get(s, ()) if hasattr(t, "left")
                       for c in (t.left, t.right) if c not in sigs]
            if pending:
                stack.extend(pending)
                continue
            parts = []
            for t in by_top.get(s, ()):
                if hasattr(t, "left"):
                    parts.append(("i", tuple(sorted(t.choices)),
                                  sigs[t.left], sigs[t.right]))
                else:
                    parts.append(("l", tuple(sorted(t.choices)),
                                  render(t.amplitude)))
            sigs[s] = _h(tuple(sorted(parts)))
            stack.pop()
    return sigs


def digest(a) -> str:
    """Hex digest equal for two automata exactly when they are equal up to
    state renaming (barring hash collisions)."""
    sig = _state_signatures(a)
    render = a.semiring.render
    transitions = [(sig[t.top], tuple(sorted(t.choices)), "i",
                    sig[t.left], sig[t.right]) for t in a.internal]
    transitions += [(sig[t.top], tuple(sorted(t.choices)), "l",
                     render(t.amplitude)) for t in a.leaves]
    return _h((sig[a.root], tuple(sorted(transitions))))
