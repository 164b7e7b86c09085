"""Seeded input generators for the three benchmark workloads.

Everything here is pure text generation: lstaq only ever receives the
strings, through ``parse`` or ``parse_many``.  The same seed always gives
the same texts, byte for byte.

* :func:`family_sources` freezes the five parametric families as the
  ``lstaq bench`` command generated them when the benchmark was defined, so
  an edit to the command line front end cannot change the workload.
* :func:`constraint_graph` writes a set of 1-bit variables tied together
  by ``!=`` constraints along a chain, a cycle or a star.
* :func:`random_spec` draws a small random specification in the style of
  the acceptance suite's randomized soundness sweep, with symbolic
  amplitudes and ``bigU`` constraints.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

FAMILIES = ("bv", "ghz", "grover", "groveriter", "mctoffoli")
SHAPES = ("chain", "cycle", "star")


def family_sources(family: str, n: int) -> list[tuple[str, str, bool]]:
    """Pre/post sources of one family at size ``n``: (pre, post, joint).

    ``joint`` says whether pre and post are translated as one job; the
    ``ghz`` sides differ in qubit count, so they are translated apart.
    """
    if family == "bv":
        return [(f"{{ |s 0^{n} 0> : |s| = {n} }}",
                 f"{{ |s s 0> : |s| = {n} }}", True)]
    if family == "ghz":
        return [(f"{{ |i> : |i| = {n} }}",
                 f"{{ 1/sqrt2 |0 i> + 1/sqrt2 |1 ~i>,"
                 f" 1/sqrt2 |0 i> - 1/sqrt2 |1 ~i> : |i| = {n} }}", False)]
    if family == "grover":
        return [(f"{{ |s 0^{n} 0^{n - 2} 0> : |s| = {n} }}",
                 f"bigU[ im(ah) = 0 && |ah|^2 > 7/8 ]"
                 f"{{ ah |s s 0^{n - 2} 1> +"
                 f" al sum[ i != s ] |s i 0^{n - 2} 1> : |s| = {n} }}", True)]
    if family == "groveriter":
        body = (f"{{ AH |s s 0^{n - 2} 1> +"
                f" AL sum[ i != s ] |s i 0^{n - 2} 1> : |s| = {n} }}")
        pre = ("bigU[ im(ah) = 0 && re(ah) > 0 && im(al) = 0 &&"
               " re(al) > 0 && 7 * re(al) > re(ah) ]"
               + body.replace("AH", "ah").replace("AL", "al"))
        post = ("bigU[ im(ahp) = 0 && im(alp) = 0 && |ahp|^2 > |ah|^2 ]"
                + body.replace("AH", "ahp").replace("AL", "alp"))
        return [(pre, post, True)]
    if family == "mctoffoli":
        ones = "1" * n
        jobs = []
        for t in (0, 1):
            keep = f"{{ |i 0^{n - 1} {t}> : i != {ones}, |i| = {n} }}"
            jobs.append((keep, keep, True))
        for t in (0, 1):
            jobs.append((f"{{ |{ones} 0^{n - 1} {t}> }}",
                         f"{{ |{ones} 0^{n - 1} {1 - t}> }}", True))
        return jobs
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Constraint graphs (the `cases` workload).
# ---------------------------------------------------------------------------


def graph_edges(shape: str, k: int, r: int) -> list[tuple[int, int]]:
    """Edges of a chain, cycle or star over ``k`` nodes, turned by ``r``.

    The chain and cycle visit the nodes from ``r`` onwards; the star's
    centre is node ``r``.
    """
    order = [(r + i) % k for i in range(k)]
    if shape == "chain":
        return list(zip(order, order[1:]))
    if shape == "cycle":
        return list(zip(order, order[1:] + order[:1]))
    if shape == "star":
        return [(r, x) for x in order[1:]]
    raise ValueError(f"unknown shape {shape!r}")


def constraint_graph(shape: str, k: int, r: int) -> str:
    """One set over ``k`` 1-bit variables, one ``!=`` per graph edge."""
    names = [f"x{i}" for i in range(k)]
    cons = [f"|{v}| = 1" for v in names]
    cons += [f"{names[a]} != {names[b]}" for a, b in graph_edges(shape, k, r)]
    return f"{{ |{' '.join(names)}> : {', '.join(cons)} }}"


def graph_catalogue(k: int) -> list[str]:
    """Every graph text the `cases` generator can draw at ``k`` nodes."""
    return [constraint_graph(shape, k, r)
            for shape in SHAPES for r in range(k)]


def draw_graph_pair(rng: random.Random, k: int) -> tuple[str, str]:
    """A seeded pre/post pair of graphs over the same ``k`` qubits."""
    pre = constraint_graph(rng.choice(SHAPES), k, rng.randrange(k))
    post = constraint_graph(rng.choice(SHAPES), k, rng.randrange(k))
    return pre, post


# ---------------------------------------------------------------------------
# Random specifications (the `verify` workload).
# ---------------------------------------------------------------------------

AMP_POOL = ("1", "1/sqrt2", "i/sqrt2", "(1+i)/2", "1/2", "a", "b", "c")
SYMBOLS = ("a", "b", "c")
CONSTANTS = tuple(a for a in AMP_POOL if a not in SYMBOLS)
FORMULAS = ("im({v}) = 0", "re({v}) > 0", "|{v}|^2 > 1/4", "|{v}|^2 < 2")
# Bits of outer variables per spec, which bounds the members it denotes.
OUTER_BITS = 3


class Form(NamedTuple):
    """The structure of a random spec, fixed by the caller rather than drawn."""

    segments: int      # tensor segments, 1 or 2
    alternatives: int  # sets joined by \\/ in each segment
    members: int       # comma-separated kets in each set
    symbolic: bool     # whether amplitudes may be the symbols a, b, c


FORMS = tuple(Form(*f) for f in itertools.product((1, 2), (1, 2), (1, 2),
                                                   (False, True)))


def _alternative(rng: random.Random, widths: list[int], fresh,
                 outer_bits: int, amps: set[str], form: Form) -> str:
    """One set ``{ term + term, ... : predicate }`` over a slot grid.

    All alternatives of a segment share one grid, and every predicate
    variable must occur in every comma-separated member, so outer
    variables are minted in the first member only and placed again in the
    others.  At most ``outer_bits`` bits go to outer variables, which
    bounds the number of members a set denotes.
    """
    predicate: list[str] = []
    outer: list[tuple[str, int]] = []
    constrained: set[str] = set()
    diracs = []
    pool = AMP_POOL if form.symbolic else CONSTANTS
    for d in range(form.members):
        terms = []
        for t in range(rng.randint(1, 2)):
            forced: dict[int, str] = {}
            if d and t == 0:
                free = list(range(len(widths)))
                for v, w in outer:
                    k = rng.choice([k for k in free if widths[k] == w])
                    free.remove(k)
                    forced[k] = v
            atoms: list[str] = []
            mine: list[tuple[str, int]] = []
            sums: list[str] = []
            for k, w in enumerate(widths):
                if k in forced:
                    atoms.append(forced[k])
                    continue
                roll = rng.random()
                same = [v for v, vw in mine if vw == w]
                if roll < 0.2:
                    atoms.append("".join(rng.choice("01") for _ in range(w)))
                elif roll < 0.35 and same:
                    v = rng.choice(same)
                    atoms.append(f"~{v}" if rng.random() < 0.5 else v)
                elif roll < 0.45 and any(vw == w for _v, vw in outer):
                    atoms.append(rng.choice([v for v, vw in outer if vw == w]))
                else:
                    v = fresh()
                    atoms.append(v)
                    mine.append((v, w))
                    used = sum(ow for _o, ow in outer)
                    if (d == t == 0 and used + w <= outer_bits
                            and rng.random() < 0.4):
                        outer.append((v, w))
                        predicate.append(f"|{v}| = {w}")
                    else:
                        sums.append(f"|{v}| = {w}")
            inner = [(v, w) for v, w in mine if (v, w) not in outer]
            if inner and rng.random() < 0.35:
                v, vw = rng.choice(inner)
                if v not in constrained:
                    constrained.add(v)
                    bits = "".join(rng.choice("01") for _ in range(vw))
                    op = "=" if rng.random() < 0.3 else "!="
                    sums.append(f"{v} {op} {bits}")
            if inner and outer and rng.random() < 0.35:
                v, vw = rng.choice(inner)
                mates = [o for o, ow in outer if ow == vw and o != v]
                if mates:
                    sums.append(f"{v} != {rng.choice(mates)}")
            amp = rng.choice(pool)
            amps.add(amp)
            body = f"sum[ {', '.join(sums)} ] " if sums else ""
            lead = "" if amp == "1" and rng.random() < 0.8 else f"{amp} "
            terms.append(f"{lead}{body}|{' '.join(atoms)}>")
        joiner = " - " if len(terms) > 1 and rng.random() < 0.25 else " + "
        diracs.append(joiner.join(terms))
    for v, w in outer:
        if v not in constrained and rng.random() < 0.25:
            constrained.add(v)
            bits = "".join(rng.choice("01") for _ in range(w))
            predicate.append(f"{v} != {bits}")
    body = ", ".join(diracs)
    if predicate:
        return f"{{ {body} : {', '.join(predicate)} }}"
    return f"{{ {body} }}"


def random_spec(rng: random.Random, qubits: int, form: Form) -> str:
    """A random assertion over exactly ``qubits`` qubits with the given form.

    Segments may be squares; slots have width 1 or 2; atoms are constant,
    summed, outer, repeated or complemented; amplitudes come from a pool
    that includes the symbols ``a``, ``b``, ``c`` when the form is
    symbolic.  When a symbol occurs, a ``bigU`` formula over it is added
    half of the time.
    """
    counter = itertools.count()

    def fresh() -> str:
        return f"v{next(counter)}"

    if qubits >= 2 and form.segments == 2:
        first = rng.randint(1, qubits - 1)
        parts = [first, qubits - first]
    else:
        parts = [qubits]
    segments = []
    amps: set[str] = set()
    bits_left = OUTER_BITS
    for total in parts:
        power = 2 if total % 2 == 0 and rng.random() < 0.2 else 1
        width = total // power
        widths, left = [], width
        while left:
            w = min(left, rng.randint(1, 2))
            widths.append(w)
            left -= w
        share = bits_left // power
        alts = " \\/ ".join(
            _alternative(rng, widths, fresh, share, amps, form)
            for _ in range(form.alternatives))
        bits_left = max(0, bits_left - share * power)
        segments.append(f"{alts} ^ {power}" if power == 2 else alts)
    text = " (x) ".join(segments)
    symbols = [s for s in SYMBOLS if s in amps]
    if symbols and rng.random() < 0.5:
        v = rng.choice(symbols)
        formula = " && ".join(
            f.format(v=v) for f in rng.sample(FORMULAS, rng.randint(1, 2)))
        text = f"bigU[ {formula} ] {text}"
    return text
