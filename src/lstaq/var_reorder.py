"""Slot dependency analysis and the tensor decomposition it licenses.

Two slots of a segment are dependent when a variable occupies both
(recurrence) or variables at the two slots are related by an inequality.
Independent groups of slots can be translated separately and recombined
with tensor products, which is where the exponential-to-linear cost drop
comes from.  The groups are the connected components of an undirected
graph over slot indices, merged across every aligned set of the segment
(all assertions of the job), so one common qubit order serves them all.

Projecting a slot-aligned set onto one component keeps only the pattern
atoms and constraints living there; each term's complex amplitude is
replaced by a tag so that only fragments of the same source term recombine
under the later tensor products.  Tag ``m`` stands for the ``m``-th term
of the source set, whose amplitude the final substitution reads back.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast as A
from .errors import InternalError
from .preprocess import SetP


@dataclass(frozen=True)
class DepEdge:
    a: int
    b: int
    kind: str  # "recurrence" | "inequality"

    def __post_init__(self) -> None:
        if self.a >= self.b:
            raise InternalError("dependency edge endpoints must be ordered")


@dataclass(frozen=True)
class SlotDependencyGraph:
    slots: tuple[int, ...]
    edges: tuple[DepEdge, ...]


SlotOrder = tuple[tuple[int, ...], ...]


def _var_slots(sp: SetP, slot_indices: tuple[int, ...]) -> dict[str, set[int]]:
    out: dict[str, set[int]] = {}
    for term in sp.terms:
        for atom, idx in zip(term.pattern, slot_indices):
            out.setdefault(atom.name, set()).add(idx)
    return out


def build_dependency_graph(setps, slot_indices: tuple[int, ...]) -> SlotDependencyGraph:
    """Merge recurrence and inequality edges from every set of the segment."""
    edges: list[DepEdge] = []
    seen: set[tuple[int, int]] = set()

    def add(i: int, j: int, kind: str) -> None:
        if i == j:
            return
        key = (min(i, j), max(i, j))
        if key not in seen:
            seen.add(key)
            edges.append(DepEdge(key[0], key[1], kind))

    for sp in setps:
        slots_of = _var_slots(sp, slot_indices)
        for var, occ in slots_of.items():
            for i in sorted(occ):
                for j in sorted(occ):
                    if i < j:
                        add(i, j, "recurrence")
        for c in sp.constraints():
            if isinstance(c, A.NeqVar):
                for i in sorted(slots_of.get(c.left, ())):
                    for j in sorted(slots_of.get(c.right, ())):
                        add(i, j, "inequality")
    return SlotDependencyGraph(slot_indices, tuple(edges))


def compute_slot_order(g: SlotDependencyGraph) -> SlotOrder:
    """Connected components, each ascending, ordered by minimum element."""
    uf = A.UnionFind()
    for e in g.edges:
        uf.union(e.a, e.b)
    groups: dict[int, list[int]] = {}
    for s in g.slots:
        groups.setdefault(uf.find(s), []).append(s)
    # Components are disjoint, so as tuples they sort by their smallest slot.
    return tuple(sorted(tuple(sorted(v)) for v in groups.values()))


@dataclass(frozen=True)
class VTerm:
    """A projected term: the tag stands in for the original amplitude."""

    tag: int
    sum_constraints: tuple[A.VarCon, ...]
    pattern: tuple[A.Atom, ...]


@dataclass(frozen=True)
class SetV:
    uid: int  # the source SetP's uid, naming the set in debug output
    slots: tuple[int, ...]
    terms: tuple[VTerm, ...]
    predicate: tuple[A.VarCon, ...]


def project_setP(sp: SetP, order: SlotOrder,
                 slot_indices: tuple[int, ...]) -> list[SetV]:
    """Split one aligned set into per-component tagged sets.

    Every constraint must survive in exactly one component: inequalities tie
    their slots into one component and all other constraint forms mention a
    single variable.
    """
    survivings: list[set[str]] = []
    positions_of: list[list[int]] = []
    for comp in order:
        positions = [slot_indices.index(s) for s in comp]
        positions_of.append(positions)
        survivings.append({
            term.pattern[p].name for term in sp.terms for p in positions
        })

    def home_count(c: A.VarCon) -> int:
        vs = set(A.varcon_vars(c))
        return sum(1 for sv in survivings if vs <= sv)

    for c in sp.constraints():
        if home_count(c) != 1:
            raise InternalError(
                f"constraint {c} does not land in exactly one slot component")

    out: list[SetV] = []
    for comp, positions, surviving in zip(order, positions_of, survivings):
        terms = tuple(
            VTerm(
                m,
                tuple(c for c in term.sum_constraints
                      if set(A.varcon_vars(c)) <= surviving),
                tuple(term.pattern[p] for p in positions),
            )
            for m, term in enumerate(sp.terms, start=1)
        )
        pred = tuple(c for c in sp.predicate
                     if set(A.varcon_vars(c)) <= surviving)
        out.append(SetV(sp.uid, comp, terms, pred))
    return out
