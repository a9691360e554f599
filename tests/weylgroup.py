"""Weyl groups listed element by element, for the tests.

The library computes everything about a Weyl group by formula: the order
from the degrees, the Poincare polynomial by coset factorization, w_0 by the
greedy parabolic walk, and type-A conjugacy of involutions by fixed
roots.  The enumerators here are the brute-force oracles those formulas are
checked against: a breadth-first walk over permutations of a root list, the
ambient Weyl group of a root system, and the little Weyl group W_A acting on
the restricted roots.  Each checks the predicted group order against a cap
first and raises ``CapExceededError`` above it.

The library keeps a Weyl element as an int64 root permutation; ``Element``
is the tests' hashable tuple form of one, with its root system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from thetatool.restricted import RestrictedRootSystem, RestrictionError
from thetatool.rootsys import CapExceededError, RootSystem, weyl_order

from scalar import doubled_index, tuples


@dataclass(frozen=True)
class Element:
    """A Weyl element as a tuple permutation of the root list of ``rs``."""

    rs: RootSystem = field(repr=False, compare=False)
    perm: Tuple[int, ...]

    def __mul__(self, other: "Element") -> "Element":
        """(self * other)(v) = self(other(v))."""
        return Element(self.rs, tuple(self.perm[p] for p in other.perm))


def element(rs: RootSystem, perm: Sequence[int]) -> Element:
    """The tests' form of a library permutation (an int64 array)."""
    return Element(rs, tuple(int(p) for p in perm))


def identity(rs: RootSystem) -> Element:
    return Element(rs, tuple(range(len(rs.roots))))


def reflection(rs: RootSystem, root_index: int) -> Element:
    return element(rs, rs.reflections([root_index])[0])


def simple_reflection(rs: RootSystem, i: int) -> Element:
    return element(rs, rs.simple_reflections[i])


def permutation_bfs(
    gens: Sequence[Tuple[int, ...]], degree: int
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Every element of the group generated by the permutations ``gens`` of
    range(degree), once each, with its word length in the generators.

    Breadth-first over right multiplication (w -> w * g) with a hash set of
    permutations; each length level is yielded in sorted order.
    """
    ident = tuple(range(degree))
    seen = {ident}
    level = [ident]
    length = 0
    while level:
        for perm in level:
            yield perm, length
        nxt = set()
        for perm in level:
            for g in gens:
                q = tuple(perm[i] for i in g)
                if q not in seen:
                    nxt.add(q)
        seen |= nxt
        level = sorted(nxt)
        length += 1


def enumerate_weyl(rs: RootSystem, order_cap: int) -> Iterator[Tuple[Element, int]]:
    """Yield every Weyl element of rs exactly once with its length, BFS by
    length over right multiplication by simple reflections.  The predicted
    group order is checked against ``order_cap`` before any work happens.
    """
    predicted = weyl_order(rs.series, rs.rank)
    if predicted > order_cap:
        raise CapExceededError(predicted, order_cap)
    gens = [tuple(g) for g in rs.simple_reflections.tolist()]
    for perm, length in permutation_bfs(gens, len(rs.roots)):
        yield Element(rs, perm), length


def length(w: Element) -> int:
    """Number of positive roots sent to negative roots."""
    npos = w.rs.num_positive
    return sum(1 for i in range(npos) if w.perm[i] >= npos)


def inverse(w: Element) -> Element:
    inv = [0] * len(w.perm)
    for i, p in enumerate(w.perm):
        inv[p] = i
    return Element(w.rs, tuple(inv))


def index_of(rrs: RestrictedRootSystem, d: Sequence[int]) -> int:
    """Position of a doubled restricted root in ``rrs.doubled``, by a dict
    over the doubled tuples."""
    try:
        return doubled_index(rrs)[tuple(d)]
    except KeyError:
        raise RestrictionError(f"{tuple(d)} is not a restricted root")


def reflection_perm(rrs: RestrictedRootSystem, d: Sequence[int]) -> Tuple[int, ...]:
    """s_d as a permutation of the restricted root list, for d a tuple."""
    images, integral = rrs.kernel.reflections([index_of(rrs, d)])
    if not integral.all() or (images < 0).any():
        raise RestrictionError(f"restricted roots not closed under s_{tuple(d)}")
    return tuple(images[0].tolist())


class BabyWeylGroup:
    """W_A as permutations of the restricted-root vectors, with lengths
    relative to the basis pi (inversion counts on the reduced system)."""

    def __init__(self, rrs: RestrictedRootSystem):
        self.rrs = rrs
        self.generators = [reflection_perm(rrs, d) for d in tuples(rrs.pi)]
        self.order = rrs.weyl_order()
        self._reduced_pos_idx = rrs.reduced_indices.tolist()

    def length_of(self, perm: Tuple[int, ...]) -> int:
        npos = self.rrs.num_positive
        return sum(1 for i in self._reduced_pos_idx if perm[i] >= npos)

    def elements(self) -> Iterator[Tuple[Tuple[int, ...], int]]:
        """BFS enumeration (permutation, length), each element once,
        by right multiplication with the basis reflections."""
        return permutation_bfs(self.generators, len(self.rrs.doubled))

    def length_counts(self) -> List[int]:
        """Number of elements of each length, by direct enumeration."""
        counts: List[int] = []
        for _, l in self.elements():
            while len(counts) <= l:
                counts.append(0)
            counts[l] += 1
        return counts


def baby_weyl(rrs: RestrictedRootSystem, order_cap: int) -> BabyWeylGroup:
    """The little Weyl group W_A acting on the restricted roots.

    Raises CapExceededError when the predicted order (degree-product of
    the classified reduced type) exceeds the cap.
    """
    if rrs.r < 1:
        raise RestrictionError("trivial restricted system has no Weyl group")
    predicted = rrs.weyl_order()
    if predicted > order_cap:
        raise CapExceededError(predicted, order_cap)
    return BabyWeylGroup(rrs)


def poincare_from_enumeration(group: BabyWeylGroup) -> Tuple[int, ...]:
    """Length generating polynomial by brute-force element enumeration, as
    the library holds one: coefficients lowest degree first, the last one
    nonzero (it counts the longest elements)."""
    return tuple(group.length_counts())
