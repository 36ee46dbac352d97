"""Compositions, the cover order L_C on them, and Young's lattice beside it.

A composition is a tuple of positive integers, a weak composition may
contain zeros, and a partition is a weakly decreasing composition.  The
empty composition is ``()``.

The cover order on compositions ("grow by one cell") has two upward moves
from ``beta``:

* prepend a new part 1 at the front, or
* for each distinct part size ``k`` appearing in ``beta``, increment the
  *first* (leftmost) part of size ``k`` to ``k + 1``.

``_up_cells`` is the one statement of this rule, and ``_down_cells`` of
its inverse: each lists the covers with the (row, column) of the cell
moved.  The chain walks read these cells; :func:`covers`,
:func:`down_covers` and the code that records chains (every applied step
and every tableau grown from a chain) wrap each cell as a
:class:`ChainStep`.  The order itself has a closed form, as containment
does in Young's lattice: ``_leq`` asks that ``beta`` fit bottom-aligned in
``gamma`` with no row growing past a row above it that started at least as
long, and both :func:`leq` and :func:`interval_chains` use it, so no
function here keeps a cache.  The public poset functions raise
``ValueError`` on an argument that is not a composition.

Beside it sits ``_young_covers``, the cover rule of Young's lattice, to
which L_C is analogous; both list covers by ascending (row, column) of the
added cell, at most one per column.  Saturated chains of either order encode
standard fillings, and one depth-first walk, ``_chains``, lists them.
Chains of L_C are counted by descent composition without listing them,
in one table per composition: its chains down to a fixed inner shape by
(column of the first cell removed, descent set), the set an int mask.
Only ``_extend_chains``, the descent rule, builds tables: ``_chain_tables``
pushes them up the up cells for products, cut at each level to the chains
that can still end at a mask the product reads and to the compositions
that still hold one, and ``qsym`` lists the down cells below an outer shape
and fills their tables bottom-up, into one store per inner shape, for
skews and the S-basis coproduct.  A mask becomes a composition
(``_comp_of_mask``) only where a tally leaves the walk, and a composition a
mask (``_mask_of_comp``) where ``qsym`` changes basis from L to S on masks.
``_levels`` lists the compositions k moves away.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

Composition = tuple[int, ...]


class ChainStep(NamedTuple):
    """A single cover step, recorded as the cell added to the diagram.

    ``row`` and ``column`` locate the new cell in the *larger* composition
    (English convention, 1-based).  ``kind`` is ``"prepend-row-1"`` for the
    new-top-row move (always row 1, column 1) and ``"extend-row"`` for the
    increment move (column equals the new part size).
    """

    kind: str
    row: int
    column: int


# The new-top-row step: the only cover move that adds cell (1, 1).
PREPEND = ChainStep("prepend-row-1", 1, 1)


def is_weak_composition(alpha: tuple[int, ...]) -> bool:
    for a in alpha:
        if not (type(a) is int and a >= 0):
            return False
    return True


def is_composition(alpha: tuple[int, ...]) -> bool:
    # A plain loop: every public poset call runs this, and a generator
    # inside all() costs about twice as much on short tuples.  ``type(a) is
    # int`` rejects bools, which the memos would key as equal to 0 and 1.
    for a in alpha:
        if not (type(a) is int and a >= 1):
            return False
    return True


def require_composition(*alphas: tuple[int, ...]) -> None:
    """Raise ``ValueError`` naming the first argument that is not a
    composition, a tuple of positive ints (a list is rejected too, since the
    memoized functions built on the poset key on their arguments)."""
    for alpha in alphas:
        if not (isinstance(alpha, tuple) and is_composition(alpha)):
            raise ValueError(f"{alpha} is not a composition")


def is_partition(alpha: tuple[int, ...]) -> bool:
    return is_composition(alpha) and all(
        alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1)
    )


def set_of(alpha: Composition) -> frozenset[int]:
    """Partial sums of ``alpha`` except the total, as a subset of [n-1]."""
    sums = itertools.accumulate(alpha)
    total = sum(alpha)
    return frozenset(s for s in sums if s != total)


def comp_of_set(subset: frozenset[int] | set[int], n: int) -> Composition:
    """The composition of ``n`` whose partial-sum set is ``subset``."""
    if n == 0:
        if subset:
            raise ValueError("nonempty subset for n=0")
        return ()
    cuts = sorted(subset)
    if cuts and (cuts[0] < 1 or cuts[-1] > n - 1):
        raise ValueError(f"subset {cuts} not contained in [1, {n - 1}]")
    points = [0, *cuts, n]
    return tuple(points[i + 1] - points[i] for i in range(len(points) - 1))


def _comp_of_mask(mask: int) -> Composition:
    """The descent composition of a chain table's mask (``_extend_chains``),
    the inverse of ``_mask_of_comp``.

    A chain of n cells has a mask of n + 1 bits: the sentinel 1 on top, and
    below it bit i - 1 set when entry i of its filling ends a run, that is
    when i is a descent or i = n.  So ``set_of(tau)`` is the i < n whose bit
    i - 1 is set, and the masks of chains of n cells, one per composition
    of n, are those of [2^n, 2^(n+1)) with bit n - 1 set.  The masks name
    compositions in ``qsym``'s change of basis from L to S too, where the
    smallest mask of a degree leads the peel (see ``_mask_of_comp``).
    """
    parts = []
    run = 0
    while mask > 1:
        run += 1
        if mask & 1:
            parts.append(run)
            run = 0
        mask >>= 1
    return tuple(parts)


def _mask_of_comp(tau: Composition) -> int:
    """The mask of ``tau`` (``_comp_of_mask``): each part p, taken from the
    last one, shifts in p bits and sets the top one of them, so the mask
    reads, from the sentinel down, 1 0^(p - 1) for each part from the last.

    Within one degree, descending mask order is the ascending order of
    ``qsym._l_to_s_key`` (degree, then the reversed composition in
    lexicographic order).  Take tau and rho of n, and let their reversals first differ at
    the part q of tau and the part r of rho, with q < r, so that tau comes
    first in the key.  The shared last parts give both masks the same top
    bits, and below them each mask sets the bit that opens its part.  Since
    r fits in what the shared parts leave of n, q does not use it all up:
    another part of tau comes next in the reversal, and its bit sits q
    places below the opening bit, where rho's longer part still has a zero.
    So tau has the larger mask: a longer part means the next set bit is
    lower, so the mask is smaller.  And a mask of degree n has n + 1 bits,
    so every mask of degree n + 1 exceeds every mask of degree n.
    """
    mask = 1
    for p in reversed(tau):
        mask = mask << p | 1 << (p - 1)
    return mask


def refines(beta: tuple[int, ...], alpha: Composition) -> bool:
    """True if weak composition ``beta`` refines ``alpha``.

    Each part of ``alpha`` must be the sum of a consecutive run of parts
    of ``beta``, the runs covering ``beta`` in order.  Equivalently the
    partial sums of ``alpha`` all occur, in order, among those of ``beta``.
    Zero parts of ``beta`` refine into whichever run they sit in.
    """
    targets = list(itertools.accumulate(alpha))
    acc = 0
    pos = 0
    for b in beta:
        acc += b
        if pos == len(targets):
            if b:
                return False  # nonzero part left over past the last run
            continue
        if acc > targets[pos]:
            return False
        if acc == targets[pos]:
            pos += 1
    return pos == len(targets)


def reverse(gamma: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(reversed(gamma))


def strong(gamma: tuple[int, ...]) -> Composition:
    """Drop zero parts of a weak composition."""
    return tuple(p for p in gamma if p)


def underlying_partition(gamma: tuple[int, ...]) -> Composition:
    """Parts of ``gamma`` sorted into weakly decreasing order, zeros dropped."""
    return tuple(sorted(strong(gamma), reverse=True))


def is_contained(alpha: Composition, beta: Composition) -> bool:
    """Front-aligned containment: part i of ``alpha`` fits in part i of ``beta``."""
    return len(alpha) <= len(beta) and all(a <= b for a, b in zip(alpha, beta))


def is_rev_contained(alpha: Composition, beta: Composition) -> bool:
    """Containment of the reversals: ``alpha`` fits bottom-aligned in ``beta``."""
    return is_contained(reverse(alpha), reverse(beta))


def covers(beta: Composition) -> tuple[tuple[Composition, ChainStep], ...]:
    """All compositions covering ``beta``, with the cell each move adds.

    The prepend move comes first, then the increment moves by row, so the
    added cells ascend in (row, column).  The increment move targets the
    first part of each distinct size, so the number of covers is
    1 + (number of distinct part sizes).
    """
    require_composition(beta)
    return _covers(beta)


def _covers(beta: Composition) -> tuple[tuple[Composition, ChainStep], ...]:
    """:func:`covers` without the argument check, for the code that records
    chains: ``_up_cells`` with each cell wrapped as a :class:`ChainStep`."""
    return tuple((gamma, _step(row, column)) for gamma, row, column in _up_cells(beta))


def _up_cells(beta: Composition) -> list[tuple[Composition, int, int]]:
    """The one statement of the up cover rule: each cover of ``beta`` with
    the (row, column) of the cell it adds, in :func:`covers` order.  The
    walks that tally chains read these cells and build no step."""
    out = [((1,) + beta, 1, 1)]
    seen: set[int] = set()
    for r, part in enumerate(beta):
        if part not in seen:
            seen.add(part)
            out.append((beta[:r] + (part + 1,) + beta[r + 1 :], r + 1, part + 1))
    return out


def _step(row: int, column: int) -> ChainStep:
    """The step of an L_C cover cell: only the prepend move adds column 1."""
    return PREPEND if column == 1 else ChainStep("extend-row", row, column)


def _young_covers(lam: Composition) -> tuple[tuple[Composition, ChainStep], ...]:
    """:func:`covers` for Young's lattice: a row grows when no row above has
    its length, and a new bottom row is an empty row extended to column 1."""
    grown = [
        (lam[:r] + (part + 1,) + lam[r + 1 :], ChainStep("extend-row", r + 1, part + 1))
        for r, part in enumerate(lam)
        if r == 0 or lam[r - 1] > part
    ]
    grown.append((lam + (1,), ChainStep("extend-row", len(lam) + 1, 1)))
    return tuple(grown)


def down_covers(gamma: Composition) -> tuple[tuple[Composition, ChainStep], ...]:
    """All compositions covered by ``gamma``, with the cell removed.

    Inverse of :func:`covers`: drop the top row if it has size 1, or
    shrink a part by one provided no *earlier* row has the shrunken size
    (otherwise re-growing would target that earlier row instead).
    """
    require_composition(gamma)
    return _down_covers(gamma)


def _down_covers(gamma: Composition) -> tuple[tuple[Composition, ChainStep], ...]:
    """:func:`down_covers` without the argument check: ``_down_cells`` with
    each cell wrapped as a :class:`ChainStep`."""
    return tuple((beta, _step(row, column)) for beta, row, column in _down_cells(gamma))


def _down_cells(gamma: Composition) -> list[tuple[Composition, int, int]]:
    """The one statement of the down cover rule: each composition ``gamma``
    covers, with the (row, column) of the cell removed, in
    :func:`down_covers` order."""
    out = []
    if gamma and gamma[0] == 1:
        out.append((gamma[1:], 1, 1))
    seen: set[int] = set()  # the sizes of the rows above row r
    for r, part in enumerate(gamma):
        if part >= 2 and part - 1 not in seen:
            out.append((gamma[:r] + (part - 1,) + gamma[r + 1 :], r + 1, part))
        seen.add(part)
    return out


def leq(beta: Composition, gamma: Composition) -> bool:
    """Order relation generated by :func:`covers` (reflexive closure),
    decided by the closed form ``_leq`` without walking the poset."""
    require_composition(beta, gamma)
    return _leq(beta, gamma)


def _leq(beta: Composition, gamma: Composition) -> bool:
    """Whether ``beta <= gamma``, for compositions already checked.

    Row j of ``beta`` grows into row j of ``top``, the bottom ``len(beta)``
    rows of ``gamma``.  Then ``beta <= gamma`` exactly when ``beta`` fits
    bottom-aligned in ``gamma`` and there are no i < j with
    ``beta[j] <= beta[i]`` and ``top[j] > top[i]``.

    Necessary: rows only grow, new rows appear only on top, and a cover
    grows only the first row of a given length.  So if row j lies below
    row i and starts no longer, j can step up from length q only while i
    is not at q, and by induction j never becomes longer than i.

    Sufficient, by induction on ``|gamma| - |beta|``: if some row is
    short of its target, grow the topmost row of the largest current
    length among the short rows.  A row above it of that length would be
    finished while it is not, which the second condition forbids, so the
    step is a cover; and any row below it at the new length is longer than
    the old maximum, hence finished, so both conditions still hold.  If
    no row is short, prepend a 1.
    """
    top = gamma[len(gamma) - len(beta) :]
    return is_rev_contained(beta, gamma) and not any(
        b_j <= b_i and t_j > t_i
        for (b_i, t_i), (b_j, t_j) in itertools.combinations(zip(beta, top), 2)
    )


def interval_chains(
    beta: Composition, gamma: Composition
) -> tuple[tuple[ChainStep, ...], ...]:
    """All saturated chains from ``beta`` up to ``gamma``.

    Each chain is the sequence of added cells, in the order the diagram is
    grown.  A depth-first walk up :func:`covers` keeps a cover only when it
    lies below ``gamma`` by the closed form ``_leq``; each composition's
    covers are filtered once per call, however many chains pass through
    it.  Since the covers of a composition come in ascending (row, column)
    order, the chains come out sorted lexicographically by their (row,
    column) step sequences.  Nothing outlives the call: the chains are
    built afresh every time.
    """
    require_composition(beta, gamma)
    kept: dict = {}  # composition -> its covers below gamma

    def up(comp: Composition):
        if comp not in kept:
            kept[comp] = [c for c in _covers(comp) if _leq(c[0], gamma)]
        return kept[comp]

    return _chains(beta, gamma, up)


def _chains(beta: Composition, gamma: Composition, up) -> tuple[tuple[ChainStep, ...], ...]:
    """Every chain from ``beta`` to ``gamma`` along ``up(comp)``, the covers
    kept inside the interval, depth first in the order ``up`` lists them."""
    chains: list[tuple[ChainStep, ...]] = []
    path: list[ChainStep] = []

    def walk(comp: Composition) -> None:
        if comp == gamma:
            chains.append(tuple(path))
            return
        for bigger, step in up(comp):
            path.append(step)
            walk(bigger)
            path.pop()

    walk(beta)
    return tuple(chains)


def _chain_tables(
    start: Composition, levels: int, ends=None
) -> dict[Composition, dict]:
    """The chain tables ``levels`` covers up from ``start``, on masks, for
    the products: the walk goes up the cover cells one level at a time and
    frees each level, a cover's table summing its children's, each
    lengthened by the cell the cover adds (``_extend_chains``).

    Given ``ends``, the masks a caller will read at the top level, the walk
    keeps only the chains that can still end at one of them.  A step shifts
    the mask up one bit and sets at most the new low bit, so no bit changes
    once set: after j of the levels, a chain can reach mask M only if its
    mask is ``M >> (levels - j)``, and each level is cut to those prefixes.
    A composition whose chains are all cut leaves the walk, so no table is
    empty and no emptied composition lists its up cells.
    """
    tables: dict = {start: {(math.inf, 1): 1}}
    for j in range(1, levels + 1):
        grown: dict = {}
        for comp, table in tables.items():
            for bigger, _, column in _up_cells(comp):
                _extend_chains(table, column, grown.setdefault(bigger, {}))
        if ends is not None:
            keep = {mask >> (levels - j) for mask in ends}
            grown = {
                comp: cut
                for comp, table in grown.items()
                if (cut := {key: n for key, n in table.items() if key[1] in keep})
            }
        tables = grown
    return tables


def _extend_chains(table: dict, column: int, into: dict) -> None:
    """Add to ``into`` the chains of ``table`` with one cell at ``column``
    removed before them: the one statement of the descent rule.

    A table counts the saturated chains from a composition down to a fixed
    inner shape, ``{(column of the first cell removed, mask): chains}``,
    where the mask is the chain's descent set (``_comp_of_mask``); the inner
    shape's own table is ``{(inf, 1): 1}``.  Read as a standard filling, a
    chain gives the cells it removes the entries 1, 2, ... in order, and i
    is a descent when i + 1 sits weakly right of i.  So the new cell, entry
    1, opens a run when the chain's first removal at column k has k >=
    ``column``, and otherwise lengthens its first run: the mask shifts up
    one bit and sets the low bit for a new run.
    """
    for (k, mask), n in table.items():
        key = (column, mask << 1 | 1) if k >= column else (column, mask << 1)
        into[key] = into.get(key, 0) + n


def _mask_sums(table: dict) -> dict[int, int]:
    """A chain table's chains counted by descent mask alone, the columns
    summed out: the fundamental expansion on masks that ``qsym``'s change of
    basis from L to S peels."""
    by_mask: dict = {}
    for (_, mask), n in table.items():
        by_mask[mask] = by_mask.get(mask, 0) + n
    return by_mask


def _tally(table: dict) -> dict[Composition, int]:
    """A chain table's chains counted by descent composition alone: the
    sums of ``_mask_sums``, decoded."""
    return {_comp_of_mask(mask): n for mask, n in _mask_sums(table).items()}


def _levels(start: Composition, depth: int, moves) -> list[list[Composition]]:
    """The compositions 0, 1, ..., ``depth`` steps of ``moves`` (``_up_cells``
    or ``_down_cells``) from ``start``, one list per level."""
    levels = [[start]]
    for _ in range(depth):
        levels.append(list(dict.fromkeys(c for comp in levels[-1] for c, _, _ in moves(comp))))
    return levels


def apply_step(beta: Composition, step: ChainStep) -> Composition:
    """The cover of ``beta`` that adds the cell of ``step``; raises
    ``ValueError`` when no cover of ``beta`` adds that cell."""
    require_composition(beta)
    for gamma, legal in _covers(beta):
        if legal == step:
            return gamma
    raise ValueError(f"step {step} is not a cover step of {beta}")


def canonical_key(alpha: Composition) -> tuple[int, int, Composition]:
    """Sort key for the canonical composition order: weight, length, lex."""
    return (sum(alpha), len(alpha), alpha)


def _require_count(*values: int) -> None:
    for v in values:
        if not (type(v) is int and v >= 0):
            raise ValueError(f"{v!r} is not a non-negative int")


def compositions_of(n: int) -> Iterator[Composition]:
    """All compositions of ``n`` in canonical order (length, then lex);
    raises ``ValueError`` when ``n`` is not a non-negative int."""
    _require_count(n)
    if n == 0:
        yield ()
        return
    for length in range(1, n + 1):
        for cuts in itertools.combinations(range(1, n), length - 1):
            yield comp_of_set(set(cuts), n)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Composition]:
    """All partitions of ``n`` with no part above ``max_part`` (default
    ``n``), largest first within the leading part; raises ``ValueError``
    when ``n`` or a given ``max_part`` is not a non-negative int."""
    max_part = n if max_part is None else max_part
    _require_count(n, max_part)
    return _partitions(n, max_part)


def _partitions(n: int, max_part: int) -> Iterator[Composition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def weak_compositions(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of ``n`` with exactly ``length`` parts; raises
    ``ValueError`` when either is not a non-negative int."""
    _require_count(n, length)
    return _weak_compositions(n, length)


def _weak_compositions(n: int, length: int) -> Iterator[tuple[int, ...]]:
    if length == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in _weak_compositions(n - first, length - 1):
            yield (first,) + rest
