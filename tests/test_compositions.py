import pytest
from hypothesis import given, strategies as st

from qschur.applications import descent_pieri_K, labeled_chains
from qschur.compositions import (
    ChainStep,
    _chain_tables,
    _comp_of_mask,
    _mask_of_comp,
    _tally,
    _young_covers,
    apply_step,
    comp_of_set,
    compositions_of,
    covers,
    down_covers,
    interval_chains,
    is_contained,
    is_rev_contained,
    leq,
    partitions_of,
    refines,
    set_of,
    underlying_partition,
    weak_compositions,
)
from qschur.qsym import skew_qs_schur
from qschur.tableaux import chain_to_tableau

from oracles import brute_sct, chains_above, leq_by_covers

compositions = st.lists(st.integers(1, 5), max_size=5).map(tuple)


def comps_upto(d):
    return [a for n in range(d + 1) for a in compositions_of(n)]


def test_compositions_of_counts():
    assert list(compositions_of(0)) == [()]
    for n in range(1, 9):
        assert len(list(compositions_of(n))) == 2 ** (n - 1)


BAD_COUNTS = [2.0, -1, True, "2"]
COUNTED = {
    "partitions_of-n": lambda v: partitions_of(v),
    "partitions_of-max_part": lambda v: partitions_of(3, v),
    "weak_compositions-n": lambda v: weak_compositions(v, 2),
    "weak_compositions-length": lambda v: weak_compositions(2, v),
}


@pytest.mark.parametrize(
    "call, n",
    [pytest.param(compositions_of, v, id=str(v)) for v in BAD_COUNTS]
    + [
        pytest.param(call, v, id=f"{name}-{v}")
        for name, call in COUNTED.items()
        for v in BAD_COUNTS
    ],
)
def test_compositions_of_rejects_non_integers(call, n):
    # The check runs at the call, in front of the recursion, so a bad count
    # can neither yield nothing nor recurse without end.
    with pytest.raises(ValueError, match="is not a non-negative int"):
        list(call(n))


def test_partitions_of():
    assert set(partitions_of(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert set(partitions_of(5, max_part=2)) == {
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    }


def test_weak_compositions():
    assert set(weak_compositions(2, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert len(list(weak_compositions(4, 3))) == 15


def test_underlying_partition_drops_zeros():
    assert underlying_partition((4, 0, 3, 2, 1, 2)) == (4, 3, 2, 2, 1)
    assert underlying_partition(()) == ()


def test_set_of_golden():
    assert set_of((2, 3, 1, 4, 2)) == frozenset({2, 5, 6, 10})
    assert set_of(()) == frozenset()


@given(compositions)
def test_set_of_comp_of_set_inverse(alpha):
    assert comp_of_set(set_of(alpha), sum(alpha)) == alpha


@given(st.integers(0, 9), st.data())
def test_comp_of_set_set_of_inverse(n, data):
    subset = frozenset(data.draw(st.sets(st.integers(1, max(n - 1, 1)))) & set(range(1, n)))
    assert set_of(comp_of_set(subset, n)) == subset


def test_mask_decoder_is_a_bijection_onto_the_compositions():
    """A chain of n cells has a mask in [2^n, 2^(n+1)) whose bit n - 1 is
    set, since the last entry always ends its run; ``_comp_of_mask`` takes
    these 2^(n-1) masks one to one onto the compositions of n, the set bits
    below bit n - 1 giving ``set_of``, and ``_mask_of_comp`` inverts it.
    The chain walk keeps to them."""
    assert _mask_of_comp((2, 1)) == 0b1110
    for n in range(11):
        masks = [m for m in range(2**n, 2 ** (n + 1)) if n == 0 or m >> (n - 1) & 1]
        decoded = [_comp_of_mask(m) for m in masks]
        assert sorted(decoded) == sorted(compositions_of(n))
        assert [_mask_of_comp(tau) for tau in decoded] == masks
        for m, tau in zip(masks, decoded):
            assert set_of(tau) == {i + 1 for i in range(n - 1) if m >> i & 1}
    for levels in range(7):
        for table in _chain_tables((2, 1, 2), levels).values():
            for _, mask in table:
                assert mask.bit_length() == levels + 1
                assert levels == 0 or mask >> (levels - 1) & 1


def test_pruned_walk_keeps_the_chains_that_reach_its_ends():
    # Cut to the prefixes of some top masks, the walk is the whole walk
    # restricted to the chains that end at one of those masks, with every
    # composition left without chains dropped; neither walk lists an empty
    # table.
    for beta in comps_upto(4):
        for levels in range(1, 6):
            full = _chain_tables(beta, levels)
            assert all(full.values())
            masks = sorted({mask for table in full.values() for _, mask in table})
            for ends in (set(), set(masks[::2]), set(masks[1::3]), set(masks)):
                restricted = {
                    gamma: cut
                    for gamma, table in full.items()
                    if (cut := {k: n for k, n in table.items() if k[1] in ends})
                }
                pruned = _chain_tables(beta, levels, ends)
                assert all(pruned.values())
                assert pruned == restricted


def test_refines_golden():
    assert refines((4, 0, 3, 2, 1, 2), (7, 2, 3))
    assert not refines((2, 1), (1, 2))
    assert refines((2, 2), (4,))
    strong = [b for b in compositions_of(4) if refines(b, (2, 2))]
    assert len(strong) == 4


def test_covers_golden():
    above = covers((2, 3, 2))
    assert {g for g, _ in above} == {(1, 2, 3, 2), (3, 3, 2), (2, 4, 2)}
    steps = dict((g, s) for g, s in above)
    assert steps[(1, 2, 3, 2)].kind == "prepend-row-1"
    assert steps[(3, 3, 2)] == steps[(3, 3, 2)]._replace(row=1, column=3)
    assert steps[(2, 4, 2)] == steps[(2, 4, 2)]._replace(row=2, column=4)


def test_one_cover_per_distinct_part_size():
    for beta in comps_upto(6):
        ups = covers(beta)
        assert len(ups) == len(set(beta)) + 1


@given(compositions)
def test_cover_steps_apply(beta):
    for gamma, step in covers(beta):
        assert apply_step(beta, step) == gamma
        assert sum(gamma) == sum(beta) + 1


def test_down_covers_invert_covers():
    """``down_covers`` lists exactly the moves of ``covers`` that end at its
    argument, each once and with the same step."""
    expected = {gamma: set() for gamma in comps_upto(7)}
    for delta in comps_upto(6):
        for gamma, step in covers(delta):
            expected[gamma].add((delta, step))
    for gamma, moves in expected.items():
        listed = down_covers(gamma)
        assert len(set(listed)) == len(listed)
        assert set(listed) == moves


def test_order_matches_a_search_up_covers():
    """The closed form against a search up the covers, on every pair
    through weight 9."""
    comps = comps_upto(9)
    for gamma in comps:
        for beta in comps:
            assert leq(beta, gamma) == leq_by_covers(beta, gamma)


@pytest.mark.parametrize(
    "beta, gamma, expected",
    [
        # row 5 must grow from 2, but row 2 above it has length 2 for good,
        # and only the first row of a length may grow
        ((3, 2, 4, 1, 2, 2, 1), (3, 2, 4, 1, 3, 2, 1), False),
        # both rows start at 1; the top one grows first and stops at 2,
        # so the bottom one can never pass 2
        ((1, 1), (2, 3), False),
        # the bottom row starts shorter and would have to end longer
        ((2, 1), (2, 3), False),
        # of two rows of length 2 only the top one may grow
        ((2, 2), (2, 3), False),
        # the (1,1) -> (2,3) pair again, above a row that stays at 1
        ((1, 1, 1), (2, 3, 1), False),
        # grow the top row twice, then the bottom one once
        ((1, 1), (3, 2), True),
        # grow the top row of the two of length 2
        ((2, 2), (3, 2), True),
        # (1,2) -> (1,3) -> (2,3), then prepend a 1 and grow it
        ((1, 2), (2, 2, 3), True),
        # the top 1 grows to 3, then the next 1 is the first of its length
        ((1, 1, 1), (3, 2, 1), True),
    ],
)
def test_order_witnesses(beta, gamma, expected):
    assert leq(beta, gamma) == leq_by_covers(beta, gamma) == expected


def test_chain_descents_down_match_the_walk_up():
    """Every pair (beta, gamma) through weight 8: the walk up from beta
    reaches gamma exactly when beta <= gamma, with the tally that the
    bottom-up fill down from gamma behind ``skew_qs_schur`` gives."""
    for beta in comps_upto(8):
        for levels in range(9 - sum(beta)):
            up = _chain_tables(beta, levels)
            for gamma in compositions_of(sum(beta) + levels):
                assert (gamma in up) == leq_by_covers(beta, gamma)
                assert skew_qs_schur(gamma, beta).terms == _tally(up.get(gamma, {}))


def test_leq_reflexive_and_weight_monotone():
    for beta in comps_upto(5):
        assert leq(beta, beta)
        for gamma in comps_upto(5):
            if leq(beta, gamma):
                assert sum(beta) <= sum(gamma)
                assert is_rev_contained(beta, gamma)


def test_leq_chain_golden():
    chain = [(1, 3, 2), (1, 1, 3, 2), (1, 1, 3, 3), (2, 1, 3, 3), (2, 2, 3, 3)]
    for lower, upper in zip(chain, chain[1:]):
        assert upper in {g for g, _ in covers(lower)}
    assert leq(chain[0], chain[-1])


def test_rev_containment_does_not_imply_leq():
    # (1,1) sits inside (1,2) from the rear but no chain of covers reaches it:
    # the only part of size 1 that may grow is the topmost one
    assert is_rev_contained((1, 1), (1, 2))
    assert not leq((1, 1), (1, 2))


def test_not_a_lattice():
    pair = [(2, 2, 2), (2, 3, 2)]
    lower = [
        delta
        for delta in comps_upto(6)
        if all(leq(delta, p) for p in pair)
    ]
    maximal = {
        delta
        for delta in lower
        if not any(delta != other and leq(delta, other) for other in lower)
    }
    assert {(1, 2, 2), (1, 2, 1)} <= maximal
    assert len(maximal) >= 2


def test_interval_chains_golden():
    assert len(interval_chains((1,), (2, 1))) == 1
    (chain,) = interval_chains((1,), (2, 1))
    assert [s.kind for s in chain] == ["prepend-row-1", "extend-row"]


def test_interval_chains_match_brute_force_in_order():
    comps = comps_upto(7)
    for beta in comps:
        above = {}
        for levels in range(8 - sum(beta)):
            above.update(chains_above(beta, levels))
        for gamma in comps:
            if sum(gamma) < sum(beta):
                continue
            chains = interval_chains(beta, gamma)
            got = [tuple((s.row, s.column) for s in chain) for chain in chains]
            assert got == sorted(above.get(gamma, []))
            assert all(a < b for a, b in zip(got, got[1:]))
            assert all(
                (s.kind == "prepend-row-1") == (s.column == 1)
                for chain in chains
                for s in chain
            )


def test_young_covers_are_the_partitions_one_cell_up():
    def added(lam, bigger):
        r = next(r for r, part in enumerate(bigger) if r == len(lam) or part != lam[r])
        return ChainStep("extend-row", r + 1, bigger[r])

    for n in range(8):
        for lam in partitions_of(n):
            expected = [
                (bigger, added(lam, bigger))
                for bigger in partitions_of(n + 1)
                if is_contained(lam, bigger)
            ]
            expected.sort(key=lambda pair: (pair[1].row, pair[1].column))
            assert list(_young_covers(lam)) == expected


def test_covers_add_cells_in_distinct_columns():
    # the column-sequence replay of oracles.pack_by_replay relies on this
    shapes = [(covers, comp) for comp in comps_upto(7)]
    shapes += [(_young_covers, lam) for n in range(8) for lam in partitions_of(n)]
    for up, shape in shapes:
        columns = [step.column for _, step in up(shape)]
        assert len(set(columns)) == len(columns)


def test_apply_step_rejects_illegal_steps():
    illegal = [
        ((1,), ChainStep("grow", 1, 2)),  # unknown kind
        ((1,), ChainStep("prepend-row-1", 2, 1)),  # prepend not at (1, 1)
        ((1,), ChainStep("prepend-row-1", 1, 2)),
        ((1, 1), ChainStep("extend-row", 3, 2)),  # row out of range
        ((1,), ChainStep("extend-row", 0, 2)),
        ((2,), ChainStep("extend-row", 1, 2)),  # wrong column
        ((2,), ChainStep("extend-row", 1, 4)),
        ((1, 1), ChainStep("extend-row", 2, 2)),  # an earlier row has size 1
        ((2, 1, 2), ChainStep("extend-row", 3, 3)),
    ]
    for beta, step in illegal:
        with pytest.raises(ValueError):
            apply_step(beta, step)
    with pytest.raises(ValueError):
        chain_to_tableau((1, 1), (ChainStep("extend-row", 2, 2),))


def test_poset_functions_reject_non_compositions():
    step = ChainStep("extend-row", 1, 1)
    calls = [
        (leq, ((0, 1), (1, 1))),
        (leq, ((1,), (1, -2))),
        (covers, ((-1,),)),
        (covers, ((1, "2"),)),
        (down_covers, ((2, 0),)),
        (apply_step, ((0, 1), step)),
        (interval_chains, ((0, 1), (1, 1))),
        (interval_chains, ((1,), (2, 0))),
        (labeled_chains, ((1, 1), (0, 1))),
        (descent_pieri_K, ((2,), (0, 1))),
        (chain_to_tableau, ((0, "a"), ())),
        # a list is not a composition, even with positive parts
        (leq, ([1], [2])),
        (leq, ((1,), [2])),
        (covers, ([1, 1],)),
        (down_covers, ([2],)),
        (apply_step, ([1], step)),
        (interval_chains, ([1], [2])),
        (interval_chains, ((1,), [1, 1])),
    ]
    for f, args in calls:
        with pytest.raises(ValueError, match="is not a composition"):
            f(*args)


def test_interval_chains_ascend():
    for gamma in comps_upto(5):
        for beta in comps_upto(sum(gamma)):
            for chain in interval_chains(beta, gamma):
                current = beta
                for step in chain:
                    current = apply_step(current, step)
                assert current == gamma


def test_chain_counts_match_standard_fillings():
    for gamma in comps_upto(5):
        for beta in comps_upto(sum(gamma)):
            if not is_rev_contained(beta, gamma):
                assert interval_chains(beta, gamma) == ()
                continue
            assert len(interval_chains(beta, gamma)) == len(brute_sct(gamma, beta))


def test_empty_interval():
    assert interval_chains((), ()) == ((),)
    assert leq((), (1, 2))
