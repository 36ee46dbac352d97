import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qschur.compositions import compositions_of, leq, underlying_partition
from qschur.tableaux import (
    COMPOSITION,
    PARTITION,
    SkewShape,
    Tableau,
    column_word,
    content,
    descents,
    descent_composition,
    enumerate_semistandard,
    enumerate_standard,
    from_rows,
    skew_shape,
    straight,
    validate,
)
from qschur.transforms import (
    insert_ssct,
    insert_ssrt,
    insertion_tableau,
    is_rigid_row_pair,
    p_move,
    pack_columns,
    q_move,
    rect,
    restricted_move_components,
    rsk,
    standard_words_of_shape,
    unpack_columns,
)

from oracles import (
    c_class,
    insert_word,
    pack_by_replay,
    rect_by_ssct_insertion,
    unpack_by_replay,
    word_c_shape,
)


def comps_upto(d):
    return [a for n in range(d + 1) for a in compositions_of(n)]


def test_unpack_columns_golden():
    srt = from_rows(PARTITION, [[8, 6, 5, 4, 3], [7, 5, 4, 2], [4, 3, 2], [2, 2]])
    image = unpack_columns(srt)
    assert image.rows == ((2, 2, 2, 2), (4, 3), (7, 6, 5, 4, 3), (8, 5, 4))
    assert pack_columns(image) == srt


def test_pack_columns_sorts_each_column():
    t = from_rows(COMPOSITION, [[2, 2, 2, 2], [4, 3], [7, 6, 5, 4, 3], [8, 5, 4]])
    packed = pack_columns(t)
    for c in range(1, 6):
        ours = [row[c - 1] for row in packed.rows if len(row) >= c]
        reference = sorted(
            (row[c - 1] for row in t.rows if len(row) >= c), reverse=True
        )
        assert ours == reference


@given(st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple), st.integers(2, 3))
@settings(deadline=None)
def test_pack_unpack_inverse(alpha, m):
    for t in enumerate_semistandard(straight(COMPOSITION, alpha), m):
        assert unpack_columns(pack_columns(t)) == t


def fold_insert_ssrt(word):
    """P and Q by folding the public insert_ssrt letter by letter; Q is
    returned as its rows, read off the recorded cells."""
    p = Tableau(straight(PARTITION, ()), ())
    recorded = {}
    for step, letter in enumerate(word, start=1):
        p, cell = insert_ssrt(p, letter)
        recorded[cell] = step
    q_rows = tuple(
        tuple(recorded[(r, c)] for c in range(1, length + 1))
        for r, length in enumerate(p.shape.outer, start=1)
    )
    return p, q_rows


def test_insert_ssrt_agrees_with_reference():
    words = [w for n in range(7) for w in itertools.permutations(range(1, n + 1))]
    words += [w for n in range(7) for w in itertools.product(range(1, 5), repeat=n)]
    for word in words:
        assert insertion_tableau(word).rows == insert_word(word)
        p, q = rsk(word)
        folded_p, folded_q_rows = fold_insert_ssrt(word)
        assert p == folded_p == insertion_tableau(word)
        assert q.shape == p.shape and q.rows == folded_q_rows


def test_rsk_rejects_letters_that_are_not_positive():
    for word in [(0,), (2, 0, 1), (1, -3)]:
        with pytest.raises(ValueError):
            rsk(word)
        with pytest.raises(ValueError):
            insertion_tableau(word)


def test_rsk_recording_is_standard():
    for word in [(3, 4, 2, 1), (1, 2, 3), (2, 2, 1)]:
        p, q = rsk(word)
        assert p.shape == q.shape
        cells = [x for row in q.rows for x in row if x is not None]
        assert sorted(cells) == list(range(1, len(word) + 1))
        assert insertion_tableau(word) == p


def test_rsk_golden():
    p, _ = rsk((3, 4, 2, 1))
    assert p.rows == ((4, 2, 1), (3,))
    assert word_c_shape((3, 4, 2, 1)) == (3, 1)
    assert rsk((3, 4, 2, 1))[1] == rsk((2, 4, 3, 1))[1]


def test_column_word_inserts_to_itself():
    for lam in [(3, 2), (2, 2, 1), (4,)]:
        for t in enumerate_semistandard(straight(PARTITION, lam), 3):
            assert insertion_tableau(column_word(t)) == t


def test_insert_ssct_golden_append():
    t = from_rows(COMPOSITION, [[1], [4, 4], [6, 3]])
    assert insert_ssct(t, 2).rows == ((1,), (4, 4, 2), (6, 3))


def test_insert_ssct_golden_bump_chain():
    t = from_rows(COMPOSITION, [[1], [2, 2, 2, 1], [5, 5, 4], [7, 3]])
    assert insert_ssct(t, 5).rows == (
        (1,),
        (2, 2, 2, 1),
        (3,),
        (5, 5, 5),
        (7, 4),
    )


def test_insert_ssct_commutes_with_column_packing():
    for alpha in comps_upto(4):
        for t in enumerate_semistandard(straight(COMPOSITION, alpha), 3):
            for k in range(1, 5):
                packed, _ = insert_ssrt(pack_columns(t), k)
                assert insert_ssct(t, k) == unpack_columns(packed)


def test_rect_golden():
    t = from_rows(
        COMPOSITION,
        [[4, 3, 1], [8, 6], [None, None, 7, 5, 2], [None, None, None], [None, 9]],
    )
    assert t.shape.outer == (3, 2, 5, 3, 2)
    assert t.shape.inner == (2, 3, 1)
    r = rect(t)
    assert r == rect_by_ssct_insertion(t)
    assert r.rows == ((4, 3, 1), (8, 7, 5, 2), (9, 6))
    assert r.shape.outer == (3, 4, 2)
    assert descent_composition(t) == (1, 3, 2, 2, 1)
    assert descent_composition(r) == (1, 3, 2, 2, 1)


def test_rect_fixes_straight_tableaux():
    for alpha in comps_upto(5):
        for t in enumerate_standard(straight(COMPOSITION, alpha)):
            assert rect(t) == rect_by_ssct_insertion(t) == t


def test_rect_preserves_descents():
    shape = SkewShape(COMPOSITION, (1, 4, 3), (1, 2))
    for t in enumerate_standard(shape):
        r = rect(t)
        assert r == rect_by_ssct_insertion(t)
        assert descents(r) == descents(t)


def test_skew_pack_round_trip():
    shape = SkewShape(COMPOSITION, (1, 4, 3), (1, 2))
    for t in enumerate_semistandard(shape, 3):
        image = pack_columns(t)
        assert image.shape.kind == PARTITION
        assert image.shape.outer == underlying_partition(t.shape.outer)
        assert image.shape.inner == underlying_partition(t.shape.inner)
        assert unpack_columns(image, t.shape.inner) == t


def test_skew_unpack_rejects_non_composition_bases():
    filled = from_rows(PARTITION, [[None, None, 2], [None, 1]])
    empty = from_rows(PARTITION, [[None, None], [None]])
    assert unpack_columns(filled, (1, 2)).shape.inner == (1, 2)
    for t in (filled, empty):
        for beta in ([2, 1], (2, 0, 1), (0, 2, 1)):
            with pytest.raises(ValueError, match="is not a composition"):
                unpack_columns(t, beta)
        with pytest.raises(ValueError, match="does not have underlying partition"):
            unpack_columns(t, (3,))
        with pytest.raises(ValueError, match="does not have underlying partition"):
            unpack_columns(t)


def replay_fillings():
    """Every SSCT with |gamma| at most 5 at entry bound 4, with |gamma| = 6
    at entry bound 3, and every SCT with |gamma| = 7, over every beta below
    gamma, straight shapes included."""
    for gamma in comps_upto(7):
        n = sum(gamma)
        for beta in comps_upto(n):
            if not leq(beta, gamma):
                continue
            shape = skew_shape(COMPOSITION, gamma, beta)
            if n <= 5:
                yield from enumerate_semistandard(shape, 4)
            elif n == 6:
                yield from enumerate_semistandard(shape, 3)
            else:
                yield from enumerate_standard(shape)


def test_column_sort_agrees_with_replay():
    fillings = list(replay_fillings())
    assert len(fillings) == 4402
    for t in fillings:
        image = pack_columns(t)
        assert image == pack_by_replay(t)
        beta = t.shape.inner
        assert unpack_columns(image, beta) == unpack_by_replay(image, beta) == t


BAD_INTS = [True, False, 1.0, 2.5, "1", None]


@pytest.mark.parametrize("bad", BAD_INTS)
def test_integer_arguments_reject_other_types(bad):
    t = from_rows(COMPOSITION, [[1, 1]])
    rigid = from_rows(COMPOSITION, [[3], [8, 7, 5, 2], [9, 4, 1], [None, None, 10, 6]])
    calls = [
        lambda: p_move((2, 1, 3), bad),
        lambda: q_move((1, 2, 3), bad),
        lambda: is_rigid_row_pair(rigid, bad),
    ]
    if bad is not None:  # None is the default: no bound
        calls.append(lambda: content(t, bad))
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_p_move_changes_word_not_insertion():
    word = (3, 4, 2, 1)
    moved = p_move(word, 1)
    assert moved == (3, 2, 4, 1)
    assert insertion_tableau(moved) == insertion_tableau(word)
    with pytest.raises(ValueError):
        p_move(word, 2)


def test_q_move_golden():
    # exchanging 1 and 2 in 3421 requires 2 to sit between them; it does not
    with pytest.raises(ValueError):
        q_move((3, 4, 2, 1), 1)
    moved = q_move((2, 4, 3, 1), 2)
    assert sorted(moved) == [1, 2, 3, 4]
    assert rsk(moved)[1] == rsk((2, 4, 3, 1))[1]


def test_c_class_members_share_shape_and_q():
    word = (2, 4, 3, 1)
    cls = c_class(word)
    assert word in cls
    for other in cls:
        assert word_c_shape(other) == word_c_shape(word)
        assert rsk(other)[1] == rsk(word)[1]


def test_standard_words_of_shape():
    words = standard_words_of_shape((1, 2))
    assert words == {column_word(t) for t in enumerate_standard(straight(COMPOSITION, (1, 2)))}


def test_restricted_moves_connect_small_graphs():
    """Through weight 8 every graph is connected except that of (1, 3, 1, 3),
    whose 9 words fall into 2 components."""
    found = {alpha: restricted_move_components(alpha) for alpha in comps_upto(8)}
    assert found.pop((1, 3, 1, 3)) == (False, 2)
    assert set(found.values()) == {(True, 1)}


def test_rigid_row_pair_golden():
    loose = from_rows(
        COMPOSITION,
        [[1], [8, 7, 4, 3], [9, 5, 2], [None, None, 10, 6]],
    )
    tight = from_rows(
        COMPOSITION,
        [[3], [8, 7, 5, 2], [9, 4, 1], [None, None, 10, 6]],
    )
    assert validate(loose) == "SCT"
    assert validate(tight) == "SCT"
    assert not is_rigid_row_pair(loose, 2)
    assert is_rigid_row_pair(tight, 2)


