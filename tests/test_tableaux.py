import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from qschur.compositions import (
    compositions_of,
    interval_chains,
    is_contained,
    leq,
    partitions_of,
    refines,
    weak_compositions,
)
from qschur.tableaux import (
    COMPOSITION,
    PARTITION,
    SkewShape,
    Tableau,
    _contents,
    canonical_sct,
    canonical_srt,
    chain_to_tableau,
    colseq,
    column_word,
    content,
    descent_composition,
    descents,
    destandardize,
    enumerate_semistandard,
    enumerate_standard,
    from_rows,
    join_split,
    make_tableau,
    skew_shape,
    split_tableau,
    standardize,
    straight,
    strip_kind,
    tableau_from_json,
    tableau_to_chain,
    to_json_dict,
    validate,
)

from oracles import (
    brute_sct,
    brute_srt,
    brute_ssct,
    brute_ssrt,
    column_reading_word,
    row_constant_srt,
    split_by_cells,
    ssct_by_refinement,
    ssrt_by_backtracking,
)

small_compositions = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


def comps_upto(d):
    return [a for n in range(d + 1) for a in compositions_of(n)]


def skew_shapes_upto(d):
    """Every skew shape of both kinds whose outer shape has at most d cells."""
    composition = [
        SkewShape(COMPOSITION, gamma, beta)
        for gamma in comps_upto(d)
        for beta in comps_upto(sum(gamma))
        if leq(beta, gamma)
    ]
    partition = [
        SkewShape(PARTITION, nu, mu)
        for n in range(d + 1)
        for nu in partitions_of(n)
        for k in range(n + 1)
        for mu in partitions_of(k)
        if is_contained(mu, nu)
    ]
    return composition + partition


def test_skew_shape_validation():
    shape = SkewShape(COMPOSITION, (1, 4, 3), (1, 2))
    assert shape.size == 5
    assert shape.inner_in_row(2) == 1
    assert shape.inner_in_row(3) == 2
    with pytest.raises(ValueError):
        SkewShape(COMPOSITION, (1, 2), (3,))
    with pytest.raises(ValueError):
        SkewShape(PARTITION, (2, 1), (1, 2))


@pytest.mark.parametrize("kind", [PARTITION, COMPOSITION])
def test_skew_shape_rejects_lists(kind):
    with pytest.raises(ValueError):
        SkewShape(kind, [2, 1])
    with pytest.raises(ValueError):
        SkewShape(kind, (2, 1), [1])


def test_skew_shape_returns_one_object_per_triple():
    shape = skew_shape(COMPOSITION, (1, 3), (2,))
    assert shape is skew_shape(COMPOSITION, (1, 3), (2,))
    assert shape == SkewShape(COMPOSITION, (1, 3), (2,))
    assert skew_shape(PARTITION, (2, 1)) is skew_shape(PARTITION, (2, 1), ())
    assert straight(PARTITION, (2, 1)) is skew_shape(PARTITION, (2, 1))
    assert from_rows(COMPOSITION, [[2, 1], [None, 3]]).shape is skew_shape(
        COMPOSITION, (2, 2), (1,)
    )


BAD_SHAPES = [
    (COMPOSITION, [2, 1], ()),
    (COMPOSITION, (2, 1), [1]),
    (PARTITION, ([2], 1), ()),
    (PARTITION, (2, 1), ({1},)),
    (COMPOSITION, (0, 1), ()),
    (COMPOSITION, (2,), (3,)),
    (PARTITION, (1, 2), ()),
    (PARTITION, (2, 1), (1, 1, 1)),
    (PARTITION, (1.0,), ()),
    (COMPOSITION, (1,), ("1",)),
    ("skew", (1,), ()),
    ([PARTITION], (1,), ()),
]


@pytest.mark.parametrize("kind, outer, inner", BAD_SHAPES)
def test_skew_shape_rejects_what_skew_shape_class_rejects(kind, outer, inner):
    skew_shape(PARTITION, (1,))  # an equal key for (1.0,) is cached
    with pytest.raises(ValueError) as direct:
        SkewShape(kind, outer, inner)
    with pytest.raises(ValueError) as memoized:
        skew_shape(kind, outer, inner)
    assert str(memoized.value) == str(direct.value)


def test_uniform_shapes():
    assert SkewShape(COMPOSITION, (3, 3, 3, 6, 2, 3), (2, 1, 1)).is_uniform()
    assert not SkewShape(COMPOSITION, (1, 4, 3), (2,)).is_uniform()
    # a single row above the base is uniform no matter its length
    assert SkewShape(COMPOSITION, (1, 4, 3), (1, 2)).is_uniform()
    assert SkewShape(COMPOSITION, (2, 2), ()).is_uniform()


def test_strip_kind():
    assert strip_kind(SkewShape(PARTITION, (3, 1), (1,))) == (True, False)
    assert strip_kind(SkewShape(PARTITION, (2, 1, 1), (1,))) == (False, True)
    assert strip_kind(SkewShape(PARTITION, (2, 2), (1,))) == (False, False)


def test_canonical_sct_golden():
    u = canonical_sct((1, 3, 1, 4))
    assert u.rows == ((1,), (4, 3, 2), (5,), (9, 8, 7, 6))
    assert validate(u) == "SCT"
    assert descent_composition(u) == (1, 3, 1, 4)


def test_canonical_sct_descents_small():
    for alpha in comps_upto(6):
        if not alpha:
            continue
        assert descent_composition(canonical_sct(alpha)) == alpha


def test_canonical_srt_golden():
    assert canonical_srt((3, 2, 2, 1)).rows == ((8, 7, 6), (5, 4), (3, 2), (1,))
    assert row_constant_srt((3, 2, 2, 1)).rows == ((4, 4, 4), (3, 3), (2, 2), (1,))


@pytest.mark.parametrize("kind", [PARTITION, COMPOSITION])
@pytest.mark.parametrize("tau", [(-1, 3), (1.0, 1.0), (2, -1, 1)])
def test_destandardize_rejects_non_contents(kind, tau):
    (that,) = enumerate_standard(straight(kind, (2,)))
    assert destandardize(that, (0, 2)).rows == ((2, 2),)
    with pytest.raises(ValueError):
        destandardize(that, tau)


def test_row_constant_standardizes_to_canonical():
    for lam in [(2, 1), (3, 2, 2, 1), (4, 4), (1, 1, 1)]:
        std, tau = standardize(row_constant_srt(lam))
        assert std == canonical_srt(lam)
        assert destandardize(std, tau) == row_constant_srt(lam)


def test_column_word_golden():
    assert column_word(canonical_sct((2,))) == (2, 1)
    t = from_rows(
        COMPOSITION,
        [[4, 3, 2, 1], [6, 2, 1], [None, 1], [None, None, 4, 4, 2]],
    )
    assert validate(t) == "SSCT"
    assert content(t, 6) == (3, 3, 1, 3, 0, 1)
    assert column_word(t) == (4, 6, 1, 2, 3, 1, 2, 4, 1, 4, 2)


def test_descent_composition_golden():
    t = from_rows(
        COMPOSITION,
        [[7, 4, 2, 1], [8, 3], [None], [None, None, 6, 5]],
    )
    assert validate(t) == "SCT"
    assert descents(t) == frozenset({3, 4, 7})
    assert descent_composition(t) == (3, 1, 3, 1)


def test_colseq_of_standardization_golden():
    t = from_rows(COMPOSITION, [[4, 2, 1, 1], [None, 1], [None, None, 4, 2]])
    std, tau = standardize(t)
    assert std == from_rows(
        COMPOSITION, [[7, 5, 2, 1], [None, 3], [None, None, 6, 4]]
    )
    assert colseq(std) == (1, 3, 2, 4, 2, 3, 4)
    assert destandardize(std, tau) == t


def test_colseq_golden():
    assert colseq(canonical_sct((2, 1))) == (1, 1, 2)


def test_content_and_descents_agree_with_definition():
    for alpha in comps_upto(5):
        for t in enumerate_standard(straight(COMPOSITION, alpha)):
            n = t.n
            expected = set()
            positions = {v: cell for cell, v in t.entries().items()}
            for i in range(1, n):
                r1, c1 = positions[i]
                r2, c2 = positions[i + 1]
                if c2 >= c1:
                    expected.add(i)
            assert descents(t) == frozenset(expected)
            assert sum(descent_composition(t)) == n
    # the row readings agree with reading one cell at a time
    for shape in skew_shapes_upto(5):
        for t in enumerate_semistandard(shape, 3):
            by_cell = {cell: t.entry(*cell) for cell in shape.cells}
            assert t.entries() == by_cell
            assert list(t.entries()) == list(shape.cells)
            assert column_word(t) == column_reading_word(by_cell)


def test_enumerate_semistandard_matches_brute_force():
    shapes = [
        ((2, 1), ()),
        ((1, 2), ()),
        ((2, 2), ()),
        ((1, 4, 3), (1, 2)),
        ((2, 3), (1,)),
        ((1, 1, 1), ()),
    ]
    for gamma, beta in shapes:
        for m in (2, 3, 4):
            ours = enumerate_semistandard(SkewShape(COMPOSITION, gamma, beta), m)
            reference = brute_ssct(gamma, beta, m)
            assert len(ours) == len(reference)
            assert {tuple(sorted(t.entries().items())) for t in ours} == {
                tuple(sorted(f.items())) for f in reference
            }


def test_enumerate_semistandard_matches_refinement_route():
    shapes = [
        SkewShape(COMPOSITION, gamma, beta)
        for gamma in comps_upto(6)
        for beta in comps_upto(sum(gamma))
        if leq(beta, gamma)
    ]
    assert len(shapes) == 454
    for shape in shapes:
        for m in range(5):
            assert enumerate_semistandard(shape, m) == ssct_by_refinement(shape, m)


def test_enumerate_semistandard_matches_backtracking():
    shapes = [shape for shape in skew_shapes_upto(6) if shape.kind == PARTITION]
    assert len(shapes) == 230
    for shape in shapes:
        for m in range(5):
            assert enumerate_semistandard(shape, m) == ssrt_by_backtracking(shape, m)


def test_contents_are_the_refining_weak_compositions():
    for n in range(8):
        for des in compositions_of(n):
            cuts = tuple(itertools.accumulate(des))[:-1]
            for length in range(5):
                expected = [t for t in weak_compositions(n, length) if refines(t, des)]
                assert list(_contents(cuts, n, length)) == expected


def test_enumerators_are_memoized():
    shape = SkewShape(COMPOSITION, (1, 4, 3), (1, 2))
    equal = SkewShape(COMPOSITION, (1, 4, 3), (1, 2))
    assert enumerate_standard(shape) is enumerate_standard(equal)


@pytest.mark.parametrize("kind", [PARTITION, COMPOSITION])
@pytest.mark.parametrize("bad", [-1, 2.0, "2", None, True, [2]])
def test_enumerate_semistandard_rejects_bad_max_entry(kind, bad):
    shape = straight(kind, (2, 1))
    assert len(enumerate_semistandard(shape, 2)) > 0
    with pytest.raises(ValueError):
        enumerate_semistandard(shape, bad)


def test_enumerate_standard_matches_brute_force():
    for gamma, beta in [((2, 1), ()), ((1, 4, 3), (1, 2)), ((3, 2), (1,))]:
        ours = enumerate_standard(SkewShape(COMPOSITION, gamma, beta))
        assert len(ours) == len(brute_sct(gamma, beta))


def test_reverse_tableaux_match_brute_force():
    for nu, mu in [((2, 1), ()), ((3, 3, 1), (2, 1)), ((2, 2), ())]:
        for m in (2, 3):
            ours = enumerate_semistandard(SkewShape(PARTITION, nu, mu), m)
            assert len(ours) == len(brute_ssrt(nu, mu, m))
    # the walk up Young's lattice gives exactly the brute-force fillings of
    # every skew partition shape with |nu| <= 7, in canonical order
    shapes = 0
    for n in range(8):
        for nu in partitions_of(n):
            for mu in (mu for k in range(n + 1) for mu in partitions_of(k)):
                if not is_contained(mu, nu):
                    continue
                shape = skew_shape(PARTITION, nu, mu)
                brute = [make_tableau(shape, f) for f in brute_srt(nu, mu)]
                assert enumerate_standard(shape) == tuple(
                    sorted(brute, key=Tableau.sort_key)
                )
                shapes += 1
    assert shapes == 449


def test_sct_counts_golden():
    assert [t.rows for t in enumerate_standard(straight(COMPOSITION, (1, 2)))] == [
        ((1,), (3, 2))
    ]
    assert [t.rows for t in enumerate_standard(straight(COMPOSITION, (2, 1)))] == [
        ((2, 1), (3,))
    ]


def test_standard_count_partition_between_shapes():
    # standard fillings of all rearrangements of a partition shape together
    # match the standard reverse fillings of that partition
    for n in range(7):
        for lam in {tuple(sorted(a, reverse=True)) for a in compositions_of(n)}:
            srt = len(enumerate_standard(straight(PARTITION, lam)))
            sct = sum(
                len(enumerate_standard(straight(COMPOSITION, alpha)))
                for alpha in compositions_of(n)
                if tuple(sorted(alpha, reverse=True)) == lam
            )
            assert sct == srt


@given(st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple), st.integers(2, 3))
@settings(deadline=None)
def test_standardize_roundtrip(alpha, m):
    for t in enumerate_semistandard(straight(COMPOSITION, alpha), m):
        std, tau = standardize(t)
        assert std.is_standard()
        assert destandardize(std, tau) == t


def test_chain_bijection():
    for gamma in comps_upto(5):
        for beta in comps_upto(sum(gamma)):
            if not leq(beta, gamma):
                continue
            shape = SkewShape(COMPOSITION, gamma, beta)
            chains = interval_chains(beta, gamma)
            tableaux = enumerate_standard(shape)
            assert len(chains) == len(tableaux)
            for chain in chains:
                t = chain_to_tableau(beta, chain)
                assert validate(t) == "SCT"
                assert tableau_to_chain(t) == chain
            for t in tableaux:
                assert chain_to_tableau(beta, tableau_to_chain(t)) == t


def test_chain_entries_count_down():
    (chain,) = interval_chains((1,), (2, 1))
    t = chain_to_tableau((1,), chain)
    # the final step of the chain receives entry 1
    assert t.entry(1, 1) == 2 or t.entry(2, 1) == 2


def test_split_and_rejoin():
    for gamma in comps_upto(5):
        for t in enumerate_standard(straight(COMPOSITION, gamma)):
            for k in range(t.n + 1):
                upper, lower = split_tableau(t, k)
                assert join_split(upper, lower) == t
                assert upper.n == k
                assert lower.n == t.n - k


def test_split_matches_cell_route():
    splits = 0
    for shape in skew_shapes_upto(6):
        if shape.kind != COMPOSITION:
            continue
        for t in enumerate_standard(shape):
            for k in range(t.n + 1):
                assert split_tableau(t, k) == split_by_cells(t, k)
                splits += 1
    assert splits == 2709
    with pytest.raises(ValueError):
        split_tableau(canonical_sct((2, 1)), 4)


def test_split_point_must_be_an_int():
    t = canonical_sct((2, 1))
    for k in (True, 2.0, -1, 4, "1"):
        with pytest.raises(ValueError, match=r"split point k must be an int in 0\.\.3, got"):
            split_tableau(t, k)


def test_split_lower_is_standardized():
    t = canonical_sct((1, 3, 1, 4))
    upper, lower = split_tableau(t, 4)
    assert validate(lower) in ("SCT", "SSCT")
    assert sorted(lower.entries().values()) == list(range(1, 6))


def test_json_roundtrip():
    examples = [
        canonical_sct((1, 3, 1, 4)),
        canonical_srt((3, 2, 2, 1)),
        enumerate_standard(SkewShape(COMPOSITION, (1, 4, 3), (1, 2)))[0],
    ]
    for t in examples:
        packed = json.dumps(to_json_dict(t))
        assert tableau_from_json(json.loads(packed)) == t


def test_json_fields():
    d = to_json_dict(canonical_sct((2, 1)))
    assert d["kind"] == "composition"
    assert d["outer"] == [2, 1]
    assert d["inner"] is None
    assert d["rows"] == [[2, 1], [3]]


def test_make_tableau_requires_exact_cover():
    shape = straight(COMPOSITION, (2, 1))
    with pytest.raises(ValueError):
        make_tableau(shape, {(1, 1): 1})
    with pytest.raises(ValueError):
        make_tableau(shape, {(1, 1): 1, (1, 2): 2, (2, 1): 3, (3, 1): 4})


def all_skew_shapes(max_size):
    """Every skew shape of both kinds with at most ``max_size`` outer cells."""
    shapes = []
    for outer in comps_upto(max_size):
        for inner in comps_upto(sum(outer)):
            for kind in (PARTITION, COMPOSITION):
                try:
                    shapes.append(SkewShape(kind, outer, inner))
                except ValueError:
                    pass
    return shapes


def test_make_tableau_matches_cellwise_definition():
    shapes = all_skew_shapes(5)
    assert {sh.kind for sh in shapes} == {PARTITION, COMPOSITION}
    for shape in shapes:
        entries = {cell: i for i, cell in enumerate(shape.cells, start=1)}
        rows = tuple(
            tuple(
                entries[(r, c)] if shape.in_skew(r, c) else None
                for c in range(1, shape.outer[r - 1] + 1)
            )
            for r in range(1, len(shape.outer) + 1)
        )
        t = make_tableau(shape, entries)
        assert t == Tableau(shape, rows)
        assert t.rows == rows
        for cell in shape.cells:
            with pytest.raises(ValueError):
                make_tableau(shape, {k: v for k, v in entries.items() if k != cell})
        stray = (len(shape.outer) + 1, 1)
        with pytest.raises(ValueError):
            make_tableau(shape, {**entries, stray: 1})
        if shape.inner:
            r = len(shape.outer) if shape.kind == COMPOSITION else 1
            with pytest.raises(ValueError):
                make_tableau(shape, {**entries, (r, 1): 1})


def test_entry_raises_key_error_off_the_skew_cells():
    for shape in all_skew_shapes(5):
        t = make_tableau(shape, {cell: 7 for cell in shape.cells})
        width = max(shape.outer, default=0)
        for r in range(-2, len(shape.outer) + 3):
            for c in range(-2, width + 3):
                if shape.in_skew(r, c):
                    assert t.entry(r, c) == 7
                else:
                    with pytest.raises(KeyError):
                        t.entry(r, c)
    shape = SkewShape(COMPOSITION, (2, 3), (1,))
    t = make_tableau(shape, {(1, 1): 4, (1, 2): 3, (2, 2): 2, (2, 3): 1})
    for cell in [(2, 1), (0, 1), (1, 0), (1, 3), (0, 0), (-1, 2), (2, -1), (3, 1)]:
        with pytest.raises(KeyError):
            t.entry(*cell)
    assert t.entry(2, 3) == 1


def test_validate_classifications():
    assert validate(from_rows(COMPOSITION, [[1], [3, 2]])) == "SCT"
    assert validate(from_rows(COMPOSITION, [[1, 1]])) == "SSCT"
    assert validate(from_rows(PARTITION, [[2, 1], [1]])) == "SSRT"
    assert validate(from_rows(PARTITION, [[3, 2], [1]])) == "SRT"
    assert validate(from_rows(PARTITION, [[1, 2]])) == "invalid"
