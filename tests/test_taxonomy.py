"""Tree construction, ancestor queries, exact marginalization, and the
text round trip for taxonomies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from hierssl.errors import (
    DataError,
    DimensionMismatch,
    EmptyInput,
    InconsistentPath,
    LevelOrder,
    OutOfRange,
    ParseError,
    UnknownClass,
)
from hierssl.taxonomy import (
    SEMI_INAT_PHYLA,
    MarginalizationMatrix,
    Taxonomy,
    _bounded_allocate,
    build_taxonomy,
    coarse_probs,
    default_level_names,
    load_taxonomy,
    marginalize,
    save_taxonomy,
    semi_inat_taxonomy,
    shaped_taxonomy,
)

from _reference import dense, shape

# Three-level toy tree: two kingdoms, three genera, five species.
TOY_PATHS = [
    ("A", "a1", "s1"),
    ("A", "a2", "s2"),
    ("A", "a2", "s3"),
    ("B", "b1", "s4"),
    ("B", "b1", "s5"),
]


@pytest.fixture
def toy() -> Taxonomy:
    return build_taxonomy(TOY_PATHS, ("L1", "L2", "L3"))


def brute_force_marginal(taxonomy, probs, fine, coarse):
    """Independent formulation: per-leaf Python loop into coarse bins,
    ascending fine index, matching the documented summation order."""
    amap = taxonomy.ancestor_map(fine, coarse)
    out = np.zeros(probs.shape[:-1] + (taxonomy.class_counts[coarse - 1],))
    for j in range(probs.shape[-1]):
        out[..., amap[j]] += probs[..., j]
    return out


class TestToyStructure:
    def test_counts_and_names(self, toy):
        assert toy.class_counts == (2, 3, 5)
        assert toy.num_levels == 3
        assert toy.leaf_level == 3
        assert toy.num_leaves == 5
        assert toy.class_names(1) == ("A", "B")
        assert toy.class_names(2) == ("a1", "a2", "b1")
        assert toy.class_names(3) == ("s1", "s2", "s3", "s4", "s5")
        assert toy.class_index(2, "a2") == 1
        assert toy.class_name(2, 1) == "a2"

    def test_parent_arrays(self, toy):
        assert np.array_equal(toy.ancestor_map(2, 1), [0, 0, 1])
        assert np.array_equal(toy.ancestor_map(3, 2), [0, 1, 1, 2, 2])
        with pytest.raises(OutOfRange):  # level 1 has no parent level
            toy.ancestor_map(1, 0)

    def test_ancestor_maps(self, toy):
        assert np.array_equal(toy.ancestor_map(3, 2), [0, 1, 1, 2, 2])
        assert np.array_equal(toy.ancestor_map(3, 1), [0, 0, 0, 1, 1])
        assert np.array_equal(toy.ancestor_map(2, 1), [0, 0, 1])
        assert np.array_equal(toy.ancestor_map(3, 3), np.arange(5))
        with pytest.raises(LevelOrder):
            toy.ancestor_map(2, 3)

    def test_per_leaf_ancestors(self, toy):
        assert np.array_equal(toy.ancestor_map(toy.leaf_level, 1), [0, 0, 0, 1, 1])
        with pytest.raises(OutOfRange):
            toy.ancestor_map(toy.leaf_level, 4)

    def test_leaf_paths_round_trip(self, toy):
        assert toy.leaf_paths() == TOY_PATHS

    def test_unknown_class_name(self, toy):
        with pytest.raises(UnknownClass):
            toy.class_index(1, "missing")

    def test_equality(self, toy):
        assert toy == build_taxonomy(TOY_PATHS, ("L1", "L2", "L3"))
        assert toy != build_taxonomy(TOY_PATHS, ("X1", "X2", "X3"))
        assert toy != shaped_taxonomy([2, 3, 5])


class TestMarginalize:
    def test_toy_values_match_hand_sum(self, toy):
        dist = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        got2 = coarse_probs(toy, dist, 2)
        got1 = coarse_probs(toy, dist, 1)
        assert np.abs(got2 - brute_force_marginal(toy, dist, 3, 2)).max() < 1e-15
        assert np.abs(got1 - brute_force_marginal(toy, dist, 3, 1)).max() < 1e-15
        assert_allclose(got2, [0.1, 0.35, 0.55], rtol=1e-14)
        assert_allclose(got1, [0.45, 0.55], rtol=1e-14)

    def test_repeated_call_is_bitwise_stable(self, toy):
        dist = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        a = coarse_probs(toy, dist, 1)
        b = coarse_probs(toy, dist, 1)
        assert np.array_equal(a, b)

    def test_identity_at_leaf_level(self, toy):
        dist = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        assert np.array_equal(coarse_probs(toy, dist, 3), dist)

    def test_matches_dense_matrix_on_random_pairs(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(100):
            depth = int(rng.integers(2, 6))
            counts = np.sort(rng.integers(1, 40, size=depth)).tolist()
            tax = shaped_taxonomy(counts)
            probs = rng.dirichlet(np.ones(counts[-1]), size=4)
            fine = depth
            coarse = int(rng.integers(1, depth))
            w = MarginalizationMatrix.between(tax, fine, coarse)
            got = marginalize(probs, w)
            worst = max(worst, np.abs(got - probs @ dense(w)).max())
        assert worst < 1e-12

    def test_composition_law(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            counts = np.sort(rng.integers(1, 30, size=4)).tolist()
            tax = shaped_taxonomy(counts)
            probs = rng.dirichlet(np.ones(counts[-1]), size=3)
            via_mid = marginalize(
                marginalize(probs, MarginalizationMatrix.between(tax, 4, 3)),
                MarginalizationMatrix.between(tax, 3, 2),
            )
            direct = marginalize(probs, MarginalizationMatrix.between(tax, 4, 2))
            assert np.abs(via_mid - direct).max() < 1e-12

    def test_mass_preserved(self, toy):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(5), size=7)
        for level in (1, 2):
            out = coarse_probs(toy, probs, level)
            assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-12)

    def test_batch_and_single_shapes(self, toy):
        w = MarginalizationMatrix.between(toy, 3, 1)
        single = marginalize(np.full(5, 0.2), w)
        assert single.shape == (2,)
        batch = marginalize(np.full((4, 5), 0.2), w)
        assert batch.shape == (4, 2)
        assert np.array_equal(batch[0], single)

    def test_dense_matrix_is_valid_partition(self, toy):
        w = MarginalizationMatrix.between(toy, 3, 1)
        d = dense(w)
        assert shape(w) == d.shape == (5, 2)
        assert np.array_equal(d.sum(axis=1), np.ones(5))
        assert set(np.unique(d)) == {0.0, 1.0}

    def test_level_order_enforced(self, toy):
        with pytest.raises(LevelOrder):
            MarginalizationMatrix.between(toy, 2, 3)
        same = MarginalizationMatrix.between(toy, 2, 2)  # the identity
        assert np.array_equal(same.ancestor_map, [0, 1, 2]) and same.n_coarse == 3

    def test_ancestor_map_checked_against_n_coarse(self):
        # an index past n_coarse, and a coarse class left without a fine class
        with pytest.raises(OutOfRange):
            MarginalizationMatrix(np.array([0, 1, 2]), 2)
        with pytest.raises(OutOfRange):
            MarginalizationMatrix(np.array([0, -1, 1]), 2)
        with pytest.raises(DataError):
            MarginalizationMatrix(np.array([0, 0, 2]), 3)

    def test_wrong_width_rejected(self, toy):
        w = MarginalizationMatrix.between(toy, 3, 1)
        with pytest.raises(DimensionMismatch):
            marginalize(np.full(4, 0.25), w)
        with pytest.raises(DimensionMismatch):
            marginalize(np.float64(0.5), w)
        with pytest.raises(DimensionMismatch):
            coarse_probs(toy, 0.5, 1)

    def test_leaf_level_width_checked(self):
        tax = shaped_taxonomy([2, 4, 8])
        with pytest.raises(DimensionMismatch):
            coarse_probs(tax, np.ones(5), tax.leaf_level)
        with pytest.raises(DimensionMismatch):
            coarse_probs(tax, np.ones((3, 5)), tax.leaf_level)
        with pytest.raises(DimensionMismatch):
            coarse_probs(tax, np.float64(0.5), tax.leaf_level)


class TestSemiInat:
    def test_published_level_totals(self):
        tax = semi_inat_taxonomy()
        assert tax.class_counts == (3, 8, 29, 123, 339, 729, 810)
        assert sum(tax.class_counts) == 2041
        assert tax.num_leaves == 810
        assert tax.level_names == (
            "Kingdom", "Phylum", "Class", "Order", "Family", "Genus", "Species",
        )

    def test_kingdoms_and_phyla(self):
        tax = semi_inat_taxonomy()
        assert tax.class_names(1) == ("Animalia", "Fungi", "Plantae")
        assert len(tax.class_names(2)) == 8
        for kingdom, phylum, n_species in SEMI_INAT_PHYLA:
            p = tax.class_index(2, phylum)
            leaves = np.flatnonzero(tax.ancestor_map(tax.leaf_level, 2) == p)
            assert len(leaves) == n_species
            assert tax.ancestor_map(2, 1)[p] == tax.class_index(1, kingdom)

    def test_construction_is_deterministic(self):
        a, b = semi_inat_taxonomy(), semi_inat_taxonomy()
        assert a == b
        assert a.leaf_paths() == b.leaf_paths()


class TestBuildErrors:
    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_taxonomy([])

    def test_single_level_rejected(self):
        with pytest.raises(DataError):
            build_taxonomy([("only",)])

    def test_ragged_paths(self):
        with pytest.raises(InconsistentPath):
            build_taxonomy([("A", "x", "s1"), ("A", "s2")])

    def test_duplicate_leaf_path(self):
        with pytest.raises(InconsistentPath):
            build_taxonomy([("A", "x", "s1"), ("A", "x", "s1")])

    def test_class_under_two_parents(self):
        with pytest.raises(InconsistentPath):
            build_taxonomy([("A", "x", "s1"), ("B", "x", "s2")])

    def test_bad_class_names(self):
        with pytest.raises(DataError):
            build_taxonomy([("A", "x", ""), ("A", "x", "s2")])
        with pytest.raises(DataError):
            build_taxonomy([("A", "x", "s 1"), ("A", "x", "s2")])
        with pytest.raises(DataError):
            build_taxonomy([("A", "x", "s,1"), ("A", "x", "s2")])

    def test_level_name_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_taxonomy(TOY_PATHS, ("L1", "L2"))

    @pytest.mark.parametrize("leaves, parents, error", [
        (("p", "q"), [[0, 0], [0, 7]], OutOfRange),
        (("p", "q", "r"), [[0, 0], [0, 1]], DimensionMismatch),
        (("p", "q"), [[0, 0]], DimensionMismatch),
        (("p", "q"), [[0, 0], [0, 1], [0, 0]], DimensionMismatch),
    ], ids=["parent-out-of-range", "short-parent-map", "missing-parent-map",
            "extra-parent-map"])
    def test_bad_parent_map_is_typed(self, leaves, parents, error):
        # checked before any ancestor is looked up through the parent map
        with pytest.raises(error):
            Taxonomy(("A", "B", "C"), [("a",), ("x", "y"), leaves], parents)

    def test_default_level_names(self):
        assert default_level_names(7) == (
            "Kingdom", "Phylum", "Class", "Order", "Family", "Genus", "Species",
        )
        assert default_level_names(3) == ("L1", "L2", "L3")


class TestShapedTaxonomy:
    def test_proportional_spread(self):
        tax = shaped_taxonomy([2, 4])
        assert np.array_equal(tax.ancestor_map(2, 1), [0, 0, 1, 1])
        tax = shaped_taxonomy([2, 3])
        assert np.array_equal(tax.ancestor_map(2, 1), [0, 0, 1])

    def test_decreasing_counts_rejected(self):
        with pytest.raises(DataError):
            shaped_taxonomy([3, 2])
        with pytest.raises(DataError):
            shaped_taxonomy([4])
        with pytest.raises(DataError):
            shaped_taxonomy([0, 2])

    def test_deterministic(self):
        assert shaped_taxonomy([2, 5, 9]) == shaped_taxonomy([2, 5, 9])


class TestPersistence:
    def test_round_trip(self, toy, tmp_path):
        p = tmp_path / "toy.txt"
        save_taxonomy(toy, p)
        assert load_taxonomy(p) == toy

    def test_round_trip_semi_inat(self, tmp_path):
        tax = semi_inat_taxonomy()
        p = tmp_path / "inat.txt"
        save_taxonomy(tax, p)
        assert load_taxonomy(p) == tax

    def test_save_is_byte_identical(self, toy, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_taxonomy(toy, a)
        save_taxonomy(toy, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("L1,L2\nA,s1\n")
        with pytest.raises(ParseError) as e:
            load_taxonomy(p)
        assert e.value.line == 1

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("hierssl-taxonomy v1\nL1,L2\nA,x,s1\n")
        with pytest.raises(ParseError) as e:
            load_taxonomy(p)
        assert e.value.line == 3

    def test_empty_file(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("")
        with pytest.raises(EmptyInput):
            load_taxonomy(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("hierssl-taxonomy v1\nL1,L2\n")
        with pytest.raises(EmptyInput):
            load_taxonomy(p)

    def test_blank_lines_tolerated(self, toy, tmp_path):
        p = tmp_path / "toy.txt"
        save_taxonomy(toy, p)
        p.write_text(p.read_text() + "\n\n")
        assert load_taxonomy(p) == toy


# -- properties over random shaped trees --------------------------------------


tree_counts = st.lists(st.integers(1, 25), min_size=2, max_size=5).map(sorted)


@settings(max_examples=30, deadline=None)
@given(tree_counts)
def test_ancestor_map_composes(counts):
    tax = shaped_taxonomy(counts)
    depth = len(counts)
    for coarse in range(1, depth):
        for mid in range(coarse, depth + 1):
            via = tax.ancestor_map(mid, coarse)[tax.ancestor_map(depth, mid)]
            assert np.array_equal(via, tax.ancestor_map(depth, coarse))


@settings(max_examples=30, deadline=None)
@given(tree_counts)
def test_every_class_keeps_children(counts):
    tax = shaped_taxonomy(counts)
    for level in range(2, tax.num_levels + 1):
        p = tax.ancestor_map(level, level - 1)
        assert len(np.unique(p)) == tax.class_counts[level - 2]
        assert p.min() >= 0 and p.max() < tax.class_counts[level - 2]
        assert np.array_equal(p, np.sort(p))  # shaped trees keep blocks contiguous


@settings(max_examples=30, deadline=None)
@given(tree_counts, st.integers(0, 2**31 - 1))
def test_marginal_mass_per_class_positive_for_positive_dist(counts, seed):
    tax = shaped_taxonomy(counts)
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(tax.num_leaves) * 5.0)
    for level in range(1, tax.num_levels):
        out = coarse_probs(tax, probs, level)
        assert out.shape == (tax.class_counts[level - 1],)
        assert np.all(out > 0.0)
        assert abs(out.sum() - 1.0) < 1e-12


# -- bit-for-bit pins of the fast paths ----------------------------------------
# Sorted ancestor maps are summed in place, and the allocator uses a heap.
# These references are the earlier bodies: a gather into coarse-class order
# before every reduceat, and a full scan of the slots for every unit.


def _gathered_marginalize(probs, w):
    order = np.argsort(w.ancestor_map, kind="stable")
    starts = np.searchsorted(w.ancestor_map[order], np.arange(w.n_coarse))
    gathered = np.asarray(probs, dtype=np.float64)[..., order]
    return np.add.reduceat(gathered, starts, axis=-1)


def _scanned_allocate(total, weights, lo, hi):
    counts = list(lo)
    remaining = total - sum(counts)
    if remaining < 0 or total > sum(hi):
        raise DataError("allocation bounds are infeasible")
    while remaining > 0:
        best, best_score = -1, -1.0
        for i, w in enumerate(weights):
            if counts[i] >= hi[i]:
                continue
            score = w / (counts[i] + 1)
            if score > best_score:
                best, best_score = i, score
        counts[best] += 1
        remaining -= 1
    return counts


def _pin_matrices(tax):
    """Leaf-to-level edges for every level, the leaf level as the identity."""
    leaf = tax.leaf_level
    return [MarginalizationMatrix.between(tax, leaf, level)
            for level in range(1, leaf + 1)]


@pytest.mark.parametrize("tax", [
    shaped_taxonomy((3, 8, 29, 123, 339, 729, 810)), semi_inat_taxonomy(),
], ids=["shaped", "semi_inat"])
def test_marginalize_matches_gathered_bytes(tax):
    rng = np.random.default_rng(9)
    # a sparse Dirichlet spans many orders of magnitude, so any change in
    # summation order would show in the low bits
    batch = rng.dirichlet(np.full(tax.num_leaves, 0.05), size=40)
    inputs = [batch, batch[7], np.asfortranarray(batch), batch[::3]]
    for w in _pin_matrices(tax):
        for probs in inputs:
            got = marginalize(probs, w)
            ref = _gathered_marginalize(probs, w)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_sorted_levels_skip_the_gather():
    shaped = shaped_taxonomy((3, 8, 29, 123, 339, 729, 810))
    semi = semi_inat_taxonomy()
    assert all(w._order is None for w in _pin_matrices(shaped))
    gathers = [level for level, w in enumerate(_pin_matrices(semi), start=1)
               if w._order is not None]
    assert gathers == [1]


def _allocation_cases():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 25))
        if rng.random() < 0.5:
            weights = [int(x) for x in rng.integers(1, 4, size=n)]  # many ties
        else:
            weights = [float((r % 5 + 1.0) ** -1.1) for r in range(n)]
        lo = [int(x) for x in rng.integers(0, 3, size=n)]
        hi = [l + int(x) for l, x in zip(lo, rng.integers(0, 5, size=n))]
        total = sum(lo) + int(rng.integers(0, sum(hi) - sum(lo) + 1))
        yield total, weights, lo, hi
    weights = [int(x) for x in rng.integers(1, 4, size=729)]
    yield 1620, weights, [0] * 729, [1620] * 729  # the 810-leaf novel graft
    yield 1620, weights, [1] * 729, [3] * 729


def test_bounded_allocate_matches_scanned_counts():
    for total, weights, lo, hi in _allocation_cases():
        got = _bounded_allocate(total, weights, lo, hi)
        assert got == _scanned_allocate(total, weights, lo, hi)
        assert sum(got) == total
        assert all(l <= c <= h for l, c, h in zip(lo, got, hi))


def test_bounded_allocate_infeasible_raises():
    with pytest.raises(DataError):
        _bounded_allocate(3, [1.0, 1.0], [2, 2], [5, 5])  # lo exceeds total
    with pytest.raises(DataError):
        _bounded_allocate(9, [1.0, 1.0], [0, 0], [4, 4])  # hi cannot hold total
