"""Peak memory of scoring and of a dataset save and load at the Semi-iNat
shape, and of reading an artifact.

tracemalloc sees numpy's array buffers as well as Python objects, so the
peak above the starting point is every transient a call makes. Scoring
runs one block of rows at a time, from the forward pass to the argmax, so
it holds a few blocks of leaf probabilities whatever the row count; a save
streams its lines and holds almost none of the file it writes; a read
streams its lines too, so a load holds little more than the arrays it
returns.
"""

import tracemalloc

import numpy as np
import pytest

from hierssl.data import SPLIT_TAGS, DataSplit, Samples, load_dataset, save_dataset
from hierssl.evaluate import evaluate
from hierssl.model import _BLOCK_ROWS, ARCHS
from hierssl.ood import FilterConfig, keep_mask
from hierssl.records import read_record, write_record
from hierssl.taxonomy import semi_inat_taxonomy

N_TEST = 9720  # 12 test rows for each of the 810 species
N_LABELED = 2430  # 3 labeled rows for each
DIM = 32


def leaf_rows(tax, n: int, rng) -> Samples:
    leaves = rng.integers(0, tax.num_leaves, n)
    return Samples(X=rng.standard_normal((n, DIM)),
                   label_level=np.full(n, tax.leaf_level), label=leaves,
                   true_species=leaves)


@pytest.fixture(scope="module")
def inat():
    tax = semi_inat_taxonomy()
    rng = np.random.default_rng(0)
    samples = leaf_rows(tax, N_TEST, rng)
    return tax, samples, ARCHS["linear"](DIM, tax.num_leaves, rng)


def peak_bytes(fn, *args) -> int:
    """The most memory ``fn(*args)`` held at once above what it started with."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def block_bytes(tax) -> int:
    """One block of leaf probabilities."""
    return _BLOCK_ROWS * tax.num_leaves * 8


@pytest.mark.parametrize("n", [N_TEST, 4 * N_TEST])
def test_evaluate_holds_a_few_probability_blocks(inat, n):
    tax, _, model = inat
    samples = leaf_rows(tax, n, np.random.default_rng(n))
    assert peak_bytes(evaluate, model, samples, tax) <= 3 * block_bytes(tax)


@pytest.mark.parametrize("n", [N_TEST, 4 * N_TEST])
def test_keep_mask_holds_a_few_probability_blocks(inat, n):
    tax, _, model = inat
    samples = leaf_rows(tax, n, np.random.default_rng(n))
    cfg = FilterConfig(tau=0.5, match_level=2)
    assert peak_bytes(keep_mask, model, tax, samples, cfg) <= 3 * block_bytes(tax)


@pytest.mark.parametrize("n", [N_TEST, 4 * N_TEST])
def test_keep_mask_holds_one_probability_block_at_a_time(inat, n):
    # a block's probabilities are released before the next block is scored
    tax, _, model = inat
    samples = leaf_rows(tax, n, np.random.default_rng(n))
    cfg = FilterConfig(tau=0.5, match_level=2)
    assert peak_bytes(keep_mask, model, tax, samples, cfg) <= 1.5 * block_bytes(tax)


def labeled_split(samples) -> DataSplit:
    empty = samples.take([])
    return DataSplit(labeled=samples.take(slice(N_LABELED)), coarse_in=empty,
                     coarse_out=empty, test=empty)


def test_save_dataset_streams_its_lines(inat, tmp_path):
    tax, samples, _ = inat
    path = tmp_path / "dataset.txt"
    peak = peak_bytes(save_dataset, labeled_split(samples), tax, path)
    assert peak < path.stat().st_size / 4


def test_load_dataset_holds_its_arrays_not_its_file(inat, tmp_path):
    tax, samples, _ = inat
    path = tmp_path / "dataset.txt"
    save_dataset(labeled_split(samples), tax, path)
    loaded = load_dataset(path, tax)
    arrays = sum(col.nbytes for tag in SPLIT_TAGS
                 for col in vars(getattr(loaded, tag)).values())
    assert peak_bytes(load_dataset, path, tax) <= 2.5 * arrays


def test_read_record_streams_its_lines(tmp_path):
    path = tmp_path / "record.txt"
    write_record(path, "hierssl-test v1", (f"row {i:095d}" for i in range(50_000)))

    def read():
        with read_record(path, "hierssl-test", (1,)) as body:
            for _ in body:
                pass

    assert peak_bytes(read) < path.stat().st_size / 100
