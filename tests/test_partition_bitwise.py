"""Set-up is bit for bit the reference loops in partition_oracle.py: the
same partitions, holdouts, blob features, IDX features and initial
parameters, with equal dtypes and equal bytes."""

from __future__ import annotations

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import partition_oracle as oracle
from conftest import same
from fedcspack import partition
from fedcspack.errors import ConfigError, InvariantError
from fedcspack.model import ShapeSpec, init_params
from fedcspack.partition import (
    Dataset,
    PartitionSpec,
    _rebalance_floor,
    _split_train_test,
    load_idx,
    make_partition,
    synth_blobs,
)


def same_lists(xs, ys) -> bool:
    return len(xs) == len(ys) and all(same(x, y) for x, y in zip(xs, ys))


def same_partition(a, b) -> bool:
    return (
        same_lists(a.assignment, b.assignment)
        and same_lists(a.train, b.train)
        and same_lists(a.test, b.test)
    )


def with_final_state(build, module, data, spec):
    """build(data, spec) and the state its generator is left in: the
    holdout draws last, so the generator is caught where `module` hands it
    to `_split_train_test`."""
    caught = []
    split = module._split_train_test

    def spy(assignment, labels, test_fraction, rng):
        caught.append(rng)
        return split(assignment, labels, test_fraction, rng)

    with mock.patch.object(module, "_split_train_test", spy):
        result = build(data, spec)
    return result, caught[0].bit_generator.state


def matches_oracle(data, spec, reference) -> bool:
    """Same partition and the same draws as `reference`."""
    got, got_state = with_final_state(make_partition, partition, data, spec)
    want, want_state = with_final_state(reference, oracle, data, spec)
    return same_partition(got, want) and got_state == want_state


@st.composite
def labelled(draw, max_classes=12, max_rows=240, min_rows=1):
    """Labels over up to 12 classes, some of them empty and the rest of
    very different sizes (a class may hold one row)."""
    num_classes = draw(st.integers(1, max_classes))
    n = draw(st.integers(min_rows, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(num_classes) ** draw(st.sampled_from([1.0, 4.0, 12.0]))
    weights[rng.random(num_classes) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if weights.sum() == 0:
        weights[rng.integers(num_classes)] = 1.0
    labels = rng.choice(num_classes, size=n, p=weights / weights.sum()).astype(np.int64)
    return Dataset(np.zeros((n, 1), dtype=np.float32), labels, num_classes)


fractions = st.one_of(st.floats(0.05, 0.95), st.sampled_from([0.05, 0.5, 0.95]))
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(
    data=labelled(min_rows=2),
    clients=st.integers(1, 60),
    alpha=st.one_of(st.floats(0.01, 5.0), st.sampled_from([0.01, 0.05, 1.0, 5.0])),
    test_fraction=fractions,
    seed=seeds,
)
def test_dirichlet_matches_oracle(data, clients, alpha, test_fraction, seed):
    # clients beyond half the row count are cut back so the spec is valid;
    # with up to 60 clients over as few as two rows each, many clients hold
    # 0 or 1 row after the Dirichlet cut and _rebalance_floor moves rows
    spec = PartitionSpec(
        law="dirichlet", num_clients=min(clients, len(data) // 2), seed=seed,
        alpha=alpha, test_fraction=test_fraction,
    )
    assert matches_oracle(data, spec, oracle.partition_dirichlet)


@settings(max_examples=200, deadline=None)
@given(
    data=labelled(min_rows=2),
    clients=st.integers(1, 40),
    shards=st.integers(1, 4),
    test_fraction=fractions,
    seed=seeds,
)
def test_pathological_matches_oracle(data, clients, shards, test_fraction, seed):
    # every shard holds a row and every client two
    clients = max(1, min(clients, len(data) // max(2, shards)))
    shards = min(shards, len(data))
    spec = PartitionSpec(
        law="pathological", num_clients=clients, seed=seed,
        shards_per_client=shards, test_fraction=test_fraction,
    )
    assert matches_oracle(data, spec, oracle.partition_pathological)


@settings(max_examples=200, deadline=None)
@given(
    data=labelled(max_rows=120, min_rows=2),
    cuts=st.lists(st.integers(0, 120), max_size=12),
    dtype=st.sampled_from([np.int64, np.int32]),
    test_fraction=st.one_of(fractions, st.just(float(np.nextafter(1.0, 0.0))), st.just(1e-9)),
    seed=seeds,
)
def test_split_train_test_matches_oracle(data, cuts, dtype, test_fraction, seed):
    """Client blocks of two rows or more (exactly two included), unsorted
    and of a narrower dtype, at holdout fractions up to just below 1.  The
    generator must be left where the oracle leaves it, so a holdout that
    draws more, less or otherwise fails even when its rows agree."""
    order = np.random.default_rng(seed).permutation(len(data)).astype(dtype)
    # len(cuts) + 1 blocks at most, each of two rows plus a share of the spare rows
    blocks = min(len(cuts) + 1, len(data) // 2)
    spare = len(data) - 2 * blocks
    starts = [min(c, spare) + 2 * j for j, c in enumerate(sorted(cuts[: blocks - 1]), 1)]
    assignment = np.split(order, starts)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _split_train_test(list(assignment), data.labels, test_fraction, got_rng)
    want = oracle._split_train_test(list(assignment), data.labels, test_fraction, want_rng)
    assert same_lists(got[0], want[0]) and same_lists(got[1], want[1])
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_rebalance_moved_rows_and_fallback():
    """One hand-picked case of exactly two rows per client through the rare
    paths at once: rows moved by _rebalance_floor to a client the Dirichlet
    cut left empty (so its rows are no longer sorted), clients whose labels
    are all singletons (the fallback permutation) beside clients with a
    label segment of two (the stratified draw)."""
    data = Dataset(np.zeros((8, 1), dtype=np.float32), np.arange(8) % 5, 5)
    spec = PartitionSpec(law="dirichlet", num_clients=4, seed=14, alpha=0.05, test_fraction=0.5)
    got = make_partition(data, spec)
    assert same_partition(got, oracle.partition_dirichlet(data, spec))
    assert [a.tolist() for a in got.assignment] == [[7, 4], [0, 5], [2, 3], [1, 6]]
    assert [t.tolist() for t in got.test] == [[4], [0], [3], [1]]


@st.composite
def sized_specs(draw):
    """A labelled dataset and a spec of either law with one shard per
    client, for a client count on either side of half the row count."""
    data = draw(labelled())
    n = len(data)
    starving = n < 2 or draw(st.booleans())
    clients = draw(st.integers(n // 2 + 1, n) if starving else st.integers(1, n // 2))
    law = draw(st.sampled_from(["dirichlet", "pathological"]))
    spec = PartitionSpec(
        law=law, num_clients=clients, seed=draw(seeds), alpha=draw(st.sampled_from([0.01, 0.5])),
        shards_per_client=1, test_fraction=draw(fractions),
    )
    return data, spec


def bound_case(law, n):
    """n rows of 3 labels for 5 clients: 9 is one short of two rows each."""
    data = Dataset(np.zeros((n, 1), dtype=np.float32), np.arange(n) % 3, 3)
    return data, PartitionSpec(law=law, num_clients=5, seed=1, shards_per_client=1)


@settings(max_examples=200, deadline=None)
@given(case=sized_specs())
@example(case=bound_case("dirichlet", 9))
@example(case=bound_case("dirichlet", 10))
@example(case=bound_case("pathological", 9))
@example(case=bound_case("pathological", 10))
def test_every_client_holds_a_train_and_a_test_row(case):
    """C <= N < 2C rows raise the set-up error under both laws, and N >= 2C
    gives every client at least one train row and one test row; the
    pinned examples sit at N = 2C - 1 and N = 2C."""
    data, spec = case
    n, clients = len(data), spec.num_clients
    if n < 2 * clients:
        with pytest.raises(ConfigError, match=f"insufficient data: {n} rows for {clients} clients"):
            make_partition(data, spec)
        return
    got = make_partition(data, spec)
    assert min(len(rows) for rows in got.train) >= 1
    assert min(len(rows) for rows in got.test) >= 1


def test_rebalance_raises_on_too_few_rows():
    """Too few rows to give every client the floor raise, where a loop
    without the check would move client 0's row to itself forever."""
    with pytest.raises(InvariantError, match="2 rows cannot give 2 clients 2 each"):
        _rebalance_floor([np.array([0]), np.array([1])])


@pytest.mark.parametrize(
    "classes, dim, per_class, spread",
    [(1, 1, 1, 0.3), (3, 5, 7, 1e-6), (10, 32, 100, 0.2), (10, 256, 100, 0.1), (12, 3, 50, 4.0)],
)
def test_synth_blobs_matches_oracle(classes, dim, per_class, spread):
    for seed in (0, 1, 2**31 + 5):
        got = synth_blobs(classes, dim, per_class, spread, seed)
        want = oracle.synth_blobs(classes, dim, per_class, spread, seed)
        assert same(got.features, want.features) and same(got.labels, want.labels)
        assert got.num_classes == want.num_classes and got.name == want.name


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(2, 60),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    classes=st.integers(1, 10),
    seed=seeds,
    law=st.sampled_from(["dirichlet", "pathological"]),
)
def test_idx_round_trip_matches_oracle(tmp_path_factory, count, rows, cols, classes, seed, law):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, classes, size=count, dtype=np.uint8)
    work = tmp_path_factory.mktemp("idx")
    (work / "i.idx").write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + pixels.tobytes())
    (work / "l.idx").write_bytes(struct.pack(">II", 0x801, count) + labels.tobytes())
    data = load_idx(work / "i.idx", work / "l.idx")
    assert same(data.features, oracle.idx_features(pixels.reshape(count, rows * cols)))
    assert same(data.labels, labels.astype(np.int64))
    spec = PartitionSpec(law=law, num_clients=max(1, count // 4), seed=seed, shards_per_client=1)
    reference = oracle.partition_dirichlet if law == "dirichlet" else oracle.partition_pathological
    assert same_partition(make_partition(data, spec), reference(data, spec))


@pytest.mark.parametrize(
    "widths", [[1, 1], [32, 64, 10], [64, 64, 10], [256, 256, 10], [7, 3, 5, 2]]
)
def test_init_params_matches_oracle(widths):
    shape = ShapeSpec(widths)
    for seed in (0, 1, 12345):
        assert same(init_params(shape, seed).values, oracle.init_params(shape, seed).values)
