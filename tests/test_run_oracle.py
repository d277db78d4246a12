"""A whole run equals the reference round loop in run_oracle.py, round by
round and exactly: the global parameter bytes, the mask, both byte
counts, violations, both accuracies and the final per-client accuracies.
A run that fails must fail as the oracle does.

A run resumed after any round from a copy of its state, on a set-up built
anew, equals the whole run: the state between rounds is the server, the
local models and t, and nothing else.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import run_oracle
from conftest import copied_state, idx_blobs, same
from fedcspack.config import DatasetSpec, RunConfig
from fedcspack.errors import NumericError
from fedcspack.model import ShapeSpec
from fedcspack.partition import PartitionSpec
from fedcspack.protocol import round_step, run, setup_run

# the IDX pair every idx case reads: 3 classes of 8 rows, 4 features
IDX = dict(num_classes=3, dim=4, samples_per_class=8, seed=5)


@pytest.fixture(scope="module")
def idx_spec(tmp_path_factory):
    return idx_blobs(tmp_path_factory.mktemp("idx"), **IDX)


@st.composite
def configs(draw):
    """The fields of a tiny run: every method and weight mode; a pack that
    divides d, leaves a short tail or exceeds d; both partition laws, with
    as few as two rows per client (so `_rebalance_floor` moves rows and
    the holdout's fallback draws)."""
    method = draw(st.sampled_from(["fedcspack", "fedavg", "fedprox", "magnitude_topk"]))
    kind = draw(st.sampled_from(["blobs", "blobs", "idx"]))
    if kind == "idx":  # 24 rows give any partition drawn here two rows per client
        classes, dim = IDX["num_classes"], IDX["dim"]
    else:
        classes, dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    widths = (dim, *draw(st.sampled_from([(), (3,), (2, 3)])), classes + draw(st.integers(0, 1)))
    d = ShapeSpec(widths).total_params
    pack = draw(st.one_of(
        st.sampled_from([p for p in range(1, d + 1) if d % p == 0]),
        st.sampled_from([p for p in range(2, d) if d % p] or [d]),
        st.integers(d + 1, d + 5),
    ))
    clients = draw(st.integers(1, 6))
    law = draw(st.sampled_from(["dirichlet", "pathological"]))
    shards = draw(st.integers(1, 2)) if law == "pathological" else 1
    dataset = ("idx", None)
    if kind == "blobs":
        # rows per class to fill every shard and give every client two rows
        fewest = -(-clients * max(2, shards) // classes)
        dataset = ("blobs", dict(
            num_classes=classes,
            dim=dim,
            samples_per_class=draw(st.integers(fewest, max(fewest, 10))),
            spread=draw(st.sampled_from([0.3, 1.0])),
            seed=draw(st.integers(0, 2**16)),
        ))
    return dict(
        method=method,
        rounds=draw(st.integers(1, 3)),
        clients=clients,
        cpr=draw(st.sampled_from([0.2, 0.5, 0.7, 1.0])),
        local_epochs=draw(st.integers(1, 2)),
        lr=draw(st.sampled_from([0.05, 0.5])),
        batch_size=draw(st.sampled_from([1, 3, 8, 64])),
        pack=pack,
        seed=draw(st.integers(0, 2**16)),
        partition=PartitionSpec(
            law=law,
            num_clients=clients,
            seed=draw(st.integers(0, 2**16)),
            alpha=draw(st.sampled_from([0.05, 0.5, 5.0])),
            shards_per_client=shards,
            test_fraction=draw(st.sampled_from([0.2, 0.5])),
        ),
        model=ShapeSpec(widths, draw(st.sampled_from(["relu", "identity"]))),
        dataset=dataset,
        cap_ratio=draw(st.sampled_from([0.1, 0.5, 1.0])),
        weight_mode=draw(st.sampled_from(["dual", "cos_only", "kl_only"])),
        prox_mu=draw(st.sampled_from([0.01, 0.5])),
        topk_fraction=draw(st.sampled_from([0.05, 0.3, 1.0])),
    )


def config_of(fields, idx_spec) -> RunConfig:
    kind, blobs = fields["dataset"]
    dataset = idx_spec if kind == "idx" else DatasetSpec(kind="blobs", **blobs)
    return RunConfig(**dict(fields, dataset=dataset))


def outcome(call):
    """What `call()` returns, or the exception it raises."""
    try:
        return call()
    except Exception as error:
        return error


def check_run(config):
    """Run `config` and the oracle, and compare every round exactly; when
    either fails, both must fail with the same error type and message."""
    servers = []
    result = outcome(
        lambda: run(*setup_run(config), round_hook=lambda t, server: servers.append(server))
    )
    oracle = outcome(lambda: run_oracle.run(config))
    if isinstance(result, Exception) or isinstance(oracle, Exception):
        assert (type(result), str(result)) == (type(oracle), str(oracle))
        return result
    rounds, per_client = oracle
    assert len(result.metrics) == len(servers) == len(rounds) == config.rounds
    for server, got, want in zip(servers, result.metrics, rounds):
        assert server.global_params.values.tobytes() == want.global_bytes, f"round {got.round}"
        assert same(server.global_mask.totals, want.totals), f"round {got.round}"
        assert (got.bytes_up, got.bytes_down, got.violations) == (
            want.bytes_up, want.bytes_down, want.violations
        ), f"round {got.round}"
        assert (got.global_acc, got.personalized_acc) == (
            want.global_acc, want.personalized_acc
        ), f"round {got.round}"
    assert result.per_client_acc == per_client
    return result


# five fedcspack clients send every package in every round, so the sums
# of the fold depend on its order: at this seed a fold in descending client
# id moves round 0's global model
FOLD_ORDER = dict(
    method="fedcspack", rounds=3, clients=5, cpr=1.0, local_epochs=1, lr=0.5, batch_size=3,
    pack=5, seed=1, cap_ratio=1.0, weight_mode="dual", prox_mu=0.01, topk_fraction=0.3,
    partition=PartitionSpec(law="dirichlet", num_clients=5, seed=4, alpha=5.0),
    model=ShapeSpec((3, 3, 3)),
    dataset=("blobs", dict(num_classes=3, dim=3, samples_per_class=8, spread=1.0, seed=6)),
)

# six clients of two shards each need twelve rows of the one class, more
# than the ten the strategy once capped samples_per_class at
SHARDS_OVER_CAP = dict(
    FOLD_ORDER, clients=6, cpr=0.5, pack=3,
    partition=PartitionSpec(law="pathological", num_clients=6, seed=0, shards_per_client=2),
    model=ShapeSpec((1, 1)),
    dataset=("blobs", dict(num_classes=1, dim=1, samples_per_class=12, spread=0.3, seed=0)),
)

# honest SGD at lr 0.5 overflows float32 in round 2: run and the oracle
# both raise NumericError("non-finite parameter values")
DIVERGES = dict(
    FOLD_ORDER, clients=1, cpr=0.2, local_epochs=2, batch_size=1, pack=1, seed=3,
    cap_ratio=0.1, topk_fraction=0.05,
    partition=PartitionSpec(law="dirichlet", num_clients=1, seed=0, alpha=0.5),
    model=ShapeSpec((1, 2, 3, 3), "identity"),
    dataset=("blobs", dict(num_classes=3, dim=1, samples_per_class=1, spread=0.3, seed=1)),
)


# a divergent run's float32 cast overflows before it raises NumericError
OVERFLOW = pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")


class TestRunOracle:
    @OVERFLOW
    @settings(max_examples=100, deadline=None)
    @given(fields=configs())
    @example(fields=FOLD_ORDER)
    # half the clients send half the packages: at this seed, a round scored
    # through the pre-round mask differs from round 0 on
    @example(fields=dict(FOLD_ORDER, cpr=0.5, cap_ratio=0.5, weight_mode="kl_only", seed=5))
    @example(fields=SHARDS_OVER_CAP)
    @example(fields=DIVERGES)
    def test_matches_oracle(self, idx_spec, fields):
        check_run(config_of(fields, idx_spec))

    @OVERFLOW
    def test_divergent_training_fails_alike(self):
        """The divergent example fails in both loops, and fails alike."""
        error = check_run(config_of(DIVERGES, idx_spec=None))
        assert isinstance(error, NumericError) and str(error) == "non-finite parameter values"


@st.composite
def resumes(draw):
    """A tiny run's fields and the round k, 0 to rounds, it resumes at."""
    fields = draw(configs())
    return fields, draw(st.integers(0, fields["rounds"]))


def resumed(config, k):
    """Rounds 0..k-1 folded from one set-up, then the state copied into
    fresh arrays and rounds k..R-1 folded from a second set-up built anew:
    the server after each round, the metrics rows, the final local models
    and the last per-client accuracies."""
    setup, server, locals_ = setup_run(config)
    servers, rows, per_client = [], [], None
    for t in range(config.rounds):
        if t == k:
            setup = setup_run(config)[0]
            server, locals_ = copied_state(server, locals_)
        server, row, per_client = round_step(setup, server, locals_, t)
        servers.append(server)
        rows.append(row)
    return servers, rows, locals_, per_client


class TestResume:
    @OVERFLOW
    @settings(max_examples=100, deadline=None)
    @given(case=resumes())
    @example(case=(FOLD_ORDER, 1))
    # round 2 diverges, so the resumed half raises
    @example(case=(DIVERGES, 2))
    def test_resumed_run_equals_whole(self, idx_spec, case):
        fields, k = case
        config = config_of(fields, idx_spec)
        servers = []
        whole = outcome(
            lambda: run(*setup_run(config), round_hook=lambda t, server: servers.append(server))
        )
        parts = outcome(lambda: resumed(config, k))
        if isinstance(whole, Exception) or isinstance(parts, Exception):
            assert (type(parts), str(parts)) == (type(whole), str(whole))
            return
        got_servers, rows, locals_, per_client = parts
        assert len(got_servers) == len(servers) == config.rounds
        for t, (got, want) in enumerate(zip(got_servers, servers)):
            assert got.global_params.values.tobytes() == want.global_params.values.tobytes(), t
            assert same(got.global_mask.totals, want.global_mask.totals), t
        # wall_ms is the one column a clock writes
        assert [replace(r, wall_ms=0.0) for r in rows] == [
            replace(r, wall_ms=0.0) for r in whole.metrics
        ]
        assert [m.values.tobytes() for m in locals_] == [m.values.tobytes() for m in whole.locals_]
        assert per_client == whole.per_client_acc
