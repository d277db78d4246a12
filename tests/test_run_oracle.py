"""A whole run equals the reference round loop in run_oracle.py, round by
round and exactly: the global parameter bytes, the mask, both byte
counts, violations, both accuracies and the final per-client accuracies.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import run_oracle
from conftest import idx_blobs, same
from fedcspack.config import DatasetSpec, RunConfig
from fedcspack.model import ShapeSpec
from fedcspack.partition import PartitionSpec
from fedcspack.protocol import run

# the IDX pair every idx case reads: 3 classes of 8 rows, 4 features
IDX = dict(num_classes=3, dim=4, samples_per_class=8, seed=5)


@pytest.fixture(scope="module")
def idx_spec(tmp_path_factory):
    return idx_blobs(tmp_path_factory.mktemp("idx"), **IDX)


@st.composite
def configs(draw):
    """The fields of a tiny run: every method and weight mode; a pack that
    divides d, leaves a short tail or exceeds d; both partition laws, with
    as few rows as clients (some clients then hold no rows at all)."""
    method = draw(st.sampled_from(["fedcspack", "fedavg", "fedprox", "magnitude_topk"]))
    kind = draw(st.sampled_from(["blobs", "blobs", "idx"]))
    if kind == "idx":  # 24 rows fill any partition drawn here
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
        dataset = ("blobs", dict(
            num_classes=classes,
            dim=dim,
            samples_per_class=draw(st.integers(-(-clients * shards // classes), 10)),
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


def check_run(config):
    """Run `config` and the oracle, and compare every round exactly."""
    servers = []
    result = run(config, round_hook=lambda t, server: servers.append(server))
    rounds, per_client = run_oracle.run(config)
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


class TestRunOracle:
    @settings(max_examples=100, deadline=None)
    @given(fields=configs())
    @example(fields=FOLD_ORDER)
    # half the clients send half the packages: at this seed, a round scored
    # through the pre-round mask differs from round 0 on
    @example(fields=dict(FOLD_ORDER, cpr=0.5, cap_ratio=0.5, weight_mode="kl_only", seed=5))
    def test_matches_oracle(self, idx_spec, fields):
        check_run(config_of(fields, idx_spec))

    def test_client_without_train_rows(self):
        """Three rows for three clients: one client holds no rows, so it
        is sampled but neither trains nor sends."""
        fields = dict(
            FOLD_ORDER,
            clients=3,
            partition=PartitionSpec(law="dirichlet", num_clients=3, seed=0, alpha=0.05),
            model=ShapeSpec((2, 1)),
            dataset=("blobs", dict(num_classes=1, dim=2, samples_per_class=3, seed=1)),
        )
        result = check_run(config_of(fields, idx_spec=None))
        assert min(len(rows) for rows in result.partition.train) == 0
