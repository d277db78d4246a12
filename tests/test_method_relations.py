"""Relations between rows of `config.METHODS`, checked without an oracle.

Each relation names configs whose runs must agree bit for bit: per round
the global model's digest and both accuracies, or, when one run raises,
the same error type and message.  The byte relations check what each
client's update is metered at.  The configs are the run oracle's tiny
ones, so a relation can catch a misreading that `protocol.run` and
`run_oracle.py` share.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import idx_blobs
from fedcspack import protocol
from fedcspack.errors import NumericError
from fedcspack.packing import ceil_share
from fedcspack.partition import PartitionSpec
from test_run_oracle import FOLD_ORDER, IDX, OVERFLOW, config_of, configs, outcome

# a drawn config whose SGD diverges compares the NumericError both runs raise
pytestmark = OVERFLOW

# d = 12 at pack 5: two full packages and a short tail; one of the three
# clients is sampled per round
TAIL = dict(FOLD_ORDER, clients=3, cpr=0.3, pack=5,
            partition=PartitionSpec(law="dirichlet", num_clients=3, seed=4, alpha=5.0))


@pytest.fixture(scope="module")
def idx_spec(tmp_path_factory):
    return idx_blobs(tmp_path_factory.mktemp("idx"), **IDX)


def observe(config, mask=False):
    """The run's (global digest, global acc, personalized acc) per round,
    or the type and message of the error it raises; and the encoded size
    of every update a client built.  With `mask`, the digest covers the
    global mask's totals too."""
    digests, sizes = [], []
    build = protocol._client_update

    def client_update(*args):
        update = build(*args)
        sizes.append(update.encoded_length())
        return update

    def digest(t, server):
        state = hashlib.sha256(server.global_params.values)
        if mask:
            state.update(server.global_mask.totals)
        digests.append(state.hexdigest())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_client_update", client_update)
        result = outcome(lambda: protocol.run(*protocol.setup_run(config), round_hook=digest))
    if isinstance(result, Exception):
        return (type(result), str(result)), sizes
    return [(g, m.global_acc, m.personalized_acc) for g, m in zip(digests, result.metrics)], sizes


def trajectory(fields, idx_spec, mask=False, **overrides):
    return observe(config_of(dict(fields, **overrides), idx_spec), mask)[0]


def metered(config):
    """The metrics row of every round `config` completes: a run whose SGD
    diverges stops at the round that raises NumericError."""
    setup, server, locals_ = protocol.setup_run(config)
    rows = []
    try:
        for t in range(config.rounds):
            server, row, _ = protocol.round_step(setup, server, locals_, t)
            rows.append(row)
    except NumericError:
        pass
    return rows


def d_of(fields) -> int:
    return fields["model"].total_params


def one_sender(fields) -> dict:
    """`fields` with one client sampled per round."""
    fields = dict(fields, cpr=1 / fields["clients"])
    assert ceil_share(fields["cpr"], fields["clients"]) == 1
    return fields


RELATION = settings(max_examples=25, deadline=None)
BASELINES = ["fedavg", "fedprox", "magnitude_topk"]


class TestSameRun:
    @RELATION
    @given(fields=configs())
    @example(fields=TAIL)
    def test_topk_at_fraction_one_is_fedavg(self, idx_spec, fields):
        fedavg = trajectory(fields, idx_spec, method="fedavg")
        assert trajectory(fields, idx_spec, method="magnitude_topk", topk_fraction=1.0) == fedavg

    @RELATION
    @given(fields=configs())
    @example(fields=TAIL)
    def test_fedavg_is_the_same_at_every_pack(self, idx_spec, fields):
        d = d_of(fields)
        at_one = trajectory(fields, idx_spec, method="fedavg", pack=1)
        for pack in (fields["pack"], 128, d):
            assert trajectory(fields, idx_spec, method="fedavg", pack=pack) == at_one, pack

    @RELATION
    @given(fields=configs())
    @example(fields=TAIL)
    def test_one_sender_fedcspack_at_whole_model_pack_is_fedavg(self, idx_spec, fields):
        """One package and one sender: the package is always sent, weighs
        w / w = 1, and every pull adopts it, as fedavg's does.  Every client
        holds train rows, so no round is left without a sender to leave the
        package invalid."""
        fields = one_sender(fields)
        d = d_of(fields)
        fedavg = trajectory(fields, idx_spec, method="fedavg", pack=d)
        for pack in (d, d + 5):
            assert trajectory(fields, idx_spec, method="fedcspack", pack=pack) == fedavg, pack

    @RELATION
    @given(fields=configs())
    @example(fields=TAIL)
    def test_one_sender_weight_modes_agree(self, idx_spec, fields):
        """Each package has at most one sender, so each weight over its
        package's total is 1 under every mode."""
        fields = dict(one_sender(fields), method="fedcspack")
        dual = trajectory(fields, idx_spec, weight_mode="dual")
        for mode in ("cos_only", "kl_only"):
            assert trajectory(fields, idx_spec, weight_mode=mode) == dual, mode

    @RELATION
    @given(fields=configs(), method=st.sampled_from(BASELINES))
    @example(fields=TAIL, method="fedavg")
    @example(fields=TAIL, method="fedprox")
    @example(fields=TAIL, method="magnitude_topk")
    def test_baselines_ignore_weight_mode(self, idx_spec, fields, method):
        """A baseline folds every package at 1.0, so neither its model nor
        its mask totals depend on weight_mode."""
        fields = dict(fields, method=method)
        dual = trajectory(fields, idx_spec, mask=True, weight_mode="dual")
        for mode in ("cos_only", "kl_only"):
            assert trajectory(fields, idx_spec, mask=True, weight_mode=mode) == dual, mode


class TestBytes:
    @RELATION
    @given(fields=configs())
    @example(fields=TAIL)
    def test_topk_at_fraction_one_sends_every_coordinate(self, idx_spec, fields):
        fields = dict(fields, method="magnitude_topk", topk_fraction=1.0)
        _, sizes = observe(config_of(fields, idx_spec))
        assert set(sizes) <= {22 + 20 * d_of(fields)}

    @RELATION
    @given(fields=configs())
    @example(fields=TAIL)
    def test_fedcspack_client_never_sends_more_than_a_dense_one(self, idx_spec, fields):
        """A dense client sends every one of the J packages: 22 + 16 J + 4 d."""
        d = d_of(fields)
        dense = 22 + 16 * -(-d // fields["pack"]) + 4 * d
        _, fedavg = observe(config_of(dict(fields, method="fedavg"), idx_spec))
        _, sizes = observe(config_of(dict(fields, method="fedcspack", cap_ratio=1.0), idx_spec))
        assert set(fedavg) <= {dense}
        assert all(size <= dense for size in sizes)

    @RELATION
    @given(fields=configs(), method=st.sampled_from(BASELINES))
    @example(fields=TAIL, method="fedavg")
    @example(fields=TAIL, method="fedprox")
    @example(fields=TAIL, method="magnitude_topk")
    def test_every_participant_sends_one_update(self, idx_spec, fields, method):
        """Every sampled client holds train rows, so each sends one update
        of its method's closed-form size: 22 + 16 J + 4 d dense, and
        22 + 20 k for Top-k's k = ceil_share(f, d) one-value entries."""
        config = config_of(dict(fields, method=method), idx_spec)
        d = d_of(fields)
        if method == "magnitude_topk":
            size = 22 + 20 * ceil_share(config.topk_fraction, d)
        else:
            size = 22 + 16 * -(-d // config.pack) + 4 * d
        for row in metered(config):
            assert row.bytes_up == len(row.participants) * size, row.round
