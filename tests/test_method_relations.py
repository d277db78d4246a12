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
from hypothesis import assume, example, given, settings

from conftest import idx_blobs
from fedcspack import protocol
from fedcspack.packing import ceil_share
from fedcspack.partition import PartitionSpec
from test_run_oracle import FOLD_ORDER, IDX, OVERFLOW, config_of, configs, outcome

# a drawn config whose SGD diverges compares the NumericError both runs raise
pytestmark = OVERFLOW

# d = 12 at pack 5: two full packages and a short tail; each of the three
# clients holds train rows, and one is sampled per round
TAIL = dict(FOLD_ORDER, clients=3, cpr=0.3, pack=5,
            partition=PartitionSpec(law="dirichlet", num_clients=3, seed=4, alpha=5.0))


@pytest.fixture(scope="module")
def idx_spec(tmp_path_factory):
    return idx_blobs(tmp_path_factory.mktemp("idx"), **IDX)


def observe(config):
    """The run's (global digest, global acc, personalized acc) per round,
    or the type and message of the error it raises; and the encoded size
    of every update a client built."""
    digests, sizes = [], []
    build = protocol._client_update

    def client_update(*args):
        update = build(*args)
        sizes.append(update.encoded_length())
        return update

    def digest(t, server):
        digests.append(hashlib.sha256(server.global_params.values).hexdigest())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_client_update", client_update)
        result = outcome(lambda: protocol.run(*protocol.setup_run(config), round_hook=digest))
    if isinstance(result, Exception):
        return (type(result), str(result)), sizes
    return [(g, m.global_acc, m.personalized_acc) for g, m in zip(digests, result.metrics)], sizes


def trajectory(fields, idx_spec, **overrides):
    return observe(config_of(dict(fields, **overrides), idx_spec))[0]


def d_of(fields) -> int:
    return fields["model"].total_params


def one_sender(fields) -> dict:
    """`fields` with one client sampled per round."""
    fields = dict(fields, cpr=1 / fields["clients"])
    assert ceil_share(fields["cpr"], fields["clients"]) == 1
    return fields


RELATION = settings(max_examples=25, deadline=None)


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
        w / w = 1, and every pull adopts it, as fedavg's does.  A round
        without a sender would leave it invalid, so every client must hold
        train rows."""
        fields = one_sender(fields)
        config = config_of(fields, idx_spec)
        partition = protocol.setup_run(config)[0].partition
        assume(min(len(rows) for rows in partition.train) > 0)
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
