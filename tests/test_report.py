import csv

import pytest

import package_oracle as oracle
from conftest import small_config
from fedcspack import protocol
from fedcspack.protocol import RoundMetrics, run
from fedcspack.report import (
    emit_series,
    per_client_accuracy,
    summarize,
    write_metrics_csv,
)


def metric(round_, bytes_up=100, global_acc=0.5, personalized_acc=0.6):
    return RoundMetrics(
        round=round_,
        method="fedavg",
        global_acc=global_acc,
        personalized_acc=personalized_acc,
        bytes_up=bytes_up,
        bytes_down=200,
        wall_ms=1.0,
        participants=(0, 1),
        violations=0,
    )


def test_summarize_requires_metrics():
    with pytest.raises(ValueError):
        summarize([], 100)


def test_summarize_reductions():
    metrics = [metric(0, global_acc=0.2), metric(1, global_acc=0.9), metric(2, global_acc=0.7)]
    s = summarize(metrics, dense_bytes_per_round=100)
    assert s.final_global_acc == 0.7
    assert s.best_global_acc == 0.9
    assert s.total_bytes_up == 300
    assert s.compression_vs_dense == pytest.approx(1.0)


def test_fedavg_dense_compression_near_one():
    # single-package dense run: only the codec header is overhead; the
    # model must be big enough that 38 header bytes stay under 1%
    from fedcspack.model import ShapeSpec

    config = small_config(
        method="fedavg", rounds=3, pack=10_000, model=ShapeSpec([16, 64, 6])
    )
    result = run(config)
    s = summarize(result.metrics, result.dense_bytes_per_round)
    assert 1 / 1.01 <= s.compression_vs_dense <= 1.0


def test_capped_run_compression():
    config = small_config(method="fedcspack", cap_ratio=0.25, pack=64, rounds=3)
    result = run(config)
    s = summarize(result.metrics, result.dense_bytes_per_round)
    assert s.compression_vs_dense > 1.0


def test_summary_recomputable_from_csv(tmp_path):
    config = small_config(rounds=3)
    result = run(config)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(result.metrics, path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    s = summarize(result.metrics, result.dense_bytes_per_round)
    assert float(rows[-1]["global_acc"]) == s.final_global_acc
    assert max(float(r["global_acc"]) for r in rows) == s.best_global_acc
    assert sum(int(r["bytes_up"]) for r in rows) == s.total_bytes_up


def test_emit_series_shapes(tmp_path):
    config = small_config(rounds=3)
    result = run(config)
    files = emit_series(result.metrics, per_client_accuracy(result), tmp_path)
    assert {f.name for f in files} == {
        "acc_vs_round.csv",
        "bytes_vs_round.csv",
        "per_client_acc.csv",
    }
    with open(tmp_path / "acc_vs_round.csv") as f:
        assert len(list(csv.reader(f))) == 4  # header + 3 rounds
    with open(tmp_path / "per_client_acc.csv") as f:
        assert len(list(csv.reader(f))) == 1 + config.clients


def test_emit_series_empty_metrics(tmp_path):
    files = emit_series([], [], tmp_path)
    for f in files:
        with open(f) as fh:
            assert len(list(csv.reader(fh))) == 1  # headers only


@pytest.mark.parametrize("method", ["fedcspack", "magnitude_topk"])
def test_per_client_accuracy_matches_reference(monkeypatch, method):
    make_partition = protocol.make_partition

    def client_1_without_test_rows(dataset, spec):
        partition = make_partition(dataset, spec)
        partition.test[1] = partition.test[1][:0]
        return partition

    monkeypatch.setattr(protocol, "make_partition", client_1_without_test_rows)
    result = run(small_config(method=method, rounds=2))
    accs = per_client_accuracy(result)
    assert accs[1] == 0.0 and any(a > 0 for a in accs)
    assert accs == oracle.per_client_accuracy(result)
