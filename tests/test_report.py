import csv
import json

import pytest

import package_oracle as oracle
from conftest import small_config
from fedcspack import protocol
from fedcspack.cli import write_run
from fedcspack.protocol import RoundMetrics, run, setup_run
from fedcspack.report import (
    emit_series,
    per_client_accuracy,
    summarize,
    write_metrics_csv,
)


def metric(round_, bytes_up=100, global_acc=0.5, personalized_acc=0.6, participants=(0, 1)):
    return RoundMetrics(
        round=round_,
        method="fedavg",
        global_acc=global_acc,
        personalized_acc=personalized_acc,
        bytes_up=bytes_up,
        bytes_down=200,
        wall_ms=1.0,
        participants=participants,
        violations=0,
    )


def test_summarize_requires_metrics():
    with pytest.raises(ValueError):
        summarize([], 100)


def test_summarize_reductions():
    # 1, 3 and 4 participants: the baseline counts 8 dense models of 4·25
    # bytes, which no one round's count times the 3 rounds gives
    metrics = [
        metric(0, global_acc=0.2, participants=(2,)),
        metric(1, global_acc=0.9, participants=(0, 1, 3)),
        metric(2, global_acc=0.7, participants=(0, 1, 2, 3)),
    ]
    s = summarize(metrics, total_params=25)
    assert s.final_global_acc == 0.7
    assert s.best_global_acc == 0.9
    assert s.total_bytes_up == 300
    assert s.compression_vs_dense == 800 / 300


def test_fedavg_dense_compression_near_one():
    # single-package dense run: only the codec header is overhead; the
    # model must be big enough that 38 header bytes stay under 1%
    from fedcspack.model import ShapeSpec

    config = small_config(
        method="fedavg", rounds=3, pack=10_000, model=ShapeSpec([16, 64, 6])
    )
    result = run(*setup_run(config))
    s = summarize(result.metrics, config.model.total_params)
    assert 1 / 1.01 <= s.compression_vs_dense <= 1.0


def test_capped_run_compression():
    config = small_config(method="fedcspack", cap_ratio=0.25, pack=64, rounds=3)
    result = run(*setup_run(config))
    s = summarize(result.metrics, config.model.total_params)
    assert s.compression_vs_dense > 1.0


def test_summary_recomputable_from_csv(tmp_path):
    """The summary a run prints follows from its metrics.csv and run.json
    alone: the dense baseline is 4·d bytes per listed participant, with d
    counted from the model widths."""
    s = write_run(run(*setup_run(small_config(rounds=3))), tmp_path)
    with open(tmp_path / "metrics.csv") as f:
        rows = list(csv.DictReader(f))
    widths = json.loads((tmp_path / "run.json").read_text())["config"]["model"]["widths"]
    d = sum(n_in * n_out + n_out for n_in, n_out in zip(widths, widths[1:]))
    assert float(rows[-1]["global_acc"]) == s.final_global_acc
    assert max(float(r["global_acc"]) for r in rows) == s.best_global_acc
    bytes_up = sum(int(r["bytes_up"]) for r in rows)
    assert bytes_up == s.total_bytes_up
    participants = sum(len(r["participants"].split(";")) for r in rows)
    assert 4 * d * participants / bytes_up == s.compression_vs_dense


# the per-round series files and the metrics.csv columns each one holds
ROUND_COLUMNS = {
    "acc_vs_round.csv": ["round", "global_acc", "personalized_acc"],
    "bytes_vs_round.csv": ["round", "bytes_up", "bytes_down"],
}
SERIES_FILES = {*ROUND_COLUMNS, "per_client_acc.csv"}


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_emit_series_shapes(tmp_path):
    config = small_config(rounds=3)
    result = run(*setup_run(config))
    assert emit_series(result.metrics, per_client_accuracy(result), tmp_path) is None
    assert {f.name for f in tmp_path.iterdir()} == SERIES_FILES
    assert len(read_csv(tmp_path / "acc_vs_round.csv")) == 4  # header + 3 rounds
    assert len(read_csv(tmp_path / "per_client_acc.csv")) == 1 + config.clients


def test_emit_series_empty_metrics(tmp_path):
    emit_series([], [], tmp_path)
    assert {f.name for f in tmp_path.iterdir()} == SERIES_FILES
    for name, columns in ROUND_COLUMNS.items():
        assert read_csv(tmp_path / name) == [columns]  # header only
    assert read_csv(tmp_path / "per_client_acc.csv") == [["client", "accuracy"]]


def test_round_series_are_column_views_of_metrics_csv(tmp_path):
    result = run(*setup_run(small_config(method="fedcspack", cap_ratio=0.5, rounds=3)))
    write_metrics_csv(result.metrics, tmp_path / "metrics.csv")
    emit_series(result.metrics, per_client_accuracy(result), tmp_path)
    header, *rows = read_csv(tmp_path / "metrics.csv")
    assert len(rows) == 3
    for name, columns in ROUND_COLUMNS.items():
        picks = [header.index(c) for c in columns]
        assert read_csv(tmp_path / name) == [columns] + [[row[i] for i in picks] for row in rows]


@pytest.mark.parametrize("method", ["fedcspack", "magnitude_topk"])
def test_per_client_accuracy_matches_reference(monkeypatch, method):
    make_partition = protocol.make_partition

    def client_1_without_test_rows(dataset, spec):
        partition = make_partition(dataset, spec)
        partition.test[1] = partition.test[1][:0]
        return partition

    monkeypatch.setattr(protocol, "make_partition", client_1_without_test_rows)
    result = run(*setup_run(small_config(method=method, rounds=2)))
    accs = per_client_accuracy(result)
    assert accs[1] == 0.0 and any(a > 0 for a in accs)
    assert accs == oracle.per_client_accuracy(result)
