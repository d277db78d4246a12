import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import idx_blobs
from fedcspack import cli, protocol
from fedcspack.cli import main
from fedcspack.config import apply_overrides, config_from_dict, config_to_dict
from fedcspack.errors import ConfigError
from fedcspack.protocol import build_dataset, run, setup_run
from fedcspack.report import summarize


def base_doc():
    return {
        "method": "fedcspack",
        "rounds": 3,
        "clients": 6,
        "cpr": 0.5,
        "local_epochs": 1,
        "lr": 0.1,
        "batch_size": 16,
        "pack": 64,
        "cap_ratio": 0.5,
        "seed": 1,
        "partition": {"law": "dirichlet", "num_clients": 6, "seed": 2, "alpha": 0.5},
        "model": {"widths": [12, 16, 5], "activation": "relu"},
        "dataset": {
            "kind": "blobs",
            "num_classes": 5,
            "dim": 12,
            "samples_per_class": 40,
            "spread": 0.3,
            "seed": 3,
        },
    }


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_doc()))
    return path


class TestConfig:
    def test_loads(self, config_path):
        with open(config_path) as f:
            config = config_from_dict(json.load(f))
        assert config.method == "fedcspack"
        assert config.model.total_params == 12 * 16 + 16 + 16 * 5 + 5

    def test_unknown_top_level_key(self):
        doc = base_doc()
        doc["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict(doc)

    def test_unknown_nested_key(self):
        doc = base_doc()
        doc["partition"]["bogus"] = 1
        with pytest.raises(ConfigError, match=re.escape("unknown keys in config.partition")):
            config_from_dict(doc)

    @pytest.mark.parametrize("section", ["partition", "model", "dataset"])
    def test_missing_section(self, section):
        doc = base_doc()
        del doc[section]
        with pytest.raises(ConfigError, match=re.escape(f"config.{section} is required")):
            config_from_dict(doc)

    def test_clients_partition_mismatch(self):
        doc = base_doc()
        doc["clients"] = 7
        with pytest.raises(ConfigError, match="num_clients"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("batch_size", 0),
            ("batch_size", -4),
            ("local_epochs", 0),
            ("cap_ratio", 0.0),
            ("cap_ratio", 1.5),
            ("payload", "raw"),
            # method-specific ranges hold for every method
            ("topk_fraction", float("nan")),
            ("topk_fraction", -3),
            ("prox_mu", -1),
            # finite, but beyond the float range
            ("lr", 10**400),
            # the wire writes pack into a u32 header field
            ("pack", 2**32),
        ],
    )
    def test_out_of_range_rejected_at_load(self, key, value):
        doc = base_doc()
        doc[key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (["lr=NaN"], "lr"),
            (["lr=Infinity"], "lr"),
            (["method=fedprox", "prox_mu=NaN"], "prox_mu"),
            (["partition.alpha=NaN"], "alpha"),
            (["dataset.spread=NaN"], "spread"),
            # ranges hold for every partition law and dataset kind
            (["partition.law=pathological", "partition.alpha=NaN"], "alpha"),
            (["partition.law=pathological", "partition.alpha=-Infinity"], "alpha"),
            (['dataset={"kind": "idx", "images": "i.idx", "labels": "l.idx"}',
              "dataset.spread=NaN"], "spread"),
            (["dataset.images=NaN"], "images"),
        ],
    )
    def test_non_finite_rejected_at_load(self, overrides, field):
        doc = apply_overrides(base_doc(), overrides)
        with pytest.raises(ConfigError, match=field):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "override, message",
        [
            ("rounds=true", "rounds must be an integer"),
            ("clients=6.0", "clients must be an integer"),
            ("pack=1.5", "pack must be an integer"),
            ("local_epochs=false", "local_epochs must be an integer"),
            ("batch_size=16.0", "batch_size must be an integer"),
            ("seed=1.0", "seed must be an integer"),
            ("seed=-1", "seed must be >= 0"),
            ("partition.num_clients=true", "num_clients must be an integer"),
            ("partition.seed=2.5", "partition.seed must be an integer"),
            ("partition.seed=-1", "partition.seed must be >= 0"),
            ("partition.shards_per_client=2.0", "shards_per_client must be an integer"),
            ("dataset.num_classes=5.0", "num_classes must be an integer"),
            ("dataset.dim=true", "dim must be an integer"),
            ("dataset.samples_per_class=40.5", "samples_per_class must be an integer"),
            ("dataset.seed=false", "dataset.seed must be an integer"),
            ("dataset.seed=-3", "dataset.seed must be >= 0"),
        ],
    )
    def test_integer_fields_checked_at_load(self, override, message):
        doc = apply_overrides(base_doc(), [override])
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "override, message",
        [
            ("lr=true", "lr must be a real number"),
            ("cpr=true", "cpr must be a real number"),
            ("cap_ratio=true", "cap_ratio must be a real number"),
            ("prox_mu=false", "prox_mu must be a real number"),
            ("topk_fraction=true", "topk_fraction must be a real number"),
            ("partition.alpha=true", "partition.alpha must be a real number"),
            ("partition.test_fraction=\"0.2\"", "partition.test_fraction must be a real number"),
            ("dataset.spread=true", "dataset.spread must be a real number"),
        ],
    )
    def test_float_fields_checked_at_load(self, override, message):
        doc = apply_overrides(base_doc(), [override])
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "widths, message",
        [
            ([12.9, 16, 5], "model.widths[0] must be an integer"),
            ([12, True, 5], "model.widths[1] must be an integer"),
            ([12, 16, 0], "model.widths[2] must be >= 1"),
        ],
    )
    def test_model_widths_checked_at_load(self, widths, message):
        doc = base_doc()
        doc["model"]["widths"] = widths
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("model", "widths"), [12], "need at least input and output widths"),
            (("model", "activation"), "tanh", "unknown activation 'tanh'"),
            (("model", "widths"), 5, "model.widths must be a list"),
            (("partition",), 5, "config.partition must be a JSON object"),
            (("dataset",), [], "config.dataset must be a JSON object"),
            (
                ("dataset",),
                {"kind": "idx", "images": 5, "labels": "labels.idx"},
                "dataset.images must be a non-empty path",
            ),
            (("model", "widths"), [16, 8, 5], "dataset dim 12 != model input 16"),
            (
                ("partition", "test_fraction"),
                1,
                "partition.test_fraction must be a real number in (0, 1), got 1",
            ),
            (("dataset", "kind"), "csv", "unknown dataset kind 'csv'"),
            (("partition", "law"), "iid", "unknown partition law 'iid'"),
            (("method",), "fedsgd", "unknown method 'fedsgd'"),
            (("weight_mode",), "triple", "unknown weight_mode 'triple'"),
            (("method",), "fedprox", "fedprox requires prox_mu > 0"),
        ],
    )
    def test_bad_section_fails_at_load(self, path, value, message):
        doc = base_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(doc)

    def test_document_must_be_an_object(self):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            config_from_dict([base_doc()])

    def test_override_of_a_document_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([base_doc()]))
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            main(["run", "--config", str(path), "--override", "rounds=2",
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_more_blob_classes_than_model_outputs(self):
        doc = apply_overrides(base_doc(), ["dataset.num_classes=12"])
        doc["model"]["widths"] = [12, 16, 10]
        with pytest.raises(ConfigError, match="num_classes"):
            config_from_dict(doc)
        doc["dataset"]["num_classes"] = 10
        assert config_from_dict(doc).model.num_classes == 10

    def test_overrides(self):
        doc = apply_overrides(base_doc(), ["method=fedavg", "partition.alpha=1.5", "rounds=2"])
        config = config_from_dict(doc)
        assert config.method == "fedavg"
        assert config.partition.alpha == 1.5
        assert config.rounds == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            ["method=fedcspack", "weight_mode=kl_only"],
            ["method=fedavg"],
            ["method=fedprox", "prox_mu=0.01"],
            ["method=magnitude_topk", "topk_fraction=0.05"],
            ['dataset={"kind": "idx", "images": "i.idx", "labels": "l.idx"}'],
        ],
    )
    def test_to_dict_round_trips_through_json(self, overrides):
        config = config_from_dict(apply_overrides(base_doc(), overrides))
        assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config

    def test_bad_override_path(self):
        with pytest.raises(ConfigError, match="not found"):
            apply_overrides(base_doc(), ["nope.deep=1"])

    def test_override_without_equals(self):
        with pytest.raises(ConfigError, match=re.escape("override 'rounds' is not key=value")):
            apply_overrides(base_doc(), ["rounds"])

    @pytest.mark.parametrize(
        "command",
        [["run", "--out"], ["partition-report"], ["sweep", "--grid", "cpr=0.5,1.0", "--out"]],
        ids=["run", "partition-report", "sweep"],
    )
    @pytest.mark.parametrize(
        "plain, repeated, key",
        [
            ('"rounds": 3', '"rounds": 2, "rounds": 1', "rounds"),
            ('"alpha": 0.5', '"alpha": 0.5, "alpha": 2.0', "alpha"),
        ],
        ids=["top-level", "in-section"],
    )
    def test_repeated_key_rejected_at_load(self, tmp_path, capsys, command, plain, repeated, key):
        """json.load would keep a repeated key's last value; every command
        rejects the file before it writes anything."""
        text = json.dumps(base_doc())
        assert text.count(plain) == 1
        path = tmp_path / "repeated.json"
        path.write_text(text.replace(plain, repeated))
        out = tmp_path / "out"
        argv = [*command, str(out)] if command[-1] == "--out" else command
        with pytest.raises(ConfigError, match=re.escape(f"JSON object repeats key '{key}'")):
            main([*argv, "--config", str(path)])
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_repeated_key_in_an_override_value_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("JSON object repeats key 'alpha'")):
            apply_overrides(base_doc(), ['partition={"law": "dirichlet", "alpha": 1, "alpha": 2}'])


def reject_constant(name):
    """json's parse_constant hook: run.json holds no NaN or Infinity."""
    raise AssertionError(f"run.json holds {name}")


class TestRunCommand:
    def test_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "run.json").exists()
        assert (out / "acc_vs_round.csv").exists()
        with open(out / "metrics.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == [
            "round",
            "method",
            "global_acc",
            "personalized_acc",
            "bytes_up",
            "bytes_down",
            "wall_ms",
            "participants",
            "violations",
        ]
        assert len(rows) == 4
        doc = json.loads((out / "run.json").read_text(), parse_constant=reject_constant)
        assert doc["config"]["model"] == {"widths": [12, 16, 5], "activation": "relu"}
        assert config_from_dict(doc["config"]) == config_from_dict(base_doc())
        assert len(doc["rounds"]) == 3
        assert "final_global_acc" in capsys.readouterr().out

    def test_override_flag(self, config_path, tmp_path):
        out = tmp_path / "out2"
        main(
            [
                "run",
                "--config",
                str(config_path),
                "--override",
                "method=fedavg",
                "--out",
                str(out),
            ]
        )
        doc = json.loads((out / "run.json").read_text())
        assert doc["config"]["method"] == "fedavg"

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--grid", "method=fedavg"]])
    def test_out_naming_a_file_fails_before_any_round(self, config_path, tmp_path, monkeypatch, command):
        """--out is made before the rounds run, so naming a file costs no
        training."""
        def no_training(*args, **kwargs):
            raise RuntimeError("local_train called")

        monkeypatch.setattr(protocol, "local_train", no_training)
        out = tmp_path / "taken"
        out.write_text("not a directory")
        with pytest.raises(OSError):
            main([*command, "--config", str(config_path), "--out", str(out)])
        assert out.read_text() == "not a directory"


class TestPartitionReport:
    def test_prints_histograms(self, config_path, capsys):
        assert main(["partition-report", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and l[0].isspace() or l[:1].isdigit() or l.startswith(" ")]
        # one line per client after the two header lines
        assert len(out.splitlines()) == 2 + 6

    def test_rejects_what_run_rejects(self, tmp_path, capsys):
        """An IDX set whose row width is not the model's input fails both
        commands, before partition-report prints anything or run makes --out."""
        doc = base_doc()
        doc["dataset"] = dataclasses.asdict(idx_blobs(tmp_path, 5, 16, 40, seed=3))
        path = tmp_path / "idx.json"
        path.write_text(json.dumps(doc))
        for command in (["run", "--out", str(tmp_path / "out")], ["partition-report"]):
            with pytest.raises(ConfigError, match="dataset dim 16 != model input 12"):
                main([*command, "--config", str(path)])
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out").exists()


def test_commands_check_their_set_up_before_output(config_path, tmp_path, monkeypatch, capsys):
    """Every command assembles its runs through setup_run before it writes,
    so every check setup_run makes fails them before partition-report
    prints or run and sweep make --out."""
    def sentinel(*args, **kwargs):
        raise ConfigError("sentinel")

    monkeypatch.setattr(protocol, "init_params", sentinel)
    with pytest.raises(ConfigError, match="sentinel"):
        main(["partition-report", "--config", str(config_path)])
    assert capsys.readouterr().out == ""
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="sentinel"):
        main(["run", "--config", str(config_path), "--out", str(out)])
    assert not out.exists()
    out = tmp_path / "sweep"
    with pytest.raises(ConfigError, match="sentinel"):
        main(["sweep", "--config", str(config_path), "--grid", "cpr=0.5,1.0", "--out", str(out)])
    assert not out.exists()


def test_commands_reject_a_spread_beyond_float32(config_path, tmp_path, capsys):
    """Blobs whose features overflow float32 fail every command at set-up,
    with no overflow warning, before partition-report prints or run and
    sweep make --out."""
    spread = ["--override", "dataset.spread=1e300"]
    commands = {
        "partition-report": ["partition-report"],
        "run": ["run", "--out", str(tmp_path / "run")],
        "sweep": ["sweep", "--grid", "cpr=0.5,1.0", "--out", str(tmp_path / "sweep")],
    }
    for name, command in commands.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="dataset.spread"):
                main([*command, "--config", str(config_path), *spread])
        assert capsys.readouterr().out == "", name
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "sweep").exists()


class TestSweep:
    def test_grid(self, config_path, tmp_path):
        """sweep_summary.csv: the grid keys, the cell, then the RunSummary
        fields, each value as the cell's own `summarize` gives it."""
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_path), "--grid", "cpr=0.5,1.0",
                     "--out", str(out)]) == 0
        lines = (out / "sweep_summary.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == (
            "cpr,cell,method,final_global_acc,best_global_acc,mean_personalized_acc,"
            "total_bytes_up,compression_vs_dense"
        )
        result = run(*setup_run(config_from_dict(apply_overrides(base_doc(), ["cpr=1.0"]))))
        s = summarize(result.metrics, result.config.model.total_params)
        assert lines[2] == (
            f"1.0,cell_001,{s.method},{s.final_global_acc!r},{s.best_global_acc!r},"
            f"{s.mean_personalized_acc!r},{s.total_bytes_up},{s.compression_vs_dense!r}"
        )
        assert len(lines) == 4 and lines[3] == ""
        assert (out / "cell_000" / "metrics.csv").exists()
        assert (out / "cell_001" / "metrics.csv").exists()

    def test_one_set_up_per_cell(self, config_path, tmp_path, monkeypatch):
        """Each cell is partitioned once: the start its check builds is the
        one it runs from."""
        calls, make_partition = [], protocol.make_partition

        def counted(*args, **kwargs):
            calls.append(args)
            return make_partition(*args, **kwargs)

        monkeypatch.setattr(protocol, "make_partition", counted)
        assert main(["sweep", "--config", str(config_path), "--grid", "cpr=0.5,1.0",
                     "--out", str(tmp_path / "sweep")]) == 0
        assert len(calls) == 2

    def test_bad_cell_fails_before_any_cell_runs(self, config_path, tmp_path):
        """A bad value in the grid's last cell fails at load: no cell has
        run and --out is not made."""
        out = tmp_path / "sweep"
        with pytest.raises(ConfigError, match="cpr"):
            main(["sweep", "--config", str(config_path), "--grid", "cpr=0.5,1.0,7",
                  "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("dataset.samples_per_class=40,1", "insufficient data: 5 rows for 6 clients"),
            ("dataset.dim=12,7", "dataset dim 7 != model input 12"),
        ],
    )
    def test_bad_dataset_fails_before_any_cell_runs(self, config_path, tmp_path, grid, message):
        """A cell whose dataset does not fit its model or partition fails
        before any cell runs: --out is not made."""
        out = tmp_path / "sweep"
        with pytest.raises(ConfigError, match=message):
            main(["sweep", "--config", str(config_path), "--grid", grid, "--out", str(out)])
        assert not out.exists()

    def test_non_path_labels_fail_before_any_cell_runs(self, tmp_path):
        """A blobs dataset whose labels are a JSON object fails at load,
        before any dataset is built: --out is not made."""
        doc = base_doc()
        doc["dataset"]["labels"] = {"path": "labels.idx"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        with pytest.raises(ConfigError, match="dataset.labels must be a path string"):
            main(["sweep", "--config", str(path), "--grid", "cpr=0.5,1.0", "--out", str(out)])
        assert not out.exists()

    def test_repeated_grid_key_rejected(self, config_path, tmp_path):
        """A key given in two --grid options would keep only its last values."""
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit, match="'method' is given twice"):
            main(["sweep", "--config", str(config_path), "--grid", "method=fedavg,fedprox",
                  "--grid", "method=magnitude_topk", "--out", str(out)])
        assert not out.exists()

    def test_grid_without_equals_rejected(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit, match=re.escape("--grid 'method' is not key=v1,v2,...")):
            main(["sweep", "--config", str(config_path), "--grid", "method", "--out", str(out)])
        assert not out.exists()

    def test_datasets_built_once_per_command(self, config_path, tmp_path, monkeypatch):
        """Cells that share a dataset spec share one dataset, and each cell
        writes what a standalone run of its config writes."""
        calls = []

        def counted(spec):
            calls.append(spec)
            return build_dataset(spec)

        monkeypatch.setattr(cli, "build_dataset", counted)
        out = tmp_path / "sweep"
        grid = "method=fedcspack,fedavg"
        assert main(["sweep", "--config", str(config_path), "--grid", grid, "--out", str(out)]) == 0
        assert len(calls) == 1
        # a grid key that names a summary field keeps one column, in the grid's place
        header = (out / "sweep_summary.csv").read_text().splitlines()[0]
        assert header.startswith("method,cell,final_global_acc,")
        for cell, method in enumerate(("fedcspack", "fedavg")):
            alone = tmp_path / f"alone_{method}"
            main(["run", "--config", str(config_path), "--override", f"method={method}",
                  "--out", str(alone)])
            assert deterministic_metrics(out / f"cell_{cell:03d}") == deterministic_metrics(alone)

    def test_one_cell_writes_what_run_writes(self, config_path, tmp_path):
        """A sweep cell's files come from the writer `run` uses: the same
        five files, metrics.csv and run.json the same bytes apart from
        wall_ms values, and per_client_acc.csv the same bytes."""
        main(["sweep", "--config", str(config_path), "--grid", "method=fedcspack",
              "--out", str(tmp_path / "sweep")])
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "alone")])
        cell, alone = tmp_path / "sweep" / "cell_000", tmp_path / "alone"
        files = {"metrics.csv", "run.json", "acc_vs_round.csv", "bytes_vs_round.csv",
                 "per_client_acc.csv"}
        assert {p.name for p in cell.iterdir()} == {p.name for p in alone.iterdir()} == files
        assert without_wall_ms(cell) == without_wall_ms(alone)
        for name in ("acc_vs_round.csv", "bytes_vs_round.csv", "per_client_acc.csv"):
            assert (cell / name).read_bytes() == (alone / name).read_bytes(), name


def without_wall_ms(out_dir: Path) -> tuple[list[list[bytes]], bytes]:
    """metrics.csv split into fields, wall_ms column dropped, and run.json
    with each wall_ms value dropped, both read as bytes."""
    lines = [line.split(b",") for line in (out_dir / "metrics.csv").read_bytes().split(b"\r\n")]
    wall = lines[0].index(b"wall_ms")
    run_json = re.sub(rb'"wall_ms": [^,\n]*', b'"wall_ms"', (out_dir / "run.json").read_bytes())
    return [line[:wall] + line[wall + 1 :] for line in lines], run_json


def deterministic_metrics(out_dir: Path) -> list[list[str]]:
    """metrics.csv without its wall_ms column, the one timing field."""
    with open(out_dir / "metrics.csv") as f:
        rows = list(csv.reader(f))
    wall = rows[0].index("wall_ms")
    return [row[:wall] + row[wall + 1 :] for row in rows]


class TestInProcessCalls:
    """`main` reuses one parser per process; no call may see another's
    arguments."""

    def test_override_does_not_outlive_its_call(self, config_path, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        main(["run", "--config", str(config_path), "--override", "rounds=1", "--out", str(first)])
        main(["run", "--config", str(config_path), "--out", str(second)])
        assert json.loads((first / "run.json").read_text())["config"]["rounds"] == 1
        doc = json.loads((second / "run.json").read_text())
        assert doc["config"]["rounds"] == base_doc()["rounds"]
        assert len(doc["rounds"]) == base_doc()["rounds"]

    def test_valid_call_after_argument_error(self, config_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(config_path), "--bogus"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()

    def test_sweep_grids_not_shared(self, config_path, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        main(["sweep", "--config", str(config_path), "--grid", "cpr=0.5,1.0", "--out", str(first)])
        main(["sweep", "--config", str(config_path), "--grid", "method=fedavg", "--out", str(second)])
        with open(second / "sweep_summary.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        assert "cpr" not in rows[0]
        assert rows[0]["method"] == "fedavg"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_blas_threads_pinned_unless_set(preset, expected):
    """Importing the CLI in a fresh interpreter sets one BLAS thread before
    it loads numpy; a value already in the environment wins."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if preset is not None:
        env.update({var: preset for var in BLAS_VARS})
    # the environment as numpy sees it: read when numpy is first imported
    code = f"""
import os, sys
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(",".join(os.environ.get(v, "unset") for v in {BLAS_VARS!r}))
sys.meta_path.insert(0, Watch())
import fedcspack.cli
print(seen[0])
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ",".join([expected] * 3)
