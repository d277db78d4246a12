import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedcspack.cli import main
from fedcspack.config import apply_overrides, config_from_dict, load_config
from fedcspack.errors import ConfigError


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
        config = load_config(config_path)
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
        with pytest.raises(ConfigError, match="unknown keys in partition"):
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
        ],
    )
    def test_non_finite_rejected_at_load(self, overrides, field):
        doc = apply_overrides(base_doc(), overrides)
        with pytest.raises(ConfigError, match=field):
            config_from_dict(doc)

    def test_overrides(self):
        doc = apply_overrides(base_doc(), ["method=fedavg", "partition.alpha=1.5", "rounds=2"])
        config = config_from_dict(doc)
        assert config.method == "fedavg"
        assert config.partition.alpha == 1.5
        assert config.rounds == 2

    def test_bad_override_path(self):
        with pytest.raises(ConfigError, match="not found"):
            apply_overrides(base_doc(), ["nope.deep=1"])


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
        doc = json.loads((out / "run.json").read_text())
        assert doc["config"]["method"] == "fedcspack"
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


class TestPartitionReport:
    def test_prints_histograms(self, config_path, capsys):
        assert main(["partition-report", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and l[0].isspace() or l[:1].isdigit() or l.startswith(" ")]
        # one line per client after the two header lines
        assert len(out.splitlines()) == 2 + 6


class TestSweep:
    def test_grid(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    str(config_path),
                    "--grid",
                    "cpr=0.5,1.0",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        with open(out / "sweep_summary.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert (out / "cell_000" / "metrics.csv").exists()
        assert (out / "cell_001" / "metrics.csv").exists()


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
