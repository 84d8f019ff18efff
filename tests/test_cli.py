import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hvdesign
from hvdesign.cli import COMMANDS, build_parser, main
from hvdesign.errors import ConfigError
from hvdesign.hypervector import _schedule


@pytest.fixture
def synth_csv(tmp_path):
    path = str(tmp_path / "synth.csv")
    assert main(["synth", "--grid", "25", "--seed", "1", "--out", path]) == 0
    return path


class TestSynth:
    def test_round_trips_through_train(self, synth_csv, tmp_path, capsys):
        code = main(
            ["train", "--data", synth_csv, "--dim", "64", "--levels", "20", "--seed", "0"]
        )
        assert code == 0
        assert "wAcc=" in capsys.readouterr().out

    def test_contains_four_classes(self, synth_csv):
        labels = {line.rsplit(",", 1)[1] for line in open(synth_csv).read().splitlines()[1:]}
        assert labels == {"C1", "C2", "C3", "C4"}

    def test_identical_bytes_for_fixed_seed(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["synth", "--grid", "25", "--seed", "7", "--out", a])
        main(["synth", "--grid", "25", "--seed", "7", "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()


class TestTrain:
    def test_metrics_and_model_written(self, synth_csv, tmp_path):
        model_path = str(tmp_path / "m.hdcm")
        metrics_path = str(tmp_path / "metrics.json")
        code = main(
            [
                "train", "--data", synth_csv, "--dim", "128", "--levels", "20",
                "--seed", "0", "--out", model_path, "--metrics-out", metrics_path,
            ]
        )
        assert code == 0
        metrics = json.load(open(metrics_path))
        assert 0.0 <= metrics["train"]["wAcc"] <= 1.0
        assert metrics["modelBytes"] == os.path.getsize(model_path)

    def test_deterministic_for_fixed_seed(self, synth_csv, tmp_path, capsys):
        outs = []
        for _ in range(2):
            main(["train", "--data", synth_csv, "--dim", "64", "--seed", "5"])
            out = capsys.readouterr().out
            # drop the wall-clock inference-time field before comparing
            outs.append(out.split(" infTime=")[0])
        assert outs[0] == outs[1]

    def test_missing_file_exits_2(self, capsys):
        assert main(["train", "--data", "/does/not/exist.csv"]) == 2
        assert "/does/not/exist.csv" in capsys.readouterr().err

    def test_test_split_matches_eval(self, synth_csv, tmp_path):
        test_csv, model_path = str(tmp_path / "test.csv"), str(tmp_path / "m.hdcm")
        train_metrics, eval_metrics = str(tmp_path / "train.json"), str(tmp_path / "eval.json")
        assert main(["synth", "--grid", "20", "--seed", "2", "--out", test_csv]) == 0
        assert main(
            ["train", "--data", synth_csv, "--test", test_csv, "--dim", "64",
             "--out", model_path, "--metrics-out", train_metrics]
        ) == 0
        assert main(
            ["eval", "--model", model_path, "--data", test_csv, "--metrics-out", eval_metrics]
        ) == 0
        tested = json.load(open(train_metrics))["test"]
        evaluated = json.load(open(eval_metrics))
        assert tested["samples"] == 400
        assert tested["wAcc"] == evaluated["wAcc"]
        assert tested["confusion"] == evaluated["confusion"]

    def test_quoted_crlf_csv_gives_the_same_metrics(self, synth_csv, tmp_path):
        # numpy reads the plain file and the per-cell reference loop the quoted one.
        quoted = str(tmp_path / "quoted.csv")
        with open(synth_csv, newline="") as src, open(quoted, "w", newline="") as dst:
            writer = csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\r\n")
            writer.writerows(csv.reader(src))
        reports = []
        for path in (synth_csv, quoted):
            out = str(tmp_path / "metrics.json")
            assert main(["train", "--data", path, "--dim", "64", "--metrics-out", out]) == 0
            report = json.load(open(out))["train"]
            del report["inferenceMsPerSample"]  # a timing, not a result
            reports.append(report)
        assert reports[0] == reports[1]


class TestEval:
    def test_reproduces_train_metrics(self, synth_csv, tmp_path):
        model_path = str(tmp_path / "m.hdcm")
        train_metrics = str(tmp_path / "train.json")
        eval_metrics = str(tmp_path / "eval.json")
        main(
            [
                "train", "--data", synth_csv, "--dim", "64", "--levels", "20",
                "--seed", "0", "--out", model_path, "--metrics-out", train_metrics,
            ]
        )
        code = main(
            [
                "eval", "--model", model_path, "--data", synth_csv,
                "--metrics-out", eval_metrics,
            ]
        )
        assert code == 0
        trained = json.load(open(train_metrics))["train"]
        evaluated = json.load(open(eval_metrics))
        assert evaluated["wAcc"] == trained["wAcc"]
        assert evaluated["totalAcc"] == trained["totalAcc"]
        assert evaluated["confusion"] == trained["confusion"]

    def test_total_accuracy_is_trace_over_samples(self, synth_csv, tmp_path):
        model_path = str(tmp_path / "m.hdcm")
        metrics_path = str(tmp_path / "eval.json")
        main(["train", "--data", synth_csv, "--dim", "64", "--seed", "0", "--out", model_path])
        main(["eval", "--model", model_path, "--data", synth_csv, "--metrics-out", metrics_path])
        metrics = json.load(open(metrics_path))
        confusion = np.array(metrics["confusion"])
        assert metrics["totalAcc"] == pytest.approx(np.trace(confusion) / confusion.sum())

    def test_missing_data_exits_2(self, synth_csv, tmp_path):
        model_path = str(tmp_path / "m.hdcm")
        main(["train", "--data", synth_csv, "--dim", "64", "--seed", "0", "--out", model_path])
        assert main(["eval", "--model", model_path, "--data", str(tmp_path / "no.csv")]) == 2


class TestSweep:
    def test_rows_and_monotone_size(self, synth_csv, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(
            ["sweep", "--data", synth_csv, "--dims", "32,64,128", "--seed", "0", "--out", out]
        )
        assert code == 0
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 4
        sizes = [int(line.split(",")[-1]) for line in lines[1:]]
        assert sizes == sorted(sizes) and len(set(sizes)) == 3

    def test_size_is_the_saved_model_size(self, synth_csv, tmp_path):
        out, model_path = str(tmp_path / "sweep.csv"), str(tmp_path / "m.hdcm")
        assert main(["sweep", "--data", synth_csv, "--dims", "64", "--out", out]) == 0
        assert main(["train", "--data", synth_csv, "--dim", "64", "--out", model_path]) == 0
        size = int(open(out).read().strip().split("\n")[1].split(",")[-1])
        assert size == os.path.getsize(model_path)

    def test_odd_dim_rejected(self, synth_csv, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--data", synth_csv, "--dims", "33", "--out", out]) == 2


class TestOptimize:
    def test_front_csv_deterministic(self, tmp_path):
        # Tiny datasets keep this fast. One feature at M=3 gives N(M-1) = 2
        # genes. Three features at M=4 give 9, an odd count, so each pair's
        # second child takes its first fresh gene from the 32-bit half-word
        # its first child left over.
        one = tmp_path / "one.csv"
        values = np.linspace(0, 1, 12)
        rows = ["f1,label"] + [
            f"{v},{'a' if i in (0, 1, 4, 5, 6, 7, 8) else 'b'}"
            for i, v in enumerate(values)
        ]
        one.write_text("\n".join(rows) + "\n")
        three = tmp_path / "three.csv"
        rows = ["f1,f2,f3,label"]
        for i in range(60):
            x = [(i * k % 17) / 16 for k in (3, 5, 7)]
            rows.append(",".join(map(repr, x)) + "," + "abc"[int(3 * x[0]) % 3])
        three.write_text("\n".join(rows) + "\n")
        runs = [
            [one, "--dim", "16", "--levels", "3", "--pop", "20", "--gens", "10", "--seed", "4"],
            [three, "--levels", "4", "--pop", "20", "--gens", "5", "--seed", "3"],
        ]
        for data, *flags in runs:
            outs = []
            for name in ("f1.csv", "f2.csv"):
                out = str(tmp_path / name)
                assert main(["optimize", "--data", str(data), *flags, "--out", out]) == 0
                outs.append(open(out, "rb").read())
            assert outs[0] == outs[1]

    def test_best_models_written(self, tmp_path):
        data = tmp_path / "d.csv"
        values = np.linspace(0, 1, 12)
        rows = ["f1,label"] + [f"{v},{'a' if v < 0.5 else 'b'}" for v in values]
        data.write_text("\n".join(rows) + "\n")
        prefix = str(tmp_path / "best")
        code = main(
            [
                "optimize", "--data", str(data), "--dim", "16", "--levels", "3",
                "--pop", "20", "--gens", "5", "--seed", "4",
                "--out", str(tmp_path / "front.csv"), "--best-models-out", prefix,
            ]
        )
        assert code == 0
        assert os.path.exists(prefix + "-accuracy.hdcm")
        assert os.path.exists(prefix + "-robustness.hdcm")

    def test_search_and_best_models_draw_one_schedule(self, tmp_path):
        # Both best-member models are trained on the schedule the search
        # drew: one (seed, N, D) key, drawn once in the process.
        data = tmp_path / "d.csv"
        rows = ["f1,f2,label"] + [f"{v},{1 - v},{'a' if v < 0.5 else 'b'}"
                                  for v in np.linspace(0, 1, 12)]
        data.write_text("\n".join(rows) + "\n")
        prefix = str(tmp_path / "best")
        _schedule.cache_clear()
        code = main(["optimize", "--data", str(data), "--dim", "16", "--levels", "3",
                     "--pop", "20", "--gens", "5", "--seed", "4",
                     "--out", str(tmp_path / "front.csv"), "--best-models-out", prefix])
        assert code == 0
        info = _schedule.cache_info()
        assert info.misses == 1 and info.hits >= 2
        for tag in ("accuracy", "robustness"):
            assert hvdesign.load_model(f"{prefix}-{tag}.hdcm").table.seed == 4
        assert _schedule.cache_info().misses == 1


class TestExportEmbeddings:
    def test_export(self, synth_csv, tmp_path):
        model_path = str(tmp_path / "m.hdcm")
        out = str(tmp_path / "hv.csv")
        main(["train", "--data", synth_csv, "--dim", "64", "--seed", "0", "--out", model_path])
        code = main(["export-embeddings", "--model", model_path, "--data", synth_csv, "--out", out])
        assert code == 0
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 626  # 25*25 samples + header
        assert len(lines[0].split(",")) == 65


class TestConfigFile:
    def test_config_defaults_with_flag_override(self, synth_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dim": 32, "levels": 20, "seed": 9}))
        out_a = str(tmp_path / "a.hdcm")
        main(
            ["train", "--data", synth_csv, "--config", str(config), "--out", out_a]
        )
        out_b = str(tmp_path / "b.hdcm")
        main(
            ["train", "--data", synth_csv, "--dim", "32", "--levels", "20",
             "--seed", "9", "--out", out_b]
        )
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    @pytest.mark.parametrize(
        "flags",
        [["--conf", "{b}"], ["--config={a}", "--config", "{b}"], ["--config", "{a}", "--conf={b}"]],
        ids=["abbreviated", "last-wins", "last-abbreviated"],
    )
    def test_config_file_is_the_one_argparse_reads(self, flags, synth_csv, tmp_path):
        # argparse accepts unique prefixes of a flag and keeps its last value.
        (tmp_path / "a.json").write_text(json.dumps({"dim": 40, "seed": 2}))
        (tmp_path / "b.json").write_text(json.dumps({"dim": 64, "seed": 9}))
        out_a = str(tmp_path / "a.hdcm")
        flags = [flag.format(a=tmp_path / "a.json", b=tmp_path / "b.json") for flag in flags]
        assert main(["train", "--data", synth_csv, *flags, "--out", out_a]) == 0
        out_b = str(tmp_path / "b.hdcm")
        main(["train", "--data", synth_csv, "--dim", "64", "--seed", "9", "--out", out_b])
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_null_keeps_the_default(self, synth_csv, tmp_path, caplog):
        (tmp_path / "cfg.json").write_text(json.dumps({"dim": None}))
        with caplog.at_level("INFO", logger="hvdesign"):
            assert main(["train", "--data", synth_csv, "--config", str(tmp_path / "cfg.json")]) == 0
        assert '"dim": 2048' in caplog.text

    @pytest.mark.parametrize("flag", ["--config", "--conf"])
    def test_required_flags_from_the_file(self, flag, synth_csv, tmp_path):
        # The file's entries are flag values, those of required flags too.
        out_a, out_b = str(tmp_path / "a.hdcm"), str(tmp_path / "b.hdcm")
        (tmp_path / "cfg.json").write_text(json.dumps({"data": synth_csv, "dim": 64, "out": out_a}))
        assert main(["train", flag, str(tmp_path / "cfg.json")]) == 0
        assert main(["train", "--data", synth_csv, "--dim", "64", "--out", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["optimize", "--pop", "4", "--gens", "1"], {"data": "{data}", "out": "{tmp}/f.csv"}),
            (["sweep", "--out", "{tmp}/s.csv"], {"data": "{data}", "dims": "64,128"}),
            (["eval"], {"model": "{tmp}/m.hdcm", "data": "{data}"}),
            (["export-embeddings", "--model", "{tmp}/m.hdcm"],
             {"data": "{data}", "out": "{tmp}/e.csv"}),
        ],
        ids=["optimize", "sweep", "eval", "export-embeddings"],
    )
    def test_every_required_flag_can_come_from_the_file(self, argv, config, synth_csv, tmp_path):
        assert main(["train", "--data", synth_csv, "--dim", "64", "--out", str(tmp_path / "m.hdcm")]) == 0
        config = {key: value.format(data=synth_csv, tmp=tmp_path) for key, value in config.items()}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main([*argv, "--config", str(tmp_path / "cfg.json")]) == 0

    def test_command_line_overrides_a_required_flag(self, synth_csv, tmp_path, caplog):
        missing = str(tmp_path / "missing.csv")
        (tmp_path / "cfg.json").write_text(json.dumps({"data": missing, "dim": 64}))
        with caplog.at_level("INFO", logger="hvdesign"):
            assert main(["train", "--config", str(tmp_path / "cfg.json"), "--data", synth_csv]) == 0
        assert missing not in caplog.text and '"dim": 64' in caplog.text

    def test_required_flag_in_neither_is_named(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"dim": 64}))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        lines = [line for line in err if not line.startswith("INFO ")]
        assert lines == ["error: the following arguments are required: --data"]

    def test_unknown_key_is_named(self, synth_csv, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"dimm": 64}))
        assert main(["train", "--data", synth_csv, "--config", str(tmp_path / "cfg.json")]) == 2
        assert "error: unrecognized arguments: --dimm=64" in capsys.readouterr().err


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--data", "{data}", "--pop", "3", "--out", "{tmp}/front.csv"],
            ["train", "--data", "{data}", "--levels", "1"],
            ["train", "--data", "{data}", "--config", "{tmp}/nope.json"],
            ["train", "--data", "{data}", "--config", "{tmp}/bad.json"],
            ["sweep", "--data", "{data}", "--dims", "32,abc", "--out", "{tmp}/sweep.csv"],
            ["synth", "--grid", "5", "--out", "{tmp}/synth5.csv"],
            ["optimize", "--data", "{data}", "--config", "{tmp}/list.json",
             "--out", "{tmp}/front.csv"],
            ["train", "--data", "{tmp}"],
            ["optimize", "--data", "{tmp}/one.csv", "--out", "{tmp}/front.csv"],
            ["train", "--data", "{tmp}/latin1.csv"],
            ["train", "--data", "{tmp}/long.csv"],
            ["train", "--data", "{data}", "--config", "{tmp}/dimm.json"],
            ["train", "--data", "{data}", "--dim", "abc"],
            ["train"],
            ["train", "--data", "{data}", "--dimm", "64"],
            ["train", "--data", "{data}", "--seed", "-1"],
            ["train", "--data", "{data}", "--config", "{tmp}/seed.json"],
            ["train", "--data", "{data}", "--seed", str(2**64), "--out", "{tmp}/m.hdcm"],
            ["optimize", "--data", "{data}", "--dim", "1", "--out", "{tmp}/front.csv"],
            ["train", "--data", "{tmp}/empty.csv"],
            ["train", "--data", "{data}", "--label-col", "9"],
            ["train", "--data", "{data}", "--label-col", "nosuch"],
            ["train", "--data", "{data}", "--config", "{tmp}/array.json"],
            ["train", "--data", "{tmp}/huge.csv"],
            ["optimize", "--data", "{tmp}/huge.csv", "--out", "{tmp}/front.csv"],
            ["sweep", "--data", "{tmp}/huge.csv", "--dims", "32", "--out", "{tmp}/sweep.csv"],
        ],
        ids=["pop-3", "levels-1", "missing-config", "malformed-config", "dims-abc", "grid-5",
             "config-pop-list", "data-is-directory", "one-class", "not-utf8", "long-cell",
             "config-unknown-key", "dim-abc", "no-data", "unknown-flag", "seed-negative",
             "config-seed-negative", "seed-2-64", "optimize-dim-1", "empty-csv",
             "label-col-9", "label-col-nosuch", "config-not-an-object", "range-overflows",
             "range-overflows-optimize", "range-overflows-sweep"],
    )
    def test_exits_2_with_one_error_line(self, argv, synth_csv, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{bad")
        (tmp_path / "array.json").write_text("[1]")
        (tmp_path / "empty.csv").write_text("")
        # (max - min) * M overflows: no level width exists for this range.
        (tmp_path / "huge.csv").write_text("f1,label\n-1e308,a\n1e308,b\n")
        (tmp_path / "list.json").write_text('{"pop": [1]}')
        (tmp_path / "dimm.json").write_text('{"dimm": 64}')
        (tmp_path / "seed.json").write_text('{"seed": -1}')
        (tmp_path / "one.csv").write_text("f1,label\n0.1,a\n0.5,a\n0.9,a\n")
        (tmp_path / "latin1.csv").write_bytes(b"f1,label\n0.5,\xe9\n0.7,b\n")
        (tmp_path / "long.csv").write_text("f1,label\n0.5,a\n0." + "0" * 140_000 + "1,b\n")
        code = main([arg.format(data=synth_csv, tmp=tmp_path) for arg in argv])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        lines = [line for line in err if not line.startswith("INFO ")]
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if "{tmp}/huge.csv" in argv:  # a CSV's range error names its file and column
            assert lines[0] == (f"error: {tmp_path}/huge.csv: features ['f1'] have ranges "
                                "too wide to quantize")

    @pytest.mark.parametrize("seed", ["1.5", "-1", str(2**64), "abc"])
    def test_seed_outside_u64_is_an_invalid_u64_value(self, seed, capsys):
        # The table's seed rule, through argparse's message for a bad type.
        assert main(["synth", "--seed", seed, "--out", "unused.csv"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: argument --seed: invalid u64 value: '{seed}'"
        ]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, capsys):
        # The output path is a directory, so the final rename fails.
        (tmp_path / "out").mkdir()
        assert main(["synth", "--out", str(tmp_path / "out")]) == 2
        assert "error: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert not any((tmp_path / "out").iterdir())

    def test_one_class_model_names_the_file(self, hand_built_model, synth_csv, tmp_path, capsys):
        path = tmp_path / "one.hdcm"
        path.write_bytes(hand_built_model(1))
        assert main(["eval", "--model", str(path), "--data", synth_csv]) == 2
        err = capsys.readouterr().err.splitlines()
        lines = [line for line in err if not line.startswith("INFO ")]
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: 1 classes")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--model", "{tmp}/two.hdcm", "--data", "{tmp}/three.csv"],
            ["export-embeddings", "--model", "{tmp}/two.hdcm", "--data", "{tmp}/three.csv",
             "--out", "{tmp}/e.csv"],
            ["train", "--data", "{tmp}/two.csv", "--test", "{tmp}/three.csv", "--dim", "64"],
        ],
        ids=["eval", "export-embeddings", "train-test"],
    )
    def test_feature_count_mismatch_is_named(self, argv, hand_built_model, tmp_path, capsys):
        # Every path that reads a CSV against a model's labels meets the
        # quantizer's width check before it writes anything.
        (tmp_path / "two.hdcm").write_bytes(hand_built_model(2, n_features=2))
        (tmp_path / "two.csv").write_text("f1,f2,label\n0.1,0.2,a\n0.9,0.8,b\n")
        (tmp_path / "three.csv").write_text("f1,f2,f3,label\n0.1,0.2,0.3,a\n")
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err.splitlines()
        lines = [line for line in err if not line.startswith("INFO ")]
        assert lines == ["error: expected 2 features, got shape (1, 3)"]


class TestEntryPoint:
    """`python -m hvdesign.cli` runs `main` and exits with its code."""

    def test_help_version_and_bad_input(self, tmp_path):
        src = os.path.dirname(os.path.dirname(hvdesign.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "hvdesign.cli", *argv],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            )

        done = run("-h")
        assert done.returncode == 0 and done.stdout.startswith("usage: hvdesign")
        done = run("--version")
        assert done.returncode == 0 and done.stdout == f"{hvdesign.__version__}\n"
        done = run("train", "--data", str(tmp_path / "missing.csv"))
        lines = [line for line in done.stderr.splitlines() if not line.startswith("INFO ")]
        assert done.returncode == 2 and len(lines) == 1 and lines[0].startswith("error: ")


class TestOneCommandParser:
    """`main` registers only the subcommand it runs; what a user sees must
    be what the parser with every subcommand gives."""

    # Each subcommand's options, in the order its help lists them.
    # A model file carries its own seed, so eval and export-embeddings take none.
    FLAGS = {
        "train": "--data --test --label-col --dim --levels --out --metrics-out --seed",
        "optimize": "--data --label-col --dim --levels --pop --gens --crossover "
                    "--mutation --out --best-models-out --seed",
        "sweep": "--data --label-col --dims --levels --out --seed",
        "eval": "--model --data --label-col --metrics-out",
        "synth": "--grid --out --seed",
        "export-embeddings": "--model --data --label-col --out",
    }

    def test_flags_cover_every_command(self):
        assert list(self.FLAGS) == list(COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_matches_the_full_parser(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as done:
            main([command, "-h"])
        assert done.value.code == 0
        one = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "-h"])
        assert one == capsys.readouterr().out
        assert one.startswith(f"usage: hvdesign {command} [-h]")
        options = re.findall(r"^  (-[-\w]+)", one.split("\noptions:\n")[1], re.M)
        assert options == ["-h", *self.FLAGS[command].split(), "--config"]

    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus"], ["tra"], ["train", "--dimm", "64"], ["train"],
         ["train", "--data", "d.csv", "--dimm", "64"], ["train", "--dim", "abc"],
         ["train", "--d", "8"], ["eval", "--model", "m.hdcm", "--data", "d.csv", "--dim", "8"]],
        ids=["no-command", "bogus", "prefix", "dimm-no-data", "no-data", "unknown-flag",
             "dim-abc", "ambiguous", "flag-of-another-command"],
    )
    def test_error_line_matches_the_full_parser(self, argv, capsys):
        with pytest.raises(ConfigError) as raised:
            build_parser().parse_args(argv)
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {raised.value}"]
