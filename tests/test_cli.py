"""Command-line harness tests: exit codes, manifests, determinism, outputs."""

import json
import os

import numpy as np
import pytest

from pronext import checkpoint as ckpt
from pronext import cli, netpbm
from pronext import data as D
from pronext import explain as explain_mod
from pronext import model as M
from pronext import train as T


@pytest.fixture()
def workspace(tmp_path):
    cfg = M.ModelConfig(input_size=32, stem_channels=4, patch_size=4, embed_dim=16,
                        ca_layers=1, ca_heads=2, num_classes=4).validate()
    model_cfg = tmp_path / "model.cfg"
    model_cfg.write_text(M.config_text(cfg))
    train_cfg = tmp_path / "train.cfg"
    tcfg = T.TrainConfig(batch_size=4, steps=3, crop=32, resize=32, mixup_alpha=0.0, seed=5)
    train_cfg.write_text(M.config_text(tcfg))
    data_dir = tmp_path / "data"
    rc = cli.main(["gen-data", "--task", "interaction", "--n", "16",
                   "--image-size", "32", "--out", str(data_dir), "--seed", "9"])
    assert rc == 0
    return tmp_path, str(model_cfg), str(train_cfg), str(data_dir)


def run_train(ws, out_name, extra=()):
    tmp_path, model_cfg, train_cfg, data_dir = ws
    out = tmp_path / out_name
    rc = cli.main(["train", "--config", model_cfg, "--train-config", train_cfg,
                   "--data", data_dir, "--out", str(out), "--quiet", *extra])
    return rc, out


def relabel_third(index_lines, label):
    """index.csv lines with the third sample's label replaced."""
    fields = index_lines[2].split(",")
    return index_lines[:2] + [",".join([fields[0], label, *fields[2:]])] + index_lines[3:]


class TestTrainCommand:
    def test_successful_run_writes_log_and_checkpoint(self, workspace):
        rc, out = run_train(workspace, "run")
        assert rc == 0
        assert (out / "train.csv").exists()
        assert (out / "final.ckpt").exists()
        assert (out / "manifest.json").exists()

    def test_missing_config_key_exit_1_naming_key(self, workspace, capsys):
        tmp_path, model_cfg, train_cfg, data_dir = workspace
        with open(model_cfg) as fh:
            lines = [l for l in fh if not l.startswith("patch_size")]
        broken = tmp_path / "broken.cfg"
        broken.write_text("".join(lines))
        rc = cli.main(["train", "--config", str(broken), "--data", data_dir,
                       "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 1
        assert "patch_size" in capsys.readouterr().err

    def test_same_seed_byte_identical_log(self, workspace):
        rc1, out1 = run_train(workspace, "runA")
        rc2, out2 = run_train(workspace, "runB")
        assert rc1 == rc2 == 0
        assert (out1 / "train.csv").read_bytes() == (out2 / "train.csv").read_bytes()

    def test_existing_out_dir_refused_without_force(self, workspace, capsys):
        rc1, out = run_train(workspace, "runC")
        assert rc1 == 0
        tmp_path, model_cfg, train_cfg, data_dir = workspace
        rc2 = cli.main(["train", "--config", model_cfg, "--train-config", train_cfg,
                        "--data", data_dir, "--out", str(out), "--quiet"])
        assert rc2 == 1
        rc3 = cli.main(["train", "--config", model_cfg, "--train-config", train_cfg,
                        "--data", data_dir, "--out", str(out), "--quiet", "--force"])
        assert rc3 == 0

    def test_bad_data_dir_exit_2(self, workspace):
        tmp_path, model_cfg, train_cfg, _ = workspace
        rc = cli.main(["train", "--config", model_cfg, "--train-config", train_cfg,
                       "--data", str(tmp_path / "nowhere"),
                       "--out", str(tmp_path / "y"), "--quiet"])
        assert rc == 2

    def test_parser_override_flag(self, workspace):
        rc, out = run_train(workspace, "runD", extra=("--parser", "sa"))
        assert rc == 0

    def test_manifest_written_with_hash(self, workspace):
        rc, out = run_train(workspace, "runE")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert len(manifest["config_hash"]) == 40
        assert manifest["seed"] == 5

    def test_git_blob_hash_convention(self, tmp_path):
        # sha1 of "blob 12\0hello world\n" has a well-known value; a file
        # hashed in chunks gives the same digest
        assert cli.git_blob_hash("hello world\n") == \
            "3b18e512dba79e4c8300dd08aeb37f8e728b8dad"
        path = tmp_path / "hello.txt"
        path.write_bytes(b"hello world\n")
        assert cli.git_file_hash(path) == "3b18e512dba79e4c8300dd08aeb37f8e728b8dad"


class TestEvalAndExplain:
    def test_eval_and_explain_outputs(self, workspace):
        rc, out = run_train(workspace, "runF")
        tmp_path, model_cfg, train_cfg, data_dir = workspace
        eval_dir = tmp_path / "eval"
        rc = cli.main(["eval", "--checkpoint", str(out / "final.ckpt"),
                       "--data", data_dir, "--out", str(eval_dir), "--quiet"])
        assert rc == 0
        header, row = (eval_dir / "eval.csv").read_text().splitlines()[:2]
        assert header == "dataset,acc,loss"

        exp_dir = tmp_path / "explain"
        rc = cli.main(["explain", "--checkpoint", str(out / "final.ckpt"),
                       "--data", data_dir, "--out", str(exp_dir), "--quiet"])
        assert rc == 0
        header = (exp_dir / "metrics.csv").read_text().splitlines()[0]
        assert header == "gt_known,top1_loc,top5_loc,max_box_acc_v1,max_box_acc_v2,iou,dice"
        # three plain-text PGM masks per image, values in {0, 1}
        img0 = exp_dir / "masks" / "img_00000"
        masks = sorted(os.listdir(img0))
        assert masks == ["mask_stage1.pgm", "mask_stage2.pgm", "mask_stage3.pgm"]
        tokens = (img0 / "mask_stage1.pgm").read_text().split()
        assert tokens[0] == "P2" and set(tokens[4:]) <= {"0", "1"}
        assert (exp_dir / "boxes.csv").exists()

    def test_explain_rerun_deterministic(self, workspace):
        rc, out = run_train(workspace, "runG")
        tmp_path, model_cfg, train_cfg, data_dir = workspace
        rows = []
        for name in ("exp_a", "exp_b"):
            exp_dir = tmp_path / name
            rc = cli.main(["explain", "--checkpoint", str(out / "final.ckpt"),
                           "--data", data_dir, "--out", str(exp_dir), "--quiet"])
            assert rc == 0
            rows.append((exp_dir / "metrics.csv").read_bytes()
                        + (exp_dir / "boxes.csv").read_bytes())
        assert rows[0] == rows[1]

    def test_explain_labels_each_threshold_once(self, workspace, monkeypatch):
        rc, out = run_train(workspace, "runI")
        tmp_path, *_, data_dir = workspace
        passes, real = [], explain_mod.largest_components
        monkeypatch.setattr(explain_mod, "largest_components",
                            lambda hot: passes.append(len(hot)) or real(hot))
        counts = {}
        for stage in (1, 2):
            passes.clear()
            rc = cli.main(["explain", "--checkpoint", str(out / "final.ckpt"),
                           "--data", data_dir, "--out", str(tmp_path / f"exp_once{stage}"),
                           "--stage", str(stage), "--quiet"])
            assert rc == 0
            counts[stage] = len(passes)
        # the default tau 0.5 is one of the 19 sweep thresholds; the stage-2
        # segmentation is one more pass at stage 1 and the tau pass at stage 2
        assert counts == {1: 20, 2: 19}

    @pytest.mark.parametrize("stage", [1, 3])
    def test_explain_row_is_the_explain_path(self, workspace, stage):
        # `metrics.csv` is `explain.explain` on `stage_grids`, to 6 decimals
        rc, out = run_train(workspace, f"runJ{stage}")
        tmp_path, *_, data_dir = workspace
        exp_dir = tmp_path / f"exp_path{stage}"
        rc = cli.main(["explain", "--checkpoint", str(out / "final.ckpt"), "--data", data_dir,
                       "--out", str(exp_dir), "--stage", str(stage), "--quiet"])
        assert rc == 0
        ds = D.load_dataset(data_dir)
        logits, probs, _ = explain_mod.stage_grids(
            T.load_model_from_checkpoint(str(out / "final.ckpt")), ds.images)
        metrics = explain_mod.explain(probs[stage - 1], probs[1], logits, ds, 0.5)[0]
        assert (exp_dir / "metrics.csv").read_text().splitlines() == [
            ",".join(metrics), ",".join(f"{v:.6f}" for v in metrics.values())]

    def test_explain_stage_out_of_range_exit_1(self, workspace):
        rc, out = run_train(workspace, "runH")
        tmp_path, *_ , data_dir = workspace
        rc = cli.main(["explain", "--checkpoint", str(out / "final.ckpt"),
                       "--data", data_dir, "--out", str(tmp_path / "exp_bad"),
                       "--stage", "4", "--quiet"])
        assert rc == 1


class TestMalformedInputs:
    """Bad checkpoints and datasets end in an exit code, never a traceback."""

    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "parent_step2.ckpt")

    @pytest.mark.parametrize("length", [6, 14, 20, 1000])
    def test_eval_truncated_checkpoint_exit_2(self, tmp_path, capsys, length):
        cut = tmp_path / "cut.ckpt"
        with open(self.FIXTURE, "rb") as fh:
            cut.write_bytes(fh.read(length))
        rc = cli.main(["eval", "--checkpoint", str(cut), "--data", str(tmp_path),
                       "--out", str(tmp_path / "ev"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and "Traceback" not in err

    def test_eval_malformed_snapshot_exit_1(self, tmp_path, capsys):
        arrays = ckpt.load_arrays(self.FIXTURE)
        text = ckpt.unpack_text(arrays["trainer.model_config"])
        arrays["trainer.model_config"] = ckpt.pack_text(text + "depth = 3\n")
        bad = tmp_path / "bad.ckpt"
        ckpt.save_arrays(bad, arrays)
        rc = cli.main(["eval", "--checkpoint", str(bad), "--data", str(tmp_path),
                       "--out", str(tmp_path / "ev"), "--quiet"])
        assert rc == 1
        assert "trainer.model_config:16: unknown key 'depth'" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,lineno", [("stages = 3", "stages = 4", 5),
                                                ("block_norm = True", "block_norm = False", 12),
                                                ("ca_ffn = True", "ca_ffn = False", 13)])
    def test_eval_retired_key_at_another_value_exit_1(self, tmp_path, capsys, old, new, lineno):
        arrays = ckpt.load_arrays(self.FIXTURE)
        text = ckpt.unpack_text(arrays["trainer.model_config"])
        arrays["trainer.model_config"] = ckpt.pack_text(text.replace(old, new))
        bad = tmp_path / "retired.ckpt"
        ckpt.save_arrays(bad, arrays)
        rc = cli.main(["eval", "--checkpoint", str(bad), "--data", str(tmp_path),
                       "--out", str(tmp_path / "ev"), "--quiet"])
        assert rc == 1
        key = old.split()[0]
        assert f"trainer.model_config:{lineno}: '{key}' is retired" in capsys.readouterr().err

    def test_eval_malformed_image_header_exit_2(self, workspace, capsys):
        rc, out = run_train(workspace, "runM")
        tmp_path, *_, data_dir = workspace
        img = os.path.join(data_dir, "img_00002.ppm")
        with open(img, "rb") as fh:
            body = fh.read().split(b"\n", 1)[1]
        with open(img, "wb") as fh:
            fh.write(b"P6\n" + body.replace(b"32", b"3x", 1))
        rc = cli.main(["eval", "--checkpoint", str(out / "final.ckpt"),
                       "--data", data_dir, "--out", str(tmp_path / "ev"), "--quiet"])
        assert rc == 2
        assert "img_00002.ppm" in capsys.readouterr().err

    @pytest.mark.parametrize("name,rewrite,where", [
        ("index.csv", lambda lines: relabel_third(lines, "-1"),
         "index.csv:3: label -1 outside [0, 4)"),
        ("index.csv", lambda lines: relabel_third(lines, "9"),
         "index.csv:3: label 9 outside [0, 4)"),
        ("index.csv", lambda lines: [], "index.csv: no samples"),
        ("meta.csv", lambda lines: [l.replace("num_classes,4", "num_classes,four")
                                    for l in lines],
         "meta.csv:2: num_classes 'four' is not an integer")],
        ids=["negative_label", "label_past_num_classes", "empty_index", "non_integer_classes"])
    def test_train_malformed_dataset_exit_2(self, workspace, capsys, name, rewrite, where):
        tmp_path, model_cfg, train_cfg, data_dir = workspace
        path = os.path.join(data_dir, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in rewrite(lines)))
        rc = cli.main(["train", "--config", model_cfg, "--train-config", train_cfg,
                       "--data", data_dir, "--out", str(tmp_path / "bad"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and where in err

    @pytest.mark.parametrize("argv,message", [
        (["train", "--data", "{data}:abc"], "weight 'abc' is not a number"),
        (["train", "--data", "{data}:nan"], "weights must be finite"),
        (["train", "--data", "{data}:inf"], "weights must be finite"),
        (["flops", "--pairs", "S"], "--pairs item 'S'"),
        (["scale-sweep", "--data", "{data}", "--pairs", "S/x"], "--pairs item 'S/x'"),
        (["explain", "--checkpoint", "{data}/none.ckpt", "--data", "{data}", "--tau", "1.5"],
         "tau must be strictly inside (0, 1), got 1.5"),
        (["gen-data", "--task", "detail", "--image-size", "0"], "image size must be >= 10, got 0"),
        (["gen-data", "--task", "detail", "--image-size", "4"], "image size must be >= 10, got 4"),
        (["gen-data", "--task", "detail", "--image-size", "8"], "image size must be >= 10, got 8"),
        (["gen-data", "--task", "detail", "--n", "0"], "sample count must be >= 1, got 0"),
        (["gen-data", "--task", "detail", "--classes", "0"], "supports 2 to 16 classes, got 0"),
        (["gen-data", "--task", "structure", "--classes", "3"],
         "structure task supports exactly 2 classes, got 3"),
        (["ablate", "--data", "{root}", "--tasks", "data", "--seeds", "0"],
         "--seeds must be >= 1, got 0"),
        (["scale-sweep", "--data", "{data}", "--pairs", "S/4", "--seeds", "0"],
         "--seeds must be >= 1, got 0"),
        (["ablate", "--data", "{root}", "--tasks", "data", "--batch-size", "0"],
         "batch_size >= 1 and steps >= 0 required"),
        (["ablate", "--data", "{root}", "--tasks", "data", "--steps", "2", "--lr", "nan"],
         "lr must be finite, got nan"),
        (["scale-sweep", "--data", "{data}", "--pairs", "S/4", "--batch-size", "0"],
         "batch_size >= 1 and steps >= 0 required"),
        (["scale-sweep", "--data", "{data}", "--pairs", "S/4,S/8", "--steps", "1",
          "--batch-size", "4"], "input_size 32 not divisible by patch_size * 2^3 = 64"),
        (["gen-data", "--task", "detail", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["train", "--data", "{data}", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["ablate", "--data", "{root}", "--tasks", "data", "--seed", "-1"],
         "seed must be >= 0, got -1"),
        (["scale-sweep", "--data", "{data}", "--pairs", "S/4", "--seed", "-1"],
         "seed must be >= 0, got -1")],
        ids=["train_data_weight", "train_data_weight_nan", "train_data_weight_inf",
             "flops_pairs", "scale_sweep_pairs", "explain_tau", "gen_data_size_0",
             "gen_data_size_4", "gen_data_size_8", "gen_data_n_0", "gen_data_classes_0",
             "gen_data_structure_classes_3", "ablate_seeds_0", "scale_sweep_seeds_0",
             "ablate_batch_size_0", "ablate_lr_nan", "scale_sweep_batch_size_0",
             "scale_sweep_variant_too_coarse", "gen_data_seed_negative",
             "train_seed_negative", "ablate_seed_negative", "scale_sweep_seed_negative"])
    def test_malformed_argument_exit_1(self, workspace, capsys, argv, message):
        tmp_path, model_cfg, train_cfg, data_dir = workspace
        argv = [a.format(data=data_dir, root=tmp_path) for a in argv]
        if argv[0] != "flops":
            argv += ["--out", str(tmp_path / "bad")]
        if argv[0] == "train":
            argv += ["--config", model_cfg, "--train-config", train_cfg]
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("configuration error:") and message in err
        assert "/seed" not in out                  # no experiment cell trained
        assert not (tmp_path / "bad").exists()     # refused before writing anything

    def test_train_mixed_image_sizes_exit_2(self, workspace, capsys):
        tmp_path, model_cfg, train_cfg, data_dir = workspace
        netpbm.write_ppm_p6(os.path.join(data_dir, "img_00002.ppm"),
                            np.zeros((20, 20, 3), dtype=np.uint8))
        rc = cli.main(["train", "--config", model_cfg, "--train-config", train_cfg,
                       "--data", data_dir, "--out", str(tmp_path / "bad"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:")
        assert "img_00002.ppm is 20x20 pixels, but the first image is 32x32" in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("argv", [["ablate", "--data", "nowhere", "--tasks", "interaction"],
                                      ["scale-sweep", "--data", "nowhere"]],
                             ids=["ablate", "scale_sweep"])
    def test_experiment_missing_data_exit_2(self, tmp_path, capsys, argv):
        argv = [os.path.join(tmp_path, a) if a == "nowhere" else a for a in argv]
        rc = cli.main(argv + ["--out", str(tmp_path / "bad")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and "no index.csv" in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_class_count_mismatch_exit_2(self, workspace, capsys, command):
        rc, out = run_train(workspace, f"run_{command}")
        tmp_path, *_ = workspace
        other = tmp_path / "detail8"
        assert cli.main(["gen-data", "--task", "detail", "--n", "4", "--image-size", "32",
                         "--out", str(other), "--seed", "2"]) == 0
        rc = cli.main([command, "--checkpoint", str(out / "final.ckpt"), "--data", str(other),
                       "--out", str(tmp_path / "bad"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and "has 8 classes, model expects 4" in err
        assert not (tmp_path / "bad").exists()


    def test_explain_other_image_size_exit_2(self, workspace, capsys):
        # boxes and masks are in dataset pixels, so explain refuses to resize
        rc, out = run_train(workspace, "run_size")
        tmp_path, *_ = workspace
        other = tmp_path / "interaction64"
        assert cli.main(["gen-data", "--task", "interaction", "--n", "4", "--image-size", "64",
                         "--out", str(other), "--seed", "2"]) == 0
        rc = cli.main(["explain", "--checkpoint", str(out / "final.ckpt"), "--data", str(other),
                       "--out", str(tmp_path / "bad"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and "has 64px images, model expects 32px" in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_non_finite_parameter_exit_2(self, workspace, capsys, command):
        rc, out = run_train(workspace, f"run_nan_{command}")
        tmp_path, *_, data_dir = workspace
        arrays = ckpt.load_arrays(out / "final.ckpt")
        arrays["param.head.mlp_w1"][0, 0] = np.nan
        ckpt.save_arrays(tmp_path / "nan.ckpt", arrays)
        rc = cli.main([command, "--checkpoint", str(tmp_path / "nan.ckpt"), "--data", data_dir,
                       "--out", str(tmp_path / "bad"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and "'param.head.mlp_w1'" in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("box", ["5,5,2,2", "0,0,33,8"], ids=["inverted", "outside_image"])
    def test_explain_bad_box_exit_2(self, workspace, capsys, box):
        rc, out = run_train(workspace, "run_box")
        tmp_path, *_, data_dir = workspace
        index = os.path.join(data_dir, "index.csv")
        with open(index, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:2] + [box])
        with open(index, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        rc = cli.main(["explain", "--checkpoint", str(out / "final.ckpt"), "--data", data_dir,
                       "--out", str(tmp_path / "bad"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and f"index.csv:4: box ({box.replace(',', ', ')})" in err
        assert not (tmp_path / "bad").exists()

    def test_train_crop_other_than_input_size_exit_1(self, workspace, capsys):
        tmp_path, model_cfg, _, data_dir = workspace
        train_cfg = tmp_path / "crop28.cfg"
        train_cfg.write_text(M.config_text(T.TrainConfig(batch_size=4, steps=3, crop=28,
                                                         resize=32, seed=5)))
        rc = cli.main(["train", "--config", model_cfg, "--train-config", str(train_cfg),
                       "--data", data_dir, "--out", str(tmp_path / "bad"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("configuration error:")
        assert "crop 28 does not match the model's input_size 32" in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("line,message", [
        ("mixup_alpha = nan", "mixup_alpha must be finite, got nan"),
        ("mixup_alpha = inf", "mixup_alpha must be finite, got inf"),
        ("seed = -1", "seed must be >= 0, got -1")],
        ids=["mixup_alpha_nan", "mixup_alpha_inf", "seed_negative"])
    def test_train_config_out_of_range_exit_1(self, workspace, capsys, line, message):
        tmp_path, model_cfg, train_cfg, data_dir = workspace
        key = line.split(" = ")[0]
        edited = tmp_path / "edited.cfg"
        with open(train_cfg) as fh:
            edited.write_text("".join(line + "\n" if l.startswith(key + " ") else l
                                      for l in fh))
        rc = cli.main(["train", "--config", model_cfg, "--train-config", str(edited),
                       "--data", data_dir, "--out", str(tmp_path / "bad"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"configuration error: {edited}: ") and message in err
        assert not (tmp_path / "bad").exists()


class TestGenData:
    def test_determinism(self, tmp_path):
        for name in ("d1", "d2"):
            rc = cli.main(["gen-data", "--task", "detail", "--n", "6",
                           "--image-size", "32", "--classes", "4",
                           "--out", str(tmp_path / name), "--seed", "3"])
            assert rc == 0
        a = (tmp_path / "d1" / "index.csv").read_bytes()
        b = (tmp_path / "d2" / "index.csv").read_bytes()
        assert a == b
        ia = (tmp_path / "d1" / "img_00000.ppm").read_bytes()
        ib = (tmp_path / "d2" / "img_00000.ppm").read_bytes()
        assert ia == ib

    def test_unknown_task_exit_code(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["gen-data", "--task", "nonsense", "--out", str(tmp_path / "z")])


class TestScaleSweep:
    def test_tiny_sweep_writes_points_and_rho(self, workspace, capsys):
        tmp_path, *_, data_dir = workspace
        out = tmp_path / "sweep"
        rc = cli.main(["scale-sweep", "--data", data_dir, "--pairs", "S/4", "--steps", "1",
                       "--seeds", "1", "--batch-size", "4", "--out", str(out), "--quiet"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "variant,k,gflops,mean_acc"
        variant, k, gflops, acc = lines[1].split(",")
        assert (variant, k) == ("S", "4")
        assert float(gflops) == pytest.approx(M.flop_count(M.build_variant("S", 4, 32)),
                                              rel=1e-5)
        assert 0.0 <= float(acc) <= 1.0
        assert lines[2] == "spearman,,,"              # one point: rho is undefined
        assert json.loads((out / "manifest.json").read_text())["command"] == "scale-sweep"


class TestFlops:
    def test_flops_listing(self, capsys):
        rc = cli.main(["flops", "--pairs", "S/8,S/4,S/2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vals = [float(l.split(",")[1]) for l in lines]
        assert vals == sorted(vals)


@pytest.mark.slow
class TestAblateSmoke:
    def test_tiny_ladder_shape(self, tmp_path):
        for task in ("detail", "interaction"):
            rc = cli.main(["gen-data", "--task", task, "--n", "16",
                           "--image-size", "32", "--classes", "4",
                           "--out", str(tmp_path / "abl" / task), "--seed", "1"])
            assert rc == 0
        out = tmp_path / "abl_out"
        rc = cli.main(["ablate", "--data", str(tmp_path / "abl"),
                       "--tasks", "detail,interaction", "--steps", "2",
                       "--batch-size", "4", "--seeds", "1",
                       "--out", str(out), "--quiet"])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "row,detail,interaction"
        assert len(lines) == 7  # header + six ladder rows
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == ["baseline", "separation_sa", "context_sa",
                         "plain_field", "conditional_sine", "band_pass"]
