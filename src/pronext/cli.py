"""Command-line harness.

Subcommands: gen-data, train, eval, explain, ablate, scale-sweep, flops.
Every run writes a manifest (command, config path, seed, output directory,
git-style content hash of the config) into the output directory before any
result file. Exit codes: 0 success, 1 configuration error, 2 data error,
3 numeric failure. An existing non-empty output directory is refused unless
--force is given. PRONEXT_THREADS caps worker-pool parallelism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as data_mod
from . import experiments
from . import explain as explain_mod
from . import model as model_mod
from . import parsers
from . import train as train_mod
from .errors import ConfigError, DataError, NumericError, ProNextError

PARSER_FLAG_MAP = {"shift": "shift", "sa": "spatial_attention",
                   "field": "plain_field", "none": "none"}


def git_blob_hash(payload):
    """sha1 of a git-style blob header + content."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha1(b"blob %d\0" % len(payload) + payload).hexdigest()


def git_file_hash(path):
    """`git_blob_hash` of a file's content, read 1 MiB at a time: a checkpoint
    can be hundreds of MB."""
    with open(path, "rb") as fh:
        digest = hashlib.sha1(b"blob %d\0" % os.fstat(fh.fileno()).st_size)
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def prepare_out_dir(out_dir, force):
    if os.path.exists(out_dir) and os.listdir(out_dir) and not force:
        raise ConfigError(f"output directory '{out_dir}' exists and is not empty "
                          "(use --force to overwrite)")
    os.makedirs(out_dir, exist_ok=True)


def write_manifest(out_dir, command, config_path, seed, config_payload=None):
    """`config_hash` is the blob hash of `config_payload` or, without one, of
    the file at `config_path`."""
    manifest = {
        "command": command,
        "config": config_path or "",
        "seed": int(seed) if seed is not None else None,
        "out_dir": os.path.abspath(out_dir),
        "config_hash": (git_file_hash(config_path) if config_payload is None
                        else git_blob_hash(config_payload)),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _load_datasets_arg(spec_str):
    """Parse `dir[:weight][,dir[:weight]...]` into [(Dataset, weight)]."""
    out = []
    for part in spec_str.split(","):
        path, _, w = part.partition(":")
        try:
            weight = float(w) if w else 1.0
        except ValueError:
            raise ConfigError(f"--data '{part}': weight '{w}' is not a number") from None
        out.append((data_mod.load_dataset(path), weight))
    return out


def _parse_pairs(spec_str):
    """Parse `name/k[,name/k...]` into [(variant name, patch size)]."""
    pairs = []
    for item in spec_str.split(","):
        name, _, k = item.partition("/")
        try:
            pairs.append((name, int(k)))
        except ValueError:
            raise ConfigError(f"--pairs item '{item}' is not 'variant/patch_size'") from None
    return pairs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args):
    prepare_out_dir(args.out, args.force)
    payload = f"task={args.task} n={args.n} image_size={args.image_size} " \
              f"classes={args.classes}"
    write_manifest(args.out, "gen-data", None, args.seed, payload)
    rng = np.random.default_rng(args.seed)
    ds = data_mod.generate(args.task, args.n, rng, image_size=args.image_size,
                           num_classes=args.classes)
    data_mod.write_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples to {args.out}")
    return 0


def _resolve_configs(args):
    cfg = model_mod.load_config(model_mod.ModelConfig, args.config)
    if args.parser:
        cfg = replace(cfg, parser_mode=PARSER_FLAG_MAP[args.parser]).validate()
    if args.train_config:
        tcfg = model_mod.load_config(train_mod.TrainConfig, args.train_config)
    else:
        tcfg = train_mod.TrainConfig(crop=cfg.input_size, resize=cfg.input_size)
    if args.seed is not None:
        tcfg = replace(tcfg, seed=args.seed)
    return cfg, tcfg.validate()


def cmd_train(args):
    cfg, tcfg = _resolve_configs(args)
    datasets = _load_datasets_arg(args.data)
    for ds, _ in datasets:
        if ds.num_classes != cfg.num_classes:
            raise DataError(f"dataset '{ds.name}' has {ds.num_classes} classes, "
                            f"model expects {cfg.num_classes}")
    prepare_out_dir(args.out, args.force)
    write_manifest(args.out, "train", args.config, tcfg.seed)
    model = model_mod.ProNextModel(cfg, seed=tcfg.seed)
    trainer = train_mod.Trainer(model, tcfg, datasets)
    with open(os.path.join(args.out, "train.csv"), "w", encoding="utf-8") as fh:
        fh.write("step,loss,acc\n")
        trainer.run(quiet=args.quiet, log_fh=fh)
    trainer.save_checkpoint(os.path.join(args.out, "final.ckpt"))
    print(f"trained {tcfg.steps} steps; checkpoint at {args.out}/final.ckpt")
    return 0


def cmd_eval(args):
    model = train_mod.load_model_from_checkpoint(args.checkpoint)
    datasets = _load_datasets_arg(args.data)
    prepare_out_dir(args.out, args.force)
    write_manifest(args.out, "eval", args.checkpoint, args.seed)
    tcfg = train_mod.TrainConfig(crop=model.cfg.input_size, resize=model.cfg.input_size)
    lines = ["dataset,acc,loss"]
    for ds, _ in datasets:
        acc, loss = train_mod.evaluate(model, ds, tcfg)
        lines.append(f"{ds.name},{acc:.6f},{loss:.6f}")
        print(lines[-1])
    with open(os.path.join(args.out, "eval.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_explain(args):
    if not 1 <= args.stage <= 3:
        raise ConfigError(f"stage must be 1..3, got {args.stage}")
    model = train_mod.load_model_from_checkpoint(args.checkpoint)
    if model.cfg.parser_mode == "none":
        raise ConfigError("checkpointed model has no parser; nothing to explain")
    ds = data_mod.load_dataset(args.data)
    prepare_out_dir(args.out, args.force)
    write_manifest(args.out, "explain", args.checkpoint, args.seed)
    mask_dir = os.path.join(args.out, "masks")
    score_dir = os.path.join(args.out, "scores")
    os.makedirs(mask_dir, exist_ok=True)
    os.makedirs(score_dir, exist_ok=True)

    results, scores_rows, seg_iou, seg_dice = [], [], [], []
    all_class_scores = []
    batch = 32
    for start in range(0, len(ds), batch):
        idx = np.arange(start, min(start + batch, len(ds)))
        pred = explain_mod.predict(model, ds.images[idx])
        all_class_scores.append(pred.logits.data.copy())
        located = explain_mod.localize_batch(pred, model.cfg, args.stage, args.tau)
        outer = explain_mod.structure_mask(pred, 2, model.cfg, args.tau)
        results.extend(located)
        for j, i in enumerate(idx):
            image_id = f"img_{i:05d}"
            per_img = os.path.join(mask_dir, image_id)
            os.makedirs(per_img, exist_ok=True)
            parsers.export_stage_masks([m.binary[j] for m in pred.stage_masks], per_img)
            score, bbox = located[j].score_map, located[j].bbox
            explain_mod.write_score_map(
                os.path.join(score_dir, f"{image_id}_stage{args.stage}.pgm"), score)
            scores_rows.append((image_id, bbox,
                                float(score[bbox[1]:bbox[3], bbox[0]:bbox[2]].max())))
            sm = explain_mod.seg_metrics(outer[j], ds.masks[i])
            seg_iou.append(sm["iou"])
            seg_dice.append(sm["dice"])

    explain_mod.write_boxes_csv(os.path.join(args.out, "boxes.csv"), scores_rows)
    class_scores = np.concatenate(all_class_scores)
    gt_boxes = [tuple(b) for b in ds.boxes]
    loc = explain_mod.loc_metrics(results, gt_boxes, class_scores, ds.labels)
    header = "gt_known,top1_loc,top5_loc,max_box_acc_v1,max_box_acc_v2,iou,dice"
    row = (f"{loc['gt_known']:.6f},{loc['top1_loc']:.6f},{loc['top5_loc']:.6f},"
           f"{loc['max_box_acc_v1']:.6f},{loc['max_box_acc_v2']:.6f},"
           f"{np.mean(seg_iou):.6f},{np.mean(seg_dice):.6f}")
    with open(os.path.join(args.out, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + row + "\n")
    print(header)
    print(row)
    return 0


def _desk_ablation_config(num_classes, input_size):
    """Desk-scale ladder model: a narrow context impression keeps the focal
    trunk load-bearing, which is where the parser rows actually differ."""
    return model_mod.ModelConfig(
        input_size=input_size, stem_channels=8,
        patch_size=4 if input_size == 32 else 8, embed_dim=16, ca_layers=1,
        ca_heads=2, num_classes=num_classes).validate()


def cmd_ablate(args):
    prepare_out_dir(args.out, args.force)
    write_manifest(args.out, "ablate", None, args.seed,
                   f"tasks={args.tasks} steps={args.steps} seeds={args.seeds}")
    task_names = args.tasks.split(",")
    task_data = {}
    for task in task_names:
        ds = data_mod.load_dataset(os.path.join(args.data, task))
        n_train = int(0.75 * len(ds))
        task_data[task] = data_mod.split_dataset(ds, n_train)
    any_train = next(iter(task_data.values()))[0]
    base_cfg = _desk_ablation_config(any_train.num_classes, any_train.image_size)
    tcfg = train_mod.TrainConfig(batch_size=args.batch_size, steps=args.steps,
                                 lr=args.lr, mixup_alpha=0.0,
                                 crop=any_train.image_size,
                                 resize=any_train.image_size, seed=args.seed)
    seeds = [args.seed + i for i in range(args.seeds)]
    progress = None if args.quiet else lambda msg: print(msg, flush=True)
    cells = experiments.run_ablation(base_cfg, tcfg, task_data, seeds=seeds,
                                     progress=progress)
    csv = experiments.ablation_csv(cells, task_names)
    with open(os.path.join(args.out, "ablation.csv"), "w", encoding="utf-8") as fh:
        fh.write(csv)
    print(csv, end="")
    return 0


def cmd_scale_sweep(args):
    pairs = _parse_pairs(args.pairs)
    prepare_out_dir(args.out, args.force)
    write_manifest(args.out, "scale-sweep", None, args.seed,
                   f"pairs={args.pairs} steps={args.steps} seeds={args.seeds}")
    ds = data_mod.load_dataset(args.data)
    n_train = int(0.75 * len(ds))
    train_ds, test_ds = data_mod.split_dataset(ds, n_train)
    tcfg = train_mod.TrainConfig(batch_size=args.batch_size, steps=args.steps,
                                 lr=args.lr, mixup_alpha=0.0,
                                 crop=ds.image_size, resize=ds.image_size,
                                 seed=args.seed)
    seeds = [args.seed + i for i in range(args.seeds)]
    progress = None if args.quiet else lambda msg: print(msg, flush=True)
    points = experiments.run_scale_sweep(pairs, tcfg, train_ds, test_ds,
                                         seeds=seeds, input_size=ds.image_size,
                                         progress=progress)
    csv = experiments.sweep_csv(points)
    with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write(csv)
    print(csv, end="")
    return 0


def cmd_flops(args):
    if args.config:
        cfg = model_mod.load_config(model_mod.ModelConfig, args.config)
        print(f"{cfg.variant_name}/{cfg.patch_size},{model_mod.flop_count(cfg):.6f}")
        return 0
    for name, k in _parse_pairs(args.pairs):
        cfg = model_mod.build_variant(name, k)
        print(f"{name}/{k},{model_mod.flop_count(cfg):.6f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------


def build_arg_parser():
    p = argparse.ArgumentParser(prog="pronext",
                                description="hierarchical focal/context recognition harness")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed_default=0):
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=seed_default)
        sp.add_argument("--force", action="store_true",
                        help="allow writing into an existing non-empty directory")
        sp.add_argument("--quiet", action="store_true")

    g = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    g.add_argument("--task", required=True, choices=data_mod.TASKS)
    g.add_argument("--n", type=int, default=512)
    g.add_argument("--image-size", type=int, default=64)
    g.add_argument("--classes", type=int, default=None)
    common(g)

    t = sub.add_parser("train", help="train a model on dataset directories")
    t.add_argument("--config", required=True, help="model config file")
    t.add_argument("--train-config", default=None, help="training config file")
    t.add_argument("--data", required=True,
                   help="dataset dir(s), `dir[:weight]` comma-separated")
    t.add_argument("--parser", choices=sorted(PARSER_FLAG_MAP), default=None,
                   help="override the configured parser")
    common(t, seed_default=None)
    t.set_defaults(seed=None)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    common(e)

    x = sub.add_parser("explain", help="export masks/boxes/score maps + metrics")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--data", required=True)
    x.add_argument("--stage", type=int, default=1)
    x.add_argument("--tau", type=float, default=0.5)
    common(x)

    a = sub.add_parser("ablate", help="run the six-row ablation ladder")
    a.add_argument("--data", required=True,
                   help="directory containing one subdirectory per task")
    a.add_argument("--tasks", default="detail,structure,interaction")
    a.add_argument("--seeds", type=int, default=1)
    a.add_argument("--steps", type=int, default=450)
    a.add_argument("--batch-size", type=int, default=16)
    a.add_argument("--lr", type=float, default=1e-3)
    common(a)

    s = sub.add_parser("scale-sweep", help="train size variants, correlate with GFLOPs")
    s.add_argument("--data", required=True)
    s.add_argument("--pairs", default="S/8,S/4,B/8,B/4")
    s.add_argument("--seeds", type=int, default=1)
    s.add_argument("--steps", type=int, default=60)
    s.add_argument("--batch-size", type=int, default=8)
    s.add_argument("--lr", type=float, default=1e-3)
    common(s)

    f = sub.add_parser("flops", help="print estimated GFLOPs")
    f.add_argument("--config", default=None)
    f.add_argument("--pairs", default="S/8,S/4,S/2,B/8,B/4,B/2")
    return p


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "explain": cmd_explain,
    "ablate": cmd_ablate,
    "scale-sweep": cmd_scale_sweep,
    "flops": cmd_flops,
}


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ProNextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
