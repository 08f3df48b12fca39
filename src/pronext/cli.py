"""Command-line harness.

Subcommands: gen-data, train, eval, explain, ablate, scale-sweep, flops.
Every command checks all of its inputs before it creates the output
directory, then writes a manifest (command, config path, seed, output
directory, git-style content hash of the config) there before any result
file. Exit codes: 0 success, 1 configuration error, 2 data error,
3 numeric failure. An existing non-empty output directory is refused unless
--force is given.
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


def start_run(args, config_path, seed, config_payload=None):
    """The first write of every command, made once all of its checks pass:
    create `args.out` (refusing a non-empty one without --force) and write
    the manifest into it. `config_hash` is the blob hash of `config_payload`
    or, without one, of the file at `config_path`."""
    try:
        if os.path.exists(args.out) and os.listdir(args.out) and not args.force:
            raise ConfigError(f"output directory '{args.out}' exists and is not empty "
                              "(use --force to overwrite)")
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:   # a file at or above `args.out`, no permission
        raise ConfigError(f"output directory '{args.out}': {exc.strerror}") from None
    manifest = {
        "command": args.command,
        "config": config_path or "",
        "seed": int(seed) if seed is not None else None,
        "out_dir": os.path.abspath(args.out),
        "config_hash": (git_file_hash(config_path) if config_payload is None
                        else git_blob_hash(config_payload)),
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    # the seed check and generating reject bad arguments before any file is written
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    ds = data_mod.generate(args.task, args.n, np.random.default_rng(args.seed),
                           image_size=args.image_size, num_classes=args.classes)
    start_run(args, None, args.seed, f"task={args.task} n={args.n} "
              f"image_size={args.image_size} classes={args.classes}")
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
    if tcfg.crop != cfg.input_size:
        raise ConfigError(f"train config crop {tcfg.crop} does not match the model's "
                          f"input_size {cfg.input_size}")
    return cfg, tcfg.validate()


def _check_datasets(datasets, cfg):
    """DataError unless every dataset has the model's class count, without
    which neither the loss nor the metrics can be computed, and its channel
    count, without which the stem cannot run."""
    for ds in datasets:
        if ds.num_classes != cfg.num_classes:
            raise DataError(f"dataset '{ds.name}' has {ds.num_classes} classes, "
                            f"model expects {cfg.num_classes}")
        if ds.images.shape[-1] != cfg.in_channels:
            raise DataError(f"dataset '{ds.name}' has {ds.images.shape[-1]} channels, "
                            f"model expects {cfg.in_channels}")


def cmd_train(args):
    cfg, tcfg = _resolve_configs(args)
    datasets = _load_datasets_arg(args.data)
    _check_datasets([ds for ds, _ in datasets], cfg)
    model = model_mod.ProNextModel(cfg, seed=tcfg.seed)
    trainer = train_mod.Trainer(model, tcfg, datasets)
    start_run(args, args.config, tcfg.seed)
    with open(os.path.join(args.out, "train.csv"), "w", encoding="utf-8") as fh:
        fh.write("step,loss,acc\n")
        trainer.run(quiet=args.quiet, log_fh=fh)
    trainer.save_checkpoint(os.path.join(args.out, "final.ckpt"))
    print(f"trained {tcfg.steps} steps; checkpoint at {args.out}/final.ckpt")
    return 0


def cmd_eval(args):
    model = train_mod.load_model_from_checkpoint(args.checkpoint)
    datasets = _load_datasets_arg(args.data)
    _check_datasets([ds for ds, _ in datasets], model.cfg)
    start_run(args, args.checkpoint, args.seed)
    lines = ["dataset,acc,loss"]
    for ds, _ in datasets:
        acc, loss = train_mod.evaluate(model, ds)
        lines.append(f"{ds.name},{acc:.6f},{loss:.6f}")
        print(lines[-1])
    with open(os.path.join(args.out, "eval.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_explain(args):
    if not 1 <= args.stage <= model_mod.NUM_STAGES:
        raise ConfigError(f"stage must be 1..{model_mod.NUM_STAGES}, got {args.stage}")
    if not 0.0 < args.tau < 1.0:
        raise ConfigError(f"tau must be strictly inside (0, 1), got {args.tau}")
    model = train_mod.load_model_from_checkpoint(args.checkpoint)
    if model.cfg.parser_mode == "none":
        raise ConfigError("checkpointed model has no parser; nothing to explain")
    ds = data_mod.load_dataset(args.data)
    _check_datasets([ds], model.cfg)
    size = model.cfg.input_size
    if ds.image_size != size:   # boxes and masks are in dataset pixels: no resizing
        raise DataError(f"dataset '{ds.name}' has {ds.image_size}px images, "
                        f"model expects {size}px")
    start_run(args, args.checkpoint, args.seed)

    logits, probs, binaries = explain_mod.stage_grids(model, ds.images)
    # segmentation reads the stage-2 mask, the one that covers the outer structure
    metrics, maps, box, peaks = explain_mod.explain(probs[args.stage - 1], probs[1], logits,
                                                    ds, args.tau)

    mask_dir = os.path.join(args.out, "masks")
    score_dir = os.path.join(args.out, "scores")
    os.makedirs(score_dir, exist_ok=True)
    image_ids = [f"img_{i:05d}" for i in range(len(ds))]
    for i, image_id in enumerate(image_ids):
        per_img = os.path.join(mask_dir, image_id)
        os.makedirs(per_img, exist_ok=True)
        explain_mod.export_stage_masks([b[i] for b in binaries], per_img)
        explain_mod.write_score_map(
            os.path.join(score_dir, f"{image_id}_stage{args.stage}.pgm"), maps[i])
    explain_mod.write_boxes_csv(os.path.join(args.out, "boxes.csv"), zip(image_ids, box, peaks))
    header = ",".join(metrics)
    row = ",".join(f"{v:.6f}" for v in metrics.values())
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


def _split(data_dir):
    """Load a dataset and split it 3:1 into train and test; a dataset too
    small to leave a training image is a ConfigError."""
    ds = data_mod.load_dataset(data_dir)
    n_train = int(0.75 * len(ds))
    if n_train < 1:
        raise ConfigError(f"dataset '{ds.name}' in {data_dir} has {len(ds)} image(s); "
                          "its 3:1 split leaves no training image")
    return data_mod.split_dataset(ds, n_train)


def _run_experiment(args, cells, payload, table_name, table):
    """The shared tail of `ablate` and `scale-sweep`, reached once every
    dataset has loaded and every cell's config has validated: check the seed
    count and the training budget, then start the run, train every cell once
    per seed and write `table(cells)` to `table_name`. Every image is resized
    to the first cell's image size."""
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    image_size = cells[0].train_ds.image_size
    tcfg = train_mod.TrainConfig(batch_size=args.batch_size, steps=args.steps,
                                 lr=args.lr, mixup_alpha=0.0, crop=image_size,
                                 resize=image_size, seed=args.seed).validate()
    start_run(args, None, args.seed, f"{payload} steps={args.steps} seeds={args.seeds}")
    seeds = [args.seed + i for i in range(args.seeds)]
    progress = None if args.quiet else lambda msg: print(msg, flush=True)
    for cell in cells:
        experiments.run_seeds(cell, tcfg, seeds, progress)
    csv = table(cells)
    with open(os.path.join(args.out, table_name), "w", encoding="utf-8") as fh:
        fh.write(csv)
    print(csv, end="")
    return 0


def cmd_ablate(args):
    tasks = args.tasks.split(",")
    task_data = {task: _split(os.path.join(args.data, task)) for task in tasks}
    train_ds = next(iter(task_data.values()))[0]
    base_cfg = _desk_ablation_config(train_ds.num_classes, train_ds.image_size)
    return _run_experiment(args, experiments.ablation_cells(base_cfg, task_data),
                           f"tasks={args.tasks}", "ablation.csv",
                           lambda cells: experiments.ablation_csv(cells, tasks))


def cmd_scale_sweep(args):
    pairs = _parse_pairs(args.pairs)
    train_ds, test_ds = _split(args.data)
    return _run_experiment(args, experiments.sweep_cells(pairs, train_ds, test_ds),
                           f"pairs={args.pairs}", "sweep.csv", experiments.sweep_csv)


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


class _ArgumentParser(argparse.ArgumentParser):
    """A malformed command line is a configuration error (exit 1), not
    argparse's own exit 2; subcommand parsers inherit this class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_arg_parser():
    p = _ArgumentParser(prog="pronext",
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
    try:
        args = build_arg_parser().parse_args(argv)
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
