"""Mask-based localization and segmentation, the metric suite, and every
file `pronext explain` writes.

`stage_grids` runs the forward; `explain` scores any stack of grids, and
`pronext explain` only writes what it returns. Everything here reads patch
probabilities only; no extra training happens. A stage's (P, P) grid tiles
the S-pixel image (the stem preserves resolution), so `score_maps`
bilinearly interpolates a batch of grids up to image resolution. Any grid
works the same way: a trained stage's, an untrained model's, or a baseline
such as a centred Gaussian. Every step takes the whole (N, ...) stack:
`boxes` thresholds the score maps and takes each map's largest 4-connected
component's row and column extents (the full image when the threshold
empties a map), and `box_ious` and `seg_metrics` score the stacks against
the ground truth. The segmentation masks are those largest components;
labelling them is the one step that runs per map.

Box convention: (x0, y0, x1, y1), inclusive-exclusive pixel coordinates.
"""

from __future__ import annotations

import os

import numpy as np

from . import autodiff as ad
from .errors import InputError
from .netpbm import write_pgm_p2, write_pgm_p5
from .train import bilinear_resize

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
V1_THRESHOLDS = np.round(np.arange(0.05, 0.951, 0.05), 2)
V2_IOU_LEVELS = (0.3, 0.5, 0.7)
BATCH = 32      # images per forward in `stage_grids`


# ---------------------------------------------------------------------------
# probabilities -> image space
# ---------------------------------------------------------------------------


def score_maps(probs, image_size):
    """(N, P, P) patch probabilities -> (N, S, S) score maps on the image
    plane: each grid bilinearly interpolated up to S = image_size, clipped to
    [0, 1]. The grid must tile the image, so P must divide S."""
    P = probs.shape[-1]
    if image_size % P:
        raise InputError(f"a {P}x{P} grid does not tile the {image_size}px image")
    out = bilinear_resize(probs[..., None].astype(np.float32), image_size)[..., 0]
    return np.clip(out, 0.0, 1.0)


def largest_components(hot):
    """(N, H, W) booleans -> (N, H, W) uint8: each sample's largest
    4-connected component; an all-False sample stays empty."""
    return np.stack([_largest_component(h) for h in hot]).astype(np.uint8)


def _largest_component(hot):
    """The largest 4-connected component of a boolean map; ties go to the
    lowest label, which is the first in scan order."""
    if not hot.any():
        return hot
    from scipy import ndimage      # only mask extraction needs it
    labels, _ = ndimage.label(hot, structure=FOUR_CONNECTED)
    sizes = np.bincount(labels.reshape(-1))
    sizes[0] = 0
    return labels == int(np.argmax(sizes))


def boxes(maps, tau):
    """(N, H, W) score maps -> (N, 4) int boxes: threshold at `tau`, keep each
    sample's largest 4-connected component and take its row and column
    extents. A sample the threshold empties has no extent, so its argmax
    reads 0 from both ends and the box falls back to the full image."""
    if not 0.0 < tau < 1.0:
        raise InputError("tau must be strictly inside (0, 1)")
    _, H, W = maps.shape
    comp = largest_components(maps > tau)
    rows, cols = comp.any(axis=2), comp.any(axis=1)
    return np.stack([cols.argmax(axis=1), rows.argmax(axis=1),
                     W - cols[:, ::-1].argmax(axis=1), H - rows[:, ::-1].argmax(axis=1)],
                    axis=1)


def box_ious(a, b):
    """IoU of paired (N, 4) boxes -> (N,); a zero union gives 0."""
    a, b = np.asarray(a), np.asarray(b)
    iw = np.maximum(0, np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0]))
    ih = np.maximum(0, np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1]))
    inter = iw * ih
    union = ((a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
             + (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1]) - inter)
    return np.divide(inter, union, out=np.zeros(len(a)), where=union != 0)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def loc_metrics(maps, tau_boxes, gt_boxes, class_scores, gt_classes, tau):
    """GT-Known / Top-1 / Top-5 localization plus the max-box accuracies.

    maps: (N, H, W) score maps in [0, 1]; tau_boxes: `boxes(maps, tau)`, which
    the caller has made already; gt_boxes: (N, 4) boxes; class_scores: (N, K)
    classification scores; gt_classes: (N,) labels. GT-K and Top-k count a
    hit at IoU 0.5 of the `tau` boxes; the max-box variants derive the boxes
    at every sweep threshold, reusing the `tau` boxes when `tau` is one.
    """
    n = len(maps)
    if not (len(tau_boxes) == len(gt_boxes) == len(class_scores) == len(gt_classes) == n):
        raise InputError("loc_metrics: inputs must have equal length")
    class_scores = np.asarray(class_scores)
    gt_classes = np.asarray(gt_classes)
    top1 = np.argmax(class_scores, axis=1)
    k = min(5, class_scores.shape[1])
    top5 = np.argsort(-class_scores, axis=1)[:, :k]

    known = box_ious(tau_boxes, gt_boxes) >= 0.5
    gt_k = float(known.mean())
    top1_loc = float((known & (top1 == gt_classes)).mean())
    top5_loc = float((known & (top5 == gt_classes[:, None]).any(axis=1)).mean())

    sweep = np.stack([box_ious(tau_boxes if t == tau else boxes(maps, t), gt_boxes)
                      for t in V1_THRESHOLDS])
    v1 = float(max((sweep >= 0.5).mean(axis=1)))
    v2 = float(np.mean([max((sweep >= delta).mean(axis=1)) for delta in V2_IOU_LEVELS]))
    return {"gt_known": gt_k, "top1_loc": top1_loc, "top5_loc": top5_loc,
            "max_box_acc_v1": v1, "max_box_acc_v2": v2}


def seg_metrics(pred_masks, gt_masks):
    """Per-sample IoU and Dice of (N, H, W) binary mask stacks, each (N,);
    an empty mask against an empty one scores 1."""
    pred_masks, gt_masks = np.asarray(pred_masks), np.asarray(gt_masks)
    if pred_masks.shape != gt_masks.shape:
        raise InputError("seg_metrics: shape mismatch")
    if not (np.isin(pred_masks, (0, 1)).all() and np.isin(gt_masks, (0, 1)).all()):
        raise InputError("seg_metrics: masks must be binary")
    inter, a, b = (np.sum(m, axis=(-2, -1), dtype=np.float64)
                   for m in (np.logical_and(pred_masks, gt_masks), pred_masks, gt_masks))
    union = a + b - inter
    iou = np.divide(inter, union, out=np.ones_like(union), where=union != 0)
    dice = np.divide(2 * inter, a + b, out=np.ones_like(union), where=union != 0)
    return {"iou": iou, "dice": dice}


# ---------------------------------------------------------------------------
# the explain path and its exports
# ---------------------------------------------------------------------------


def stage_grids(model, images):
    """The gradient-free forward `pronext explain` reads, BATCH images at a
    time -> (logits (N, K), each stage's (N, P, P) probabilities, each
    stage's (N, P, P) binaries)."""
    logits, probs, binaries = [], [], []
    with ad.no_grad():
        for start in range(0, len(images), BATCH):
            pred = model.forward(images[start:start + BATCH].astype(np.float32))
            logits.append(pred.logits.data)
            probs.append([m.probs for m in pred.stage_masks])
            binaries.append([m.binary for m in pred.stage_masks])
    return (np.concatenate(logits), [np.concatenate(p) for p in zip(*probs)],
            [np.concatenate(b) for b in zip(*binaries)])


def explain(probs, seg_probs, class_scores, ds, tau):
    """Score one stack of (N, P, P) grids against a dataset -> (the metrics
    in `metrics.csv` column order, the score maps, the `tau` boxes and each
    box's peak, its map's largest value inside it). The largest components
    of `seg_probs`' maps are the segmentation; class_scores is (N, K)."""
    size = ds.image_size
    maps = score_maps(probs, size)
    tau_boxes = boxes(maps, tau)
    ys, xs = np.ogrid[:size, :size]
    x0, y0, x1, y1 = (c[:, None, None] for c in tau_boxes.T)
    in_box = (y0 <= ys) & (ys < y1) & (x0 <= xs) & (xs < x1)
    peaks = np.where(in_box, maps, -np.inf).max(axis=(1, 2))
    seg = seg_metrics(largest_components(score_maps(seg_probs, size) > tau), ds.masks)
    metrics = loc_metrics(maps, tau_boxes, ds.boxes, class_scores, ds.labels, tau)
    metrics.update(iou=float(seg["iou"].mean()), dice=float(seg["dice"].mean()))
    return metrics, maps, tau_boxes, peaks


def export_stage_masks(binaries, out_dir):
    """Write one plain-text PGM (maxval 1) per stage: mask_stage{l}.pgm."""
    paths = []
    for l, mask in enumerate(binaries, start=1):
        path = os.path.join(out_dir, f"mask_stage{l}.pgm")
        write_pgm_p2(path, mask.astype(np.uint8), maxval=1)
        paths.append(path)
    return paths


def write_score_map(path, score_map):
    write_pgm_p5(path, np.round(score_map * 255.0).astype(np.uint8))


def write_boxes_csv(path, rows):
    """rows: iterable of (image_id, (x0, y0, x1, y1), score)."""
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, box, score in rows:
            x0, y0, x1, y1 = box
            fh.write(f"{image_id},{x0},{y0},{x1},{y1},{score:.6f}\n")
