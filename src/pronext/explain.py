"""Mask-based localization and segmentation, the metric suite, and every
file `pronext explain` writes.

Everything here reads patch probabilities only; no extra training happens.
A stage's (P, P) grid tiles the S-pixel image (the stem preserves
resolution), so `score_maps` bilinearly interpolates a batch of grids up to
image resolution. Any grid works the same way: a trained stage's, an
untrained model's, or a baseline such as a centred Gaussian. Boxes come from
thresholding a score map and taking the largest 4-connected component's
tight bounding box (full-image fallback when the threshold empties the map);
the segmentation masks are those largest components.

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


def map_to_bbox(score_map, tau):
    """Threshold, keep the largest 4-connected component, return its tight
    box; an empty thresholded map falls back to the full image."""
    if not 0.0 < tau < 1.0:
        raise InputError("tau must be strictly inside (0, 1)")
    H, W = score_map.shape
    hot = score_map > tau
    if not hot.any():
        return (0, 0, W, H)
    ys, xs = np.nonzero(_largest_component(hot))
    return (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


def box_iou(a, b):
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix0, iy0 = max(ax0, bx0), max(ay0, by0)
    ix1, iy1 = min(ax1, bx1), min(ay1, by1)
    iw, ih = max(0, ix1 - ix0), max(0, iy1 - iy0)
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union else 0.0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def loc_metrics(score_maps, gt_boxes, class_scores, gt_classes, tau):
    """GT-Known / Top-1 / Top-5 localization plus the max-box accuracies.

    score_maps: (N, H, W) maps in [0, 1]; gt_boxes: (x0, y0, x1, y1) list;
    class_scores: (N, K) classification scores; gt_classes: (N,) labels.
    GT-K and Top-k take each map's `map_to_bbox` box at `tau` and count a hit
    at IoU 0.5; the max-box variants re-derive the boxes over the threshold
    sweep.
    """
    n = len(score_maps)
    if not (len(gt_boxes) == n and len(class_scores) == n and len(gt_classes) == n):
        raise InputError("loc_metrics: input lists must have equal length")
    class_scores = np.asarray(class_scores)
    gt_classes = np.asarray(gt_classes)
    top1 = np.argmax(class_scores, axis=1)
    k = min(5, class_scores.shape[1])
    top5 = np.argsort(-class_scores, axis=1)[:, :k]

    ious = np.array([box_iou(map_to_bbox(m, tau), gt) for m, gt in zip(score_maps, gt_boxes)])
    known = ious >= 0.5
    gt_k = float(known.mean())
    top1_loc = float((known & (top1 == gt_classes)).mean())
    top5_loc = float((known & (top5 == gt_classes[:, None]).any(axis=1)).mean())

    sweep = np.zeros((len(V1_THRESHOLDS), n))
    for ti, t in enumerate(V1_THRESHOLDS):
        for i, (m, gt) in enumerate(zip(score_maps, gt_boxes)):
            sweep[ti, i] = box_iou(map_to_bbox(m, t), gt)
    v1 = float(max((sweep >= 0.5).mean(axis=1)))
    v2 = float(np.mean([max((sweep >= delta).mean(axis=1)) for delta in V2_IOU_LEVELS]))
    return {"gt_known": gt_k, "top1_loc": top1_loc, "top5_loc": top5_loc,
            "max_box_acc_v1": v1, "max_box_acc_v2": v2}


def seg_metrics(pred_mask, gt_mask):
    """Intersection-over-union and Dice for binary masks (empty/empty = 1)."""
    pred_mask = np.asarray(pred_mask)
    gt_mask = np.asarray(gt_mask)
    if pred_mask.shape != gt_mask.shape:
        raise InputError("seg_metrics: shape mismatch")
    for m in (pred_mask, gt_mask):
        vals = np.unique(m)
        if not np.isin(vals, (0, 1)).all():
            raise InputError("seg_metrics: masks must be binary")
    inter = float(np.logical_and(pred_mask, gt_mask).sum())
    a = float(pred_mask.sum())
    b = float(gt_mask.sum())
    union = a + b - inter
    if union == 0:
        return {"iou": 1.0, "dice": 1.0}
    iou = inter / union
    dice = 2 * inter / (a + b)
    return {"iou": iou, "dice": dice}


# ---------------------------------------------------------------------------
# model forward and exports
# ---------------------------------------------------------------------------


def predict(model, images):
    """The one gradient-free forward pass `pronext explain` reads."""
    with ad.no_grad():
        return model.forward(images.astype(np.float32))


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
