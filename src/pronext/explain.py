"""Mask-based localization and segmentation, plus the metric suite.

Everything here consumes the forward pass's patch masks only; no extra
training happens. A stage-l patch covers patch_size * 2^(l-1) image pixels
(the stem preserves resolution), so a stage's patch grid tiles the image
exactly and its pre-threshold probabilities are bilinearly interpolated up
to image resolution. Boxes come from thresholding that score map and taking
the largest 4-connected component's tight bounding box (full-image fallback
when the threshold empties the map).

Box convention: (x0, y0, x1, y1), inclusive-exclusive pixel coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InputError
from .model import NUM_STAGES
from .netpbm import write_pgm_p5
from .train import bilinear_resize

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
V1_THRESHOLDS = np.round(np.arange(0.05, 0.951, 0.05), 2)
V2_IOU_LEVELS = (0.3, 0.5, 0.7)


@dataclass
class LocalizationResult:
    score_map: np.ndarray      # (H, W) in [0, 1]
    bbox: tuple                # (x0, y0, x1, y1)


# ---------------------------------------------------------------------------
# mask -> image space
# ---------------------------------------------------------------------------


def stage_footprint(cfg, stage):
    """Image pixels covered by one patch of the given stage (1-based)."""
    if not 1 <= stage <= NUM_STAGES:
        raise InputError(f"stage must be in 1..{NUM_STAGES}")
    return cfg.patch_size * 2 ** (stage - 1)


def mask_to_image(m, stage, cfg, sample=0):
    """A stage's pre-threshold probabilities on the raw image plane: the patch
    grid bilinearly interpolated up to image resolution, clipped to [0, 1].
    The grid must tile the image with the stage's footprint."""
    probs = m.probs[sample]
    foot = stage_footprint(cfg, stage)
    if probs.shape[0] * foot != cfg.input_size:
        raise InputError(f"stage {stage} grid {probs.shape[0]} does not tile "
                         f"the {cfg.input_size}px image with footprint {foot}")
    out = bilinear_resize(probs[:, :, None].astype(np.float32), cfg.input_size)[:, :, 0]
    return np.clip(out, 0.0, 1.0)


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


def loc_metrics(results, gt_boxes, class_scores, gt_classes):
    """GT-Known / Top-1 / Top-5 localization plus the max-box accuracies.

    results: LocalizationResult list; gt_boxes: (x0, y0, x1, y1) list;
    class_scores: (N, K) classification scores; gt_classes: (N,) labels.
    GT-K and Top-k use each result's stored bbox at IoU 0.5; the max-box
    variants re-derive boxes from the score maps over the threshold sweep.
    """
    n = len(results)
    if not (len(gt_boxes) == n and len(class_scores) == n and len(gt_classes) == n):
        raise InputError("loc_metrics: input lists must have equal length")
    class_scores = np.asarray(class_scores)
    gt_classes = np.asarray(gt_classes)
    top1 = np.argmax(class_scores, axis=1)
    k = min(5, class_scores.shape[1])
    top5 = np.argsort(-class_scores, axis=1)[:, :k]

    ious = np.array([box_iou(r.bbox, gt) for r, gt in zip(results, gt_boxes)])
    known = ious >= 0.5
    gt_k = float(known.mean())
    top1_loc = float((known & (top1 == gt_classes)).mean())
    top5_loc = float((known & (top5 == gt_classes[:, None]).any(axis=1)).mean())

    sweep = np.zeros((len(V1_THRESHOLDS), n))
    for ti, tau in enumerate(V1_THRESHOLDS):
        for i, (r, gt) in enumerate(zip(results, gt_boxes)):
            sweep[ti, i] = box_iou(map_to_bbox(r.score_map, tau), gt)
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
# model-driven extraction
# ---------------------------------------------------------------------------


def predict(model, images):
    """The one gradient-free forward pass the extractions below read."""
    with ad.no_grad():
        return model.forward(images.astype(np.float32))


def localize_batch(pred, cfg, stage=1, tau=0.5):
    """Box extraction from the requested stage's masks of one prediction.

    Returns one LocalizationResult per sample: the `mask_to_image` score map
    and its `map_to_bbox` box. Only the patch masks are read.
    """
    m = pred.stage_masks[stage - 1]
    scores = [mask_to_image(m, stage, cfg, sample=i) for i in range(m.batch)]
    return [LocalizationResult(score_map=s, bbox=map_to_bbox(s, tau)) for s in scores]


def structure_mask(pred, stage, cfg, tau=0.5):
    """(N, H, W) uint8: the largest 4-connected component of each sample's
    thresholded stage score map."""
    m = pred.stage_masks[stage - 1]
    return np.stack([_largest_component(mask_to_image(m, stage, cfg, sample=i) > tau)
                     for i in range(m.batch)]).astype(np.uint8)


def segment_structures(pred, cfg, tau=0.5):
    """Outer structure from the stage-2 mask, inner from stage-3.

    The inner mask is intersected with the outer one (containment by
    construction). Returns (outer (N,H,W), inner (N,H,W)) uint8 arrays.
    """
    outer = structure_mask(pred, 2, cfg, tau)
    return outer, structure_mask(pred, 3, cfg, tau) & outer


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


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_score_map(path, score_map):
    write_pgm_p5(path, np.round(score_map * 255.0).astype(np.uint8))


def write_boxes_csv(path, rows):
    """rows: iterable of (image_id, (x0, y0, x1, y1), score)."""
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, box, score in rows:
            x0, y0, x1, y1 = box
            fh.write(f"{image_id},{x0},{y0},{x1},{y1},{score:.6f}\n")
