"""Class-agnostic instance segmentation metrics over point ids.

A proposal is scored as the sorted, unique ids of its points; ground truth
is one instance id per point, background below 0. Matching is greedy in
score order: each proposal takes the unmatched ground-truth instance with
the highest IoU at or above the threshold (ties to the lower id). AP is the
area under the interpolated precision-recall curve; the headline AP
averages thresholds 0.50:0.05:0.95.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EvalReport", "ThresholdResult", "mask_iou", "evaluate", "AP_THRESHOLDS"]

AP_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two masks of nonnegative integer weights:
    the sum of their minima over the sum of their maxima, 0 if that is 0.
    Over boolean point masks it counts points; over the superpoint sizes of
    two superpoint sets it gives the same integers, so the same float."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"mask length mismatch: {a.shape} vs {b.shape}")
    union = int(np.maximum(a, b).sum())
    if union == 0:
        return 0.0
    return int(np.minimum(a, b).sum()) / union


@dataclass
class ThresholdResult:
    threshold: float
    precisions: np.ndarray
    recalls: np.ndarray
    matches: list[tuple[int, int, float]]  # (proposal index, gt id, iou)
    ap: float
    recall: float


@dataclass
class EvalReport:
    ap: float
    ap50: float
    ap25: float
    rc: float
    rc50: float
    rc25: float
    per_threshold: dict[float, ThresholdResult]

    def table(self) -> list[tuple[str, float]]:
        return [
            ("ap", self.ap),
            ("ap50", self.ap50),
            ("ap25", self.ap25),
            ("rc", self.rc),
            ("rc50", self.rc50),
            ("rc25", self.rc25),
        ]

    def text(self) -> str:
        lines = [f"{name}\t{value:.6f}" for name, value in self.table()]
        return "\n".join(lines)


def _ap_from_curve(precisions: np.ndarray, recalls: np.ndarray) -> float:
    if len(precisions) == 0:
        return 0.0
    interp = np.maximum.accumulate(precisions[::-1])[::-1]
    prev = 0.0
    area = 0.0
    for p, r in zip(interp, recalls):
        area += (r - prev) * p
        prev = r
    return float(area)


def _match_at_threshold(ious: np.ndarray, gt_ids: list[int], threshold: float) -> ThresholdResult:
    """Greedy matching from the (proposal, gt) IoU table at one threshold."""
    available = np.ones(len(gt_ids), dtype=bool)
    tp = 0
    precisions = np.zeros(len(ious))
    recalls = np.zeros(len(ious))
    matches: list[tuple[int, int, float]] = []
    for i, row in enumerate(ious):
        eligible = available & (row >= threshold) & (row > 0)
        if eligible.any():
            best = int(np.argmax(np.where(eligible, row, -1.0)))  # first maximum: lowest gt id
            available[best] = False
            tp += 1
            matches.append((i, gt_ids[best], float(row[best])))
        precisions[i] = tp / (i + 1)
        recalls[i] = tp / len(gt_ids)
    ap = _ap_from_curve(precisions, recalls)
    recall = tp / len(gt_ids)
    return ThresholdResult(threshold, precisions, recalls, matches, ap, recall)


def evaluate(
    proposals: list[np.ndarray],
    scores: list[float],
    gt_instance: np.ndarray,
    thresholds: tuple[float, ...] = AP_THRESHOLDS,
) -> EvalReport:
    """Score proposals (already sorted by descending score), each given as
    its strictly ascending point ids, against labeled points. gt_instance
    ids below 0 are background and never evaluated."""
    gt_instance = np.asarray(gt_instance, dtype=np.int64)
    gt_ids = np.unique(gt_instance[gt_instance >= 0])
    if gt_ids.size == 0:
        raise ValueError("nothing to evaluate: no ground-truth instances")
    if len(proposals) != len(scores):
        raise ValueError("one score per proposal required")
    scores_arr = np.asarray(scores, dtype=np.float64)
    if len(scores_arr) > 1 and np.any(np.diff(scores_arr) > 0):
        raise ValueError("proposals must be sorted by descending score")

    # each point's GT rank, background last: one bincount per proposal gives
    # its intersections, the same integers that mask_iou divides
    gt_rank = np.where(gt_instance < 0, len(gt_ids), np.searchsorted(gt_ids, gt_instance))
    gt_sizes = np.bincount(gt_rank, minlength=len(gt_ids) + 1)[:-1].tolist()
    rows = []
    for ids in proposals:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids[0] < 0 or ids[-1] >= len(gt_rank) or np.any(ids[1:] <= ids[:-1])):
            raise ValueError("proposal point ids must be strictly ascending and within the cloud")
        inter = np.bincount(gt_rank[ids], minlength=len(gt_ids) + 1)[:-1].tolist()
        rows.append([i / (len(ids) + g - i) for i, g in zip(inter, gt_sizes)])
    ious = np.array(rows).reshape(len(proposals), len(gt_ids))
    wanted = sorted(set(thresholds) | {0.25, 0.50})
    per_threshold = {t: _match_at_threshold(ious, gt_ids.tolist(), t) for t in wanted}
    ap = float(np.mean([per_threshold[t].ap for t in thresholds]))
    rc = float(np.mean([per_threshold[t].recall for t in thresholds]))
    return EvalReport(
        ap=ap,
        ap50=per_threshold[0.50].ap,
        ap25=per_threshold[0.25].ap,
        rc=rc,
        rc50=per_threshold[0.50].recall,
        rc25=per_threshold[0.25].recall,
        per_threshold=per_threshold,
    )
