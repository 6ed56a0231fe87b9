"""Metric tests with hand-computed precision-recall curves."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seglift.evaluation import AP_THRESHOLDS, EvalReport, _match_at_threshold, evaluate, mask_iou
from seglift.superpoints import SuperpointPartition

from conftest import examples


def masks_from_labels(labels, ids):
    labels = np.asarray(labels)
    return [labels == i for i in ids]


def point_ids(masks):
    """Each dense point mask as the sorted point ids that evaluate takes."""
    return [np.flatnonzero(mask) for mask in masks]


@st.composite
def partitioned_sets(draw):
    """A dense assignment of up to 40 points to superpoints, one-point ones
    included, and two superpoint sets, each empty, everything or random."""
    n = draw(st.integers(1, 40))
    count = draw(st.integers(1, n))
    rest = draw(st.lists(st.integers(0, count - 1), min_size=n - count, max_size=n - count))
    assignment = np.array(list(range(count)) + rest)[np.array(draw(st.permutations(range(n))))]

    def subset():
        kind = draw(st.sampled_from(["empty", "all", "random"]))
        if kind == "random":
            return np.array(draw(st.lists(st.booleans(), min_size=count, max_size=count)))
        return np.full(count, kind == "all")

    return assignment, subset(), subset()


class TestMaskIou:
    def test_identical(self):
        m = np.array([True, False, True])
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        assert mask_iou(np.array([True, False]), np.array([False, True])) == 0.0

    def test_partial_overlap(self):
        # |a| = 10, |b| = 10, overlap 5 -> 5 / 15
        a = np.zeros(30, dtype=bool)
        b = np.zeros(30, dtype=bool)
        a[:10] = True
        b[5:15] = True
        assert mask_iou(a, b) == pytest.approx(5 / 15)

    def test_both_empty_defined_zero(self):
        z = np.zeros(4, dtype=bool)
        assert mask_iou(z, z) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mask_iou(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))

    @settings(max_examples=examples(200), deadline=None)
    @given(partitioned_sets())
    @example((np.arange(5), np.ones(5, bool), np.zeros(5, bool)))  # one-point superpoints; the whole cloud, nothing
    @example((np.zeros(7, np.int64), np.ones(1, bool), np.ones(1, bool)))  # one superpoint, the whole cloud twice
    def test_superpoint_weights_equal_point_masks(self, case):
        """Two superpoint sets, each weighed as its superpoints' sizes, have
        the IoU of their dense point masks, bit for bit."""
        assignment, theta_a, theta_b = case
        partition = SuperpointPartition.from_assignment(assignment, np.zeros((len(assignment), 3)))
        a, b = theta_a[assignment], theta_b[assignment]
        got = mask_iou(np.where(theta_a, partition.sizes, 0), np.where(theta_b, partition.sizes, 0))
        union = np.count_nonzero(a | b)
        assert got == mask_iou(a, b) == (np.count_nonzero(a & b) / union if union else 0.0)
        np.testing.assert_array_equal(partition.point_ids(np.flatnonzero(theta_a)), np.flatnonzero(a))


class TestEvaluate:
    def test_perfect_predictions(self):
        gt = np.array([0, 0, 1, 1, 2, 2, -1, -1])
        masks = masks_from_labels(gt, [0, 1, 2])
        report = evaluate(point_ids(masks), [0.9, 0.8, 0.7], gt)
        assert report.ap == report.ap50 == report.ap25 == 1.0
        assert report.rc == report.rc50 == report.rc25 == 1.0

    def test_zero_proposals(self):
        gt = np.array([0, 1, -1])
        report = evaluate([], [], gt)
        assert report.ap == report.ap50 == report.ap25 == 0.0
        assert report.rc25 == 0.0

    def test_hand_computed_half_ap(self):
        # 2 GT objects; proposal 1 matches perfectly, proposal 2 is disjoint.
        # precision sequence (1, 0.5), recall reaches 0.5 -> AP50 = 0.5
        gt = np.array([0] * 4 + [1] * 4 + [-1] * 4)
        perfect = gt == 0
        junk = np.zeros(12, dtype=bool)
        junk[8:] = True
        report = evaluate(point_ids([perfect, junk]), [0.9, 0.5], gt)
        curve = report.per_threshold[0.50]
        np.testing.assert_allclose(curve.precisions, [1.0, 0.5])
        np.testing.assert_allclose(curve.recalls, [0.5, 0.5])
        assert report.ap50 == pytest.approx(0.5)
        assert report.rc50 == pytest.approx(0.5)

    def test_greedy_matching_prefers_highest_iou_then_lower_id(self):
        gt = np.array([0] * 6 + [1] * 6)
        mostly_one = np.zeros(12, dtype=bool)
        mostly_one[4:12] = True  # IoU with gt1 = 6/8, with gt0 = 2/12
        report = evaluate(point_ids([mostly_one]), [1.0], gt, thresholds=(0.5,))
        assert report.per_threshold[0.50].matches == [(0, 1, pytest.approx(0.75))]
        # exact tie between two ground truths goes to the lower id
        tie = np.zeros(12, dtype=bool)
        tie[3:9] = True  # IoU 3/9 with both
        rep = evaluate(point_ids([tie]), [1.0], gt, thresholds=(0.25,))
        assert rep.per_threshold[0.25].matches[0][1] == 0

    def test_duplicate_lower_score_never_raises_ap(self):
        rng = np.random.default_rng(0)
        gt = rng.integers(-1, 3, size=40)
        masks = masks_from_labels(gt, [0, 1, 2])
        scores = [0.9, 0.8, 0.7]
        base = evaluate(point_ids(masks), scores, gt)
        dup = evaluate(point_ids(masks + [masks[0]]), scores + [0.1], gt)
        assert dup.ap <= base.ap + 1e-12

    def test_score_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        gt = rng.integers(-1, 4, size=60)
        masks = [rng.random(60) < 0.3 for _ in range(5)]
        scores = [0.9, 0.7, 0.5, 0.3, 0.1]
        a = evaluate(point_ids(masks), scores, gt)
        b = evaluate(point_ids(masks), [s * 7.5 for s in scores], gt)
        assert a.ap == b.ap and a.rc == b.rc

    def test_threshold_ordering_property(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            gt = rng.integers(-1, 4, size=50)
            if not np.any(gt >= 0):
                continue
            n = rng.integers(1, 7)
            masks = [rng.random(50) < rng.uniform(0.1, 0.5) for _ in range(n)]
            scores = sorted(rng.random(n).tolist(), reverse=True)
            report = evaluate(point_ids(masks), scores, gt)
            assert report.ap <= report.ap50 + 1e-12
            assert report.ap50 <= report.ap25 + 1e-12
            assert 0.0 <= report.ap <= 1.0

    def test_empty_gt_errors(self):
        with pytest.raises(ValueError, match="nothing to evaluate"):
            evaluate([], [], np.array([-1, -1]))

    def test_unsorted_scores_rejected(self):
        gt = np.array([0, 1])
        masks = masks_from_labels(gt, [0, 1])
        with pytest.raises(ValueError, match="descending"):
            evaluate(point_ids(masks), [0.1, 0.9], gt)

    def test_point_ids_out_of_range_or_unsorted_rejected(self):
        gt = np.array([0, 1, -1])
        for ids in ([0, 3], [-1, 1], [1, 0], [1, 1]):
            with pytest.raises(ValueError, match="strictly ascending and within the cloud"):
                evaluate([np.array(ids)], [1.0], gt)

    def test_default_thresholds(self):
        assert AP_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)


def reference_match(masks, gt_masks, threshold):
    """The per-threshold loop that recomputed every IoU: (matches, tp per rank)."""
    gt_ids = sorted(gt_masks)
    available = {g: True for g in gt_ids}
    tp, hits, matches = 0, [], []
    for i, mask in enumerate(masks):
        best_gt, best_iou = -1, 0.0
        for g in gt_ids:
            if not available[g]:
                continue
            iou = mask_iou(mask, gt_masks[g])
            if iou >= threshold and iou > best_iou:
                best_gt, best_iou = g, iou
        if best_gt >= 0:
            available[best_gt] = False
            tp += 1
            matches.append((i, best_gt, best_iou))
        hits.append(tp)
    return matches, hits


class TestSharedIouTable:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), gt=st.integers(1, 5), proposals=st.integers(0, 10))
    def test_matches_per_threshold_loop(self, seed, n, gt, proposals):
        # proposals are copies of gt instances, some perturbed, so IoUs tie
        # across proposals and gt ids
        rng = np.random.default_rng(seed)
        labels = rng.integers(-1, gt, size=n)
        labels[0] = 0
        masks = []
        for _ in range(proposals):
            mask = labels == rng.integers(0, gt)
            if rng.random() < 0.5:
                mask[rng.integers(0, n, size=2)] ^= True
            masks.append(mask)
        scores = sorted(rng.random(proposals).tolist(), reverse=True)
        report = evaluate(point_ids(masks), scores, labels, thresholds=(0.0, 0.3, 0.5, 1.0))
        gt_masks = {int(g): labels == g for g in np.unique(labels[labels >= 0])}
        for threshold, result in report.per_threshold.items():
            matches, hits = reference_match(masks, gt_masks, threshold)
            assert result.matches == matches
            assert all(type(iou) is float for _, _, iou in result.matches)
            np.testing.assert_array_equal(result.recalls, np.array(hits) / len(gt_masks))
            np.testing.assert_array_equal(result.precisions, np.array(hits) / np.arange(1, proposals + 1))


def mask_iou_report(masks, scores, labels, thresholds=AP_THRESHOLDS):
    """The report of a (proposal, gt) table of mask_iou over dense GT masks."""
    gt_ids = np.unique(labels[labels >= 0])
    gt_masks = [labels == g for g in gt_ids]
    ious = np.array([[mask_iou(mask, gt) for gt in gt_masks] for mask in masks]).reshape(len(masks), len(gt_ids))
    per = {t: _match_at_threshold(ious, gt_ids.tolist(), t) for t in sorted(set(thresholds) | {0.25, 0.50})}
    return EvalReport(
        ap=float(np.mean([per[t].ap for t in thresholds])),
        ap50=per[0.50].ap,
        ap25=per[0.25].ap,
        rc=float(np.mean([per[t].recall for t in thresholds])),
        rc50=per[0.50].recall,
        rc25=per[0.25].recall,
        per_threshold=per,
    )


@st.composite
def labelled_proposals(draw):
    """Points labelled background or GT ids {0, 7, 42}, and proposals that are
    empty, background-only, random, or unions of several instances."""
    n = draw(st.integers(1, 60))
    labels = np.array(draw(st.lists(st.sampled_from([-1, 0, 7, 42]), min_size=n, max_size=n)))
    labels[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0, 7, 42]))
    masks = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["empty", "background", "random", "union"]))
        if kind == "empty":
            mask = np.zeros(n, dtype=bool)
        elif kind == "background":
            mask = labels < 0
        elif kind == "random":
            mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            mask = np.isin(labels, draw(st.lists(st.sampled_from([-1, 0, 7, 42]), min_size=1, max_size=4)))
            for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
                mask[i] ^= True
        masks.append(mask)
    scores = draw(st.lists(st.sampled_from([0.1, 0.5, 1.0]), min_size=len(masks), max_size=len(masks)))
    return masks, sorted(scores, reverse=True), labels


class TestIntegerOverlapTable:
    """evaluate's bincount intersections give the reports of the mask_iou table."""

    @settings(max_examples=200, deadline=None)
    @given(labelled_proposals(), st.sampled_from([AP_THRESHOLDS, (0.0, 0.3, 0.5, 1.0)]))
    def test_equals_mask_iou_report(self, case, thresholds):
        masks, scores, labels = case
        got = evaluate(point_ids(masks), scores, labels, thresholds)
        want = mask_iou_report(masks, scores, labels, thresholds)
        assert got.table() == want.table()
        assert got.per_threshold.keys() == want.per_threshold.keys()
        for t, result in want.per_threshold.items():
            assert got.per_threshold[t].matches == result.matches
            assert (got.per_threshold[t].ap, got.per_threshold[t].recall) == (result.ap, result.recall)
            np.testing.assert_array_equal(got.per_threshold[t].precisions, result.precisions)
            np.testing.assert_array_equal(got.per_threshold[t].recalls, result.recalls)

    def test_proposal_spanning_instances(self):
        labels = np.array([-1, 0, 0, 7, 7, 7, 42, -1])
        masks = [labels >= 0, np.zeros(8, bool), labels < 0, labels == 7]
        report = evaluate(point_ids(masks), [1.0, 0.9, 0.8, 0.7], labels, thresholds=(0.25,))
        # the union covers 6 points: 2/6 of gt 0, 3/6 of gt 7, 1/6 of gt 42
        assert report.per_threshold[0.25].matches == [(0, 7, 0.5)]
        assert report.table() == mask_iou_report(masks, [1.0, 0.9, 0.8, 0.7], labels, (0.25,)).table()
