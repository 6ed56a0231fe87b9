"""Class-agnostic 3D instance proposals from posed RGB-D sequences.

The pipeline over-segments a point cloud into superpoints, picks the view
where each sampled superpoint is most visible, obtains a 2D mask track for
the underlying object, lifts the track to candidate superpoints, and
refines the candidate set with a greedy forward sweep over views.
"""

from .errors import DataError, InvariantViolation, TrackingError
from .evaluation import EvalReport, evaluate, mask_iou
from .geometry import (
    CameraFrame,
    PixelSet,
    PointCloud,
    estimate_normals,
    fps_sample,
    knn_centroids,
    project_cloud,
    project_points,
)
from .optimize import (
    Solution,
    VisibilityMatrix,
    all_lifted,
    brute_force_superpoints,
    brute_force_views,
    dp_refine,
    objective_from_counts,
    top_k_views_refine,
    visibility_matrix,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    PipelineState,
    Proposal,
    prepare_state,
    run_pipeline,
    run_round,
    run_rounds,
    subsample_views,
)
from .superpoints import SuperpointPartition, partition_superpoints
from .synth import Scene, SceneSpec, build_scene, generate_scene, load_cloud, load_scene, render_frames, save_scene
from .tracks import (
    MaskTrack,
    NoiseSpec,
    TrackerQuery,
    build_tracker_query,
    noisy_track,
    oracle_track,
    read_tracks,
    write_tracks,
)
from .view_select import NoPivotViewError, PixelIndex, pivot_view, scale_factors, superpoint_view_counts

__version__ = "0.1.0"
