"""Working-memory bounds of scene setup and track reading, traced with tracemalloc.

numpy reports its buffers to tracemalloc, so the traced peak of a call is
the most its arrays held at once. The bounds are sums of the arrays each
stage is meant to keep: a few whole-cloud arrays plus the temporaries of
one block. The earlier whole-array stages went well past them (about
34 MB for the normals and 25 MB for the partition on this cloud, and 23 MB
of decoded masks for the track file).
"""

import tracemalloc

import numpy as np
import pytest

from seglift import geometry, superpoints
from seglift.geometry import PointCloud, estimate_normals, shared_knn
from seglift.pipeline import PipelineConfig, prepare_state, run_pipeline, subsample_views
from seglift.superpoints import partition_superpoints
from seglift.synth import SceneSpec, build_scene, load_cloud, load_scene, save_scene
from seglift.tracks import MaskTrack, read_tracks, write_tracks

from conftest import pixel_index

NORMALS_K = 12
GRAPH_K = 10


@pytest.fixture(scope="module")
def cloud():
    """A fixed 40,075-point room with eight objects."""
    scene = build_scene(SceneSpec(object_count=8, frame_count=1, seed=3, density=270.0, image_size=(16, 12)))
    assert len(scene.cloud) == 40_075
    return scene.cloud


def traced_peak(fn, *args, **kwargs):
    """Bytes that ``fn`` held at its peak, above what was allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_normals_peak_is_one_block(cloud):
    n = len(cloud)
    assert 4 * geometry._NORMALS_BLOCK < n  # several blocks: a whole-cloud fit cannot pass
    nbr, _ = shared_knn(cloud.positions, (NORMALS_K, GRAPH_K))
    block_hood = geometry._NORMALS_BLOCK * (NORMALS_K + 1) * 3 * 8  # one block's gathered neighbourhood
    bound = 3 * block_hood + 4 * n * 3 * 8  # plus four (N, 3) float arrays: the result and its sign pass
    peak = traced_peak(estimate_normals, cloud.positions, NORMALS_K, neighbors=nbr)
    assert peak < bound


def test_partition_peak_is_a_few_edge_arrays(cloud):
    n = len(cloud)
    assert 4 * superpoints._EDGE_BLOCK < n  # several blocks of edges, at least one per two points
    normal_nbr, nbr = shared_knn(cloud.positions, (NORMALS_K, GRAPH_K))
    normals = estimate_normals(cloud.positions, NORMALS_K, neighbors=normal_nbr)
    edge_array = n * GRAPH_K * 8  # int64 or float64 over every directed k-NN edge
    gathers = 2 * superpoints._EDGE_BLOCK * 3 * 8  # the two (block, 3) normal gathers
    bound = 2 * edge_array + gathers
    peak = traced_peak(partition_superpoints, cloud, normals, knn_k=GRAPH_K, neighbors=nbr)
    assert peak < bound


def test_knn_peak_is_its_four_byte_ids(cloud):
    """The k-NN holds 4-byte ids and one block's distances; a whole (N, k+1)
    distance matrix next to 8-byte ids would take twice the bound."""
    n = len(cloud)
    assert 4 * geometry._KNN_BLOCK < n  # several query blocks
    bound = 1.5 * n * (NORMALS_K + 1) * 8
    peak = traced_peak(shared_knn, cloud.positions, (NORMALS_K, GRAPH_K))
    assert peak < bound
    assert all(nbr.dtype.itemsize == 4 for nbr in shared_knn(cloud.positions, (NORMALS_K, GRAPH_K)))


def test_track_file_peak_is_set_by_its_runs(tmp_path):
    """10 tracks of 30 views at 240x320, each mask a 40-row rectangle: 81 runs
    per view. Dense masks would take tracks x views x H x W bytes (23 MB)."""
    height, width, track_count, view_count = 240, 320, 10, 30
    tracks = []
    for i in range(track_count):
        masks = {}
        for t in range(view_count):
            mask = np.zeros((height, width), dtype=bool)
            mask[60 + t : 100 + t, 40 + 5 * i : 120 + 5 * i] = True
            masks[t] = mask
        tracks.append(MaskTrack(i, 1.0, masks, pivot_view=0, seed_superpoint=i))
    path = tmp_path / "rect.tracks"
    write_tracks(tracks, path)
    entries = track_count * view_count
    runs = entries * (1 + 2 * 40)
    # 8 B per int64 run, the text twice (file and lines) at under 6 B per run,
    # one line's tokens as Python strings; 1 KB per view for its array and slot
    bound = 64 * runs + 1024 * entries
    assert 8 * bound < entries * height * width  # a dense mask per view cannot pass
    peak = traced_peak(read_tracks, path)
    assert peak < bound


def test_projection_and_index_peak_is_the_index_and_one_view():
    """Projecting view by view into the index holds the index, twice while
    its per-view parts are joined, and one view's whole-cloud temporaries.
    A list of every view's int64 rows, columns and ids (24 B per entry)
    cannot pass."""
    scene = build_scene(SceneSpec(object_count=3, frame_count=60, seed=1))
    n = len(scene.cloud)
    partition = partition_superpoints(scene.cloud, estimate_normals(scene.cloud.positions, NORMALS_K))
    entries = int(pixel_index(partition, scene.cloud.positions, scene.frames).starts[-1])
    table = 2 * len(scene.frames) * partition.count * 8  # the (T, L) counts and first-pixel table, and the starts
    # 8 B per entry: the parts and the joined flat; eight (N,) float64 arrays
    # of one view; 64 KB for the per-view Python objects
    bound = 8 * entries + 8 * n * 8 + table + 65536
    assert 24 * entries > bound  # the whole-scene list form cannot pass
    peak = traced_peak(pixel_index, partition, scene.cloud.positions, scene.frames)
    assert peak < bound


def test_one_view_projection_peak_per_cloud_point():
    """One view of the 40k-point room, where 37% of the points pass the cull
    (z > 0 and -1 < u < W + 1). Projection holds the camera coordinates
    (24 B per point) and the cull mask (1 B) until the cull, then about a
    dozen 8-byte arrays over the survivors. Rounding and bounds-testing
    every point, as a whole-cloud pass would, held 56 B per point."""
    scene = build_scene(SceneSpec(object_count=8, frame_count=1, seed=3, density=270.0, image_size=(160, 120)))
    n, frame = len(scene.cloud), scene.frames[0]
    assert n == 40_075
    cam = scene.cloud.positions @ frame.rotation.T + frame.translation
    u = frame.fx * cam[:, 0] / cam[:, 2] + frame.cx
    assert np.mean((cam[:, 2] > 0) & (u > -1) & (u < frame.width + 1)) < 0.4
    peak = traced_peak(geometry.project_points, scene.cloud.positions, frame, 0.1)
    assert peak < 40 * n


def test_pixel_index_holds_four_bytes_per_entry():
    """One int32 key per projected point, besides the (T, L) counts and the
    (T + 1,) view starts; parallel row, column and label arrays would take
    12 B."""
    scene = build_scene(SceneSpec(object_count=3, frame_count=8, seed=1))
    partition = partition_superpoints(scene.cloud, estimate_normals(scene.cloud.positions, NORMALS_K))
    pixels = pixel_index(partition, scene.cloud.positions, scene.frames)
    entries = int(pixels.starts[-1])
    T, L = len(scene.frames), partition.count
    assert entries > 0 and pixels.counts.shape == (T, L)
    held = sum(value.nbytes for value in vars(pixels).values() if isinstance(value, np.ndarray))
    assert held <= 4 * entries + 8 * T * L + 8 * (T + 1)


def test_union_find_lists_hold_one_block():
    """On a uniform random cloud almost no two normals are equal, so nearly
    every edge reaches the Python union-find. Its edges are converted to
    Python scalars one block at a time: lists over every edge, at about
    100 B per edge (two int objects, a float object and three list slots),
    cannot pass the bound of the room test above."""
    n = 40_000
    positions = np.random.default_rng(0).random((n, 3))
    cloud = PointCloud(positions)
    normal_nbr, nbr = shared_knn(positions, (NORMALS_K, GRAPH_K))
    normals = estimate_normals(positions, NORMALS_K, neighbors=normal_nbr)
    lo = np.minimum(nbr[:, 1:], np.arange(n)[:, None])
    hi = np.maximum(nbr[:, 1:], np.arange(n)[:, None])
    edges = np.unique(lo * n + hi)
    lo, hi = np.divmod(edges, n)
    weighted = int(np.count_nonzero(np.abs(np.einsum("ij,ij->i", normals[lo], normals[hi])) != 1.0))
    bound = 5 * n * GRAPH_K * 8 + 2 * superpoints._EDGE_BLOCK * 3 * 8
    assert weighted > 0.9 * len(edges)
    assert 100 * weighted > bound  # lists over every weighted edge cannot pass
    peak = traced_peak(partition_superpoints, cloud, normals, knn_k=GRAPH_K, neighbors=nbr)
    assert peak < bound


@pytest.fixture(scope="module")
def frame_scene_dir(tmp_path_factory):
    """60 frames of 160x120 around a small cloud: the frames' arrays
    (9.2 MB of depth maps and instance renders) dwarf the cloud."""
    path = tmp_path_factory.mktemp("frames") / "scene"
    save_scene(build_scene(SceneSpec(object_count=2, frame_count=60, seed=1, density=10.0, image_size=(160, 120))), path)
    return path


def traced_held(fn, *args):
    """Bytes still allocated by the result of ``fn`` once it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return tracemalloc.get_traced_memory()[0] - base, result
    finally:
        tracemalloc.stop()


def test_loaded_scene_holds_no_frame_arrays(frame_scene_dir):
    """Loading checks every frame file but reads none: beyond its cloud, a
    loaded scene holds less than two frames' arrays, where reading every
    frame would hold sixty."""
    frame_bytes = 160 * 120 * (4 + 4)  # a float32 depth map and an int32 instance render
    cloud_held, _ = traced_held(load_cloud, frame_scene_dir)
    scene_held, scene = traced_held(load_scene, frame_scene_dir)
    assert len(scene.frames) == 60
    assert 60 * frame_bytes > cloud_held + 2 * frame_bytes  # an eager loader cannot pass
    assert scene_held < cloud_held + 2 * frame_bytes
    assert traced_peak(load_scene, frame_scene_dir) < traced_peak(load_cloud, frame_scene_dir) + 2 * frame_bytes


def test_setup_never_holds_every_working_depth_map(frame_scene_dir):
    """prepare_state reads each working depth map as it projects that view,
    so its peak, which includes the normals and the graph cut, stays below
    the bytes of all working depth maps together."""
    scene = load_scene(frame_scene_dir)
    depth_bytes = 60 * 160 * 120 * 4
    peak = traced_peak(prepare_state, scene.cloud, scene.frames, None, PipelineConfig(view_stride=1))
    assert peak < depth_bytes


def test_proposals_hold_no_point_masks(small_scene):
    """A proposal is its superpoint set. With the result of a run alive, the
    run holds its partition (two int64 ids per point) and a few KB per
    proposal, where a dense mask per proposal would hold P x N bytes. The
    64 file tracks are copies of the three objects' exact tracks, and
    ``dedup_iou = 1`` keeps every proposal."""
    working = subsample_views(small_scene.instances, 10)
    objects = [{t: inst == oid for t, inst in enumerate(working) if np.any(inst == oid)} for oid in range(3)]
    tracks = [MaskTrack(i, 0.9, objects[i % 3], min(objects[i % 3]), -1) for i in range(64)]
    args = (small_scene.cloud, small_scene.frames, PipelineConfig(dedup_iou=1.0), "file", None, tracks)
    run_pipeline(*args)  # the first run's one-time allocations are not the result's
    held, result = traced_held(run_pipeline, *args)
    n, p = len(small_scene.cloud), len(result.proposals)
    assert p == len(tracks)
    bound = 2 * 8 * n + 2048 * p + 65536
    assert p * n > bound  # one dense mask per proposal cannot pass
    assert held < bound
