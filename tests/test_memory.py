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
from seglift.geometry import estimate_normals, shared_knn
from seglift.superpoints import partition_superpoints
from seglift.synth import SceneSpec, build_scene
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
    bound = 5 * edge_array + gathers
    peak = traced_peak(partition_superpoints, cloud, normals, knn_k=GRAPH_K, neighbors=nbr)
    assert peak < bound


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
    entries = int(pixel_index(partition, scene.cloud.positions, scene.frames).offsets[-1])
    table = 2 * len(scene.frames) * partition.count * 8  # the (T, L) counts and their offsets
    # 8 B per entry: the parts and the joined flat; eight (N,) float64 arrays
    # of one view; 64 KB for the per-view Python objects
    bound = 8 * entries + 8 * n * 8 + table + 65536
    assert 24 * entries > bound  # the whole-scene list form cannot pass
    peak = traced_peak(pixel_index, partition, scene.cloud.positions, scene.frames)
    assert peak < bound


def test_pixel_index_holds_four_bytes_per_entry():
    """One int32 pixel id per projected point, besides the (T, L) counts and
    their offsets; parallel row, column and label arrays would take 12 B."""
    scene = build_scene(SceneSpec(object_count=3, frame_count=8, seed=1))
    partition = partition_superpoints(scene.cloud, estimate_normals(scene.cloud.positions, NORMALS_K))
    pixels = pixel_index(partition, scene.cloud.positions, scene.frames)
    entries = int(pixels.offsets[-1])
    assert entries > 0
    held = sum(value.nbytes for value in vars(pixels).values() if isinstance(value, np.ndarray))
    assert held <= 4 * entries + pixels.counts.nbytes + pixels.offsets.nbytes
