"""Per-object 2D mask tracks and their providers.

Three sources of tracks exist:

* :func:`oracle_track` reads exact per-view instance renders and is the
  trusted fixture for everything downstream,
* :func:`noisy_track` degrades oracle output with drop / morphology /
  boundary-flip noise plus a forgetting rule after long invisibility gaps,
* :func:`read_tracks` ingests externally produced track files.

Masks are (H, W) boolean arrays keyed by working-view index. A track read
from a file keeps its views' run lengths packed in one array, as each line's
numbers were converted in one call, and decodes a view's mask only when it
is indexed. Lifting reads the runs themselves (:func:`track_intervals`), so it
decodes no mask.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrackingError, read_text
from .geometry import fps_sample
from .view_select import PixelIndex, mask_intervals

__all__ = [
    "NoiseSpec",
    "TrackerQuery",
    "MaskTrack",
    "build_tracker_query",
    "oracle_track",
    "noisy_track",
    "encode_rle",
    "decode_rle",
    "write_tracks",
    "read_tracks",
    "track_intervals",
]

# the morphology's default structure, scipy.ndimage.generate_binary_structure(2, 1)
_CROSS = np.array([[False, True, False], [True, True, True], [False, True, False]])


@dataclass
class NoiseSpec:
    """Degradation model emulating 2D tracker failure modes.

    p_drop: per-view probability of losing the mask entirely
    r_morph: radius (taxicab) of a random dilation or erosion per view
    p_flip: per-pixel flip probability inside the boundary band
    flip_band: half-width of the boundary band subject to flips
    memory_window: gap length (in views) after which the tracker forgets
        the object until the next reprompt view
    """

    p_drop: float = 0.0
    r_morph: int = 0
    p_flip: float = 0.0
    flip_band: int = 2
    memory_window: int = 7

    def __post_init__(self) -> None:
        for name in ("p_drop", "p_flip"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.r_morph < 0 or self.flip_band < 0:
            raise ValueError("morphology radii must be nonnegative")
        if self.memory_window < 1:
            raise ValueError("memory_window must be at least 1")


@dataclass
class TrackerQuery:
    """Prompts handed to a tracker for one superpoint.

    point_prompts are (row, col) pixels inside the pivot-view projection;
    reprompt_views are the views where the superpoint reappears after an
    invisibility gap longer than the memory window, and where the tracker
    is re-anchored on it.
    """

    pivot_view: int
    point_prompts: list[tuple[int, int]]
    reprompt_views: frozenset[int] = frozenset()


@dataclass
class MaskTrack:
    """One object's per-view binary masks plus a confidence score; ``instance``
    is the render id the masks are exactly, or None (a track file has none)."""

    track_id: int
    score: float
    masks: Mapping[int, np.ndarray]
    pivot_view: int
    seed_superpoint: int
    instance: int | None = None

    def __post_init__(self) -> None:
        if self.pivot_view not in self.masks:
            raise ValueError("pivot view must be present in the track")
        if not np.isfinite(self.score):
            raise ValueError("score must be finite")

    def views(self) -> list[int]:
        return sorted(self.masks)


def build_tracker_query(
    superpoint: int,
    pixels: PixelIndex,
    pivot: int,
    memory_window: int = 7,
    prompt_count: int = 3,
) -> TrackerQuery:
    """Choose point prompts in the pivot view and the views to re-prompt at.

    Prompts are picked by 2D farthest-point sampling over the superpoint's
    distinct pivot-view pixels (fewer than ``prompt_count`` when the
    projection is smaller). A re-prompt view is every view where the
    superpoint reappears after more than ``memory_window`` consecutive
    invisible views. ``pixels`` is the scene's pixel index.
    """
    if not 0 <= superpoint < pixels.counts.shape[1]:
        raise ValueError("superpoint id out of range")
    if pixels.counts[pivot, superpoint] == 0:
        raise TrackingError("superpoint invisible in pivot")

    # ascending pixel ids are the (row, col) pairs in lexicographic order
    uniq = np.stack(np.divmod(np.unique(pixels.pixels_of(pivot, superpoint)), pixels.shape[1]), axis=1)
    embedded = np.column_stack([uniq.astype(np.float64), np.zeros(len(uniq))])
    picks = fps_sample(embedded, min(prompt_count, len(uniq)))
    prompts = [(int(uniq[i, 0]), int(uniq[i, 1])) for i in picks]

    visible = np.flatnonzero(pixels.counts[:, superpoint] > 0)
    reprompts = frozenset(visible[1:][np.diff(visible) - 1 > memory_window].tolist())
    return TrackerQuery(pivot, prompts, reprompts)


def _majority_instance(render: np.ndarray, prompts: list[tuple[int, int]]) -> int:
    votes = [int(render[r, c]) for r, c in prompts]
    votes = [v for v in votes if v >= 0]
    if not votes:
        raise TrackingError("prompts hit no instance")
    ids, counts = np.unique(votes, return_counts=True)
    return int(ids[np.argmax(counts)])


def oracle_track(
    query: TrackerQuery,
    instance_renders: list[np.ndarray],
    track_id: int = 0,
    seed_superpoint: int = -1,
) -> MaskTrack:
    """Exact tracker: the ground-truth renders of the id the prompts land on
    (majority vote, ties to the lowest id), which is the track's ``instance``."""
    target = _majority_instance(instance_renders[query.pivot_view], query.point_prompts)
    masks: dict[int, np.ndarray] = {}
    for t, render in enumerate(instance_renders):
        mask = render == target
        if mask.any():
            masks[t] = mask
    return MaskTrack(track_id, 1.0, masks, query.pivot_view, seed_superpoint, target)


def noisy_track(
    query: TrackerQuery,
    instance_renders: list[np.ndarray],
    noise: NoiseSpec,
    rng_seed: int,
    track_id: int = 0,
    seed_superpoint: int = -1,
) -> MaskTrack:
    """Oracle track degraded per :class:`NoiseSpec`, reproducible per seed.

    Per view (ascending, pivot exempt from dropping): drop with p_drop,
    then randomly dilate or erode by r_morph, then flip boundary-band
    pixels with p_flip. Afterwards a forgetting pass erases masks following
    any gap longer than the memory window until the next reprompt view; the
    pivot always survives and resets the gap. Masks noised down to empty
    count as dropped. Score is the surviving fraction of oracle views.
    Morphology and flips run on the mask's bounding box grown by ``r_morph +
    flip_band``, which gives the whole-image result. The flip draw takes
    only the box's rows and skips the generator past the rows before and
    after them, so its values and every later draw are those of a
    whole-image draw.
    """
    from scipy import ndimage  # imported here, its only user, so importing the CLI does not load it

    base = oracle_track(query, instance_renders, track_id, seed_superpoint)
    rng = np.random.default_rng(rng_seed)
    margin = noise.r_morph + noise.flip_band
    noised: dict[int, np.ndarray] = {}
    for t in sorted(base.masks):
        full = base.masks[t]
        if t != query.pivot_view and noise.p_drop > 0 and rng.random() < noise.p_drop:
            continue
        rows, cols = np.flatnonzero(full.any(axis=1)), np.flatnonzero(full.any(axis=0))
        box = np.s_[max(rows[0] - margin, 0) : rows[-1] + margin + 1, max(cols[0] - margin, 0) : cols[-1] + margin + 1]
        mask = full[box]
        if noise.r_morph > 0:
            if rng.random() < 0.5:
                mask = ndimage.binary_dilation(mask, _CROSS, iterations=noise.r_morph)
            else:
                mask = ndimage.binary_erosion(mask, _CROSS, iterations=noise.r_morph)
        if noise.p_flip > 0 and noise.flip_band > 0:
            band = ndimage.binary_dilation(mask, _CROSS, iterations=noise.flip_band)
            band &= ~ndimage.binary_erosion(mask, _CROSS, iterations=noise.flip_band)
            flips = band & (_box_uniforms(rng, full.shape, box) < noise.p_flip)
            mask = mask ^ flips
        if t == query.pivot_view or mask.any():
            noised[t] = np.zeros_like(full)
            noised[t][box] = mask

    kept = _apply_forgetting(noised, query, len(instance_renders), noise.memory_window)
    score = len(kept) / len(base.masks)
    return MaskTrack(track_id, score, kept, query.pivot_view, seed_superpoint)


def _box_uniforms(rng: np.random.Generator, shape: tuple[int, int], box: tuple[slice, slice]) -> np.ndarray:
    """``rng.random(shape)[box]``, drawing only the box's rows. Each double
    takes one 64-bit step of the bit generator, so advancing it by the
    values of the rows before and after the box leaves it where the
    whole-image draw would."""
    rows, cols = box
    height, width = shape
    r0, r1 = rows.indices(height)[:2]
    rng.bit_generator.advance(r0 * width)
    values = rng.random((r1 - r0, width))[:, cols]
    rng.bit_generator.advance((height - r1) * width)
    return values


def _apply_forgetting(
    masks: dict[int, np.ndarray],
    query: TrackerQuery,
    view_count: int,
    memory_window: int,
) -> dict[int, np.ndarray]:
    kept: dict[int, np.ndarray] = {}
    gap = 0
    lost = False
    for t in range(view_count):
        if t == query.pivot_view:
            kept[t] = masks[t]
            gap = 0
            lost = False
            continue
        if t in masks:
            if lost and t not in query.reprompt_views:
                gap += 1  # forgotten views extend the gap
                continue
            kept[t] = masks[t]
            gap = 0
            lost = False
        else:
            gap += 1
            if gap > memory_window:
                lost = True
    return kept


# --- track file serialization -------------------------------------------
#
# Line-delimited text. First line: "tracks 1 <H> <W>". Each further line is
# one track: track_id, score, pivot_view, then per-view entries
# "t:r0 r1 r2 ..." whose run lengths alternate zero-runs/one-runs starting
# with zeros, row-major, and sum to H*W. A seed-superpoint integer may
# appear between pivot_view and the first view entry; the writer always
# emits it (round-trips must preserve every track field) and the reader
# treats it as optional, defaulting to -1 for externally produced files.

_HEADER = "tracks 1"


def encode_rle(mask: np.ndarray) -> list[int]:
    """The gaps between the mask's interval bounds, less the empty run after
    an interval that ends at the last pixel."""
    flat = np.asarray(mask, dtype=bool).reshape(-1)
    runs = np.diff(np.concatenate([[0], mask_intervals([flat])[0], [flat.size]])).tolist()
    return runs[:-1] if len(runs) > 1 and runs[-1] == 0 else runs


def _check_runs(runs: list[int] | np.ndarray, height: int, width: int) -> np.ndarray:
    """The run lengths as int64, once they sum to height * width and none is negative."""
    runs = np.asarray(runs)
    total = sum(runs.tolist())  # Python ints: an int64 sum could wrap to height * width
    if total != height * width:
        raise ValueError(f"run lengths sum to {total}, expected {height * width}")
    if np.any(runs < 0):
        raise ValueError("run lengths must be nonnegative")
    return runs.astype(np.int64, copy=False)


def decode_rle(runs: list[int] | np.ndarray, height: int, width: int) -> np.ndarray:
    return _repeat_runs(_check_runs(runs, height, width), height, width)


def _repeat_runs(runs: np.ndarray, height: int, width: int) -> np.ndarray:
    """The mask of int64 run lengths that :func:`_check_runs` has passed."""
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape(height, width)


class _RunLengthMasks(Mapping):
    """The masks of a track read from a file, packed: view ``views[i]``'s
    run lengths are ``runs[offsets[i]:offsets[i + 1]]``, in file order. A
    view's mask is decoded each time it is indexed; ``in``, ``len``,
    iteration and lifting decode nothing. The runs were checked as the file
    was read, so a decode does not check them again."""

    def __init__(self, views: np.ndarray, runs: np.ndarray, offsets: np.ndarray, height: int, width: int) -> None:
        self._at = {view: i for i, view in enumerate(views.tolist())}
        self._runs, self._offsets = runs, offsets
        self.shape = (height, width)

    def __getitem__(self, view: int) -> np.ndarray:
        return _repeat_runs(self._view_runs(view), *self.shape)

    def __contains__(self, view) -> bool:
        return view in self._at

    def __iter__(self):
        return iter(self._at)

    def __len__(self) -> int:
        return len(self._at)

    def _view_runs(self, view: int) -> np.ndarray:
        i = self._at[view]
        return self._runs[self._offsets[i] : self._offsets[i + 1]]

    def intervals(self, views: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~seglift.view_select.mask_intervals` of the masks of
        ``views``, each of them held, read from their runs: the bounds of a
        view's k-th ones-run are the sums of its first 2k + 1 and 2k + 2 runs."""
        if views == list(self._at):
            runs, offsets = self._runs, self._offsets
        else:
            runs, offsets = _pack([self._view_runs(t) for t in views])
        lengths = np.diff(offsets)
        bounded = 2 * (lengths // 2)  # a view's runs up to its last ones-run
        # view v's runs follow v views of H * W pixels each, so its sums less v * H * W are pixel ids
        sums = np.cumsum(runs) - np.repeat(np.arange(len(views)) * (self.shape[0] * self.shape[1]), lengths)
        keep = np.arange(len(runs)) - np.repeat(offsets[:-1], lengths) < np.repeat(bounded, lengths)
        return sums[keep], np.concatenate([[0], np.cumsum(bounded)])


def track_intervals(track: MaskTrack, views: list[int], shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~seglift.view_select.mask_intervals` of the track's masks in
    ``views``. A track read from a file gives them from its runs, decoding
    no mask. A mask not of the (H, W) ``shape`` is a ValueError naming its
    view."""
    masks = track.masks
    held = isinstance(masks, _RunLengthMasks)
    for t in views:
        got = masks.shape if held else masks[t].shape
        if got != shape:
            raise ValueError(f"track {track.track_id} view {t}: mask shape {got} does not match frame {shape}")
    return masks.intervals(views) if held else mask_intervals([masks[t] for t in views])


def write_tracks(
    tracks: list[MaskTrack],
    path,
    height: int | None = None,
    width: int | None = None,
) -> None:
    if height is None or width is None:
        height, width = next((mask.shape for track in tracks for mask in track.masks.values()), (0, 0))
    lines = [f"{_HEADER} {height} {width}"]
    for track in tracks:
        parts = [str(track.track_id), repr(float(track.score)), str(track.pivot_view), str(track.seed_superpoint)]
        for t in sorted(track.masks):
            mask = track.masks[t]
            if mask.shape != (height, width):
                raise ValueError(f"track {track.track_id} view {t}: mask shape {mask.shape} != {(height, width)}")
            runs = encode_rle(mask)
            parts.append(f"{t}:" + " ".join(str(r) for r in runs))
        lines.append(" ".join(parts))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_tracks(path) -> list[MaskTrack]:
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty track file (missing header)")
    header = lines[0].split()
    if len(header) != 4 or " ".join(header[:2]) != _HEADER:
        raise DataError(f"{path}: line 1: bad header {lines[0]!r}")
    try:
        height, width = int(header[2]), int(header[3])
    except ValueError as exc:
        raise DataError(f"{path}: line 1: bad header dimensions") from exc
    if min(height, width) < 0 or max(height, width, height * width) >= 2**63:  # run sums must fit in int64
        raise DataError(f"{path}: line 1: bad header dimensions")

    tracks = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) < 4:
            raise DataError(f"{path}: line {lineno}: truncated track record")
        try:
            track_id = int(tokens[0])
            score = float(tokens[1])
            pivot = int(tokens[2])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad track fields") from exc
        rest = tokens[3:]
        seed = -1
        if rest and ":" not in rest[0]:
            try:
                seed = int(rest[0])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: bad seed field") from exc
            rest = rest[1:]
        masks = _RunLengthMasks(*_parse_views(rest, height, width, path, lineno), height, width)
        try:
            tracks.append(MaskTrack(track_id, score, masks, pivot, seed))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return tracks


def _parse_views(rest: list[str], height: int, width: int, path, lineno: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One line's ``t:r0 r1 ...`` entries: their view ids in line order, their
    checked int64 run lengths packed in one array, and each view's offsets
    into it. The line's numbers are converted in one call and checked at
    once; a line that fails, or that such a conversion could misread, is
    parsed again by :func:`_parse_entries`, whose errors name the first bad
    token."""
    packed = _packed_line(" ".join(rest), height * width)
    if packed is None:
        by_view = _parse_entries(rest, height, width, path, lineno)
        packed = (np.array(list(by_view), dtype=np.int64), *_pack(list(by_view.values())))
    return packed


def _pack(spans: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """int64 arrays joined into one, and each one's offsets into it."""
    return np.concatenate([np.empty(0, dtype=np.int64), *spans]), np.cumsum([0] + [len(span) for span in spans])


def _packed_line(text: str, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """What :func:`_parse_views` gives for a line whose entry tokens, joined
    by single spaces, are ``text``, from one conversion of all its numbers;
    or None, which leaves the line to the token loop. That is so for a bad
    line, and for one where numpy could read a number other than ``int``
    does: it reads a lone sign as 0 and a number beyond int64 as int64's
    limit, so a line with a sign or a number at that limit is left too."""
    if "-" in text or "+" in text:
        return None
    # the first piece is the first view id; every later one holds an entry's runs and then the next view id
    pieces = text.split(":")
    spaces = [piece.count(" ") for piece in pieces]
    if len(pieces) < 2 or spaces[0] or 0 in spaces[1:-1]:
        return None
    try:
        numbers = np.fromstring(text.replace(":", " "), dtype=np.int64, sep=" ")
    except ValueError:  # a token that is not a decimal number
        return None
    # a number for every piece's every space-separated part: none is empty, as one by a colon at a token's end
    if len(numbers) != len(pieces) + sum(spaces) or numbers.max() == 2**63 - 1:
        return None
    lengths = np.array(spaces[1:])  # each entry's runs: a piece's parts but the last piece's next view id
    lengths[-1] += 1
    heads = np.cumsum(lengths + 1) - lengths - 1  # each view id's place among the numbers
    is_run = np.ones(len(numbers), dtype=bool)
    is_run[heads] = False
    views, runs = numbers[heads], numbers[is_run]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    # runs of at most size each, and few enough that no sum wraps
    if len(np.unique(views)) < len(views) or runs.max() > size or len(runs) * size >= 2**63:
        return None
    if np.any(np.add.reduceat(runs, offsets[:-1]) != size):
        return None
    return views, runs, offsets


def _parse_entries(rest: list[str], height: int, width: int, path, lineno: int) -> dict[int, np.ndarray]:
    """Checked int64 run lengths of one line's ``t:r0 r1 ...`` entries, read
    token by token with Python ints. Errors name the first bad token, entry
    by entry, as a reader meets them; a view id beyond int64 is reported
    only once every entry has passed."""
    starts = [i for i, token in enumerate(rest) if ":" in token]
    if rest and starts[:1] != [0]:
        raise DataError(f"{path}: line {lineno}: run length before any view entry")
    by_view: dict[int, np.ndarray] = {}
    for a, b in zip(starts, starts[1:] + [len(rest)]):
        head, _, tail = rest[a].partition(":")
        try:
            view = int(head)
            runs = [int(tail)] if tail else []
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad view entry {rest[a]!r}") from exc
        if view in by_view:
            raise DataError(f"{path}: line {lineno}: view {view} listed twice")
        for token in rest[a + 1 : b]:
            try:
                runs.append(int(token))
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: bad run length {token!r}") from exc
        by_view[view] = _line_runs(runs, height, width, path, lineno)
    if any(not -(2**63) <= view < 2**63 for view in by_view):
        raise DataError(f"{path}: line {lineno}: a view id beyond int64")
    return by_view


def _line_runs(runs: list[int] | np.ndarray, height: int, width: int, path, lineno: int) -> np.ndarray:
    try:
        return _check_runs(runs, height, width)
    except ValueError as exc:
        raise DataError(f"{path}: line {lineno}: {exc}") from exc
