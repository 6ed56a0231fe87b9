"""Class-agnostic 3D instance proposals from posed RGB-D sequences.

The pipeline over-segments a point cloud into superpoints, picks the view
where each sampled superpoint is most visible, obtains a 2D mask track for
the underlying object, lifts the track to candidate superpoints, and
refines the candidate set with a greedy forward sweep over views.
"""

__version__ = "0.1.0"
