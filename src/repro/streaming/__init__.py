"""Incremental sketch maintenance with Structured Streaming.

The paper's first key challenge is "efficiency of network construction
and updates ... to achieve interactivity": new observations must extend
the sketch store without rebuilding it. Basic-window statistics are pure
sums (count, Σx, pairwise Σxy with Σx² on its diagonal), hence
mergeable: each micro-batch contributes partial sums that an upsert adds
into the store. The store holds them as dense numpy arrays in the sketch
tile's own layout and persists them as one ``.npz`` file.

- ``sketch_stream`` — the store and the Structured Streaming
  ``foreachBatch`` upsert that feeds it;
- ``query``        — serving correlation queries straight from the
  store's tile (``pair_sketch.matrix_tile``'s format), Dangoron included.
"""
