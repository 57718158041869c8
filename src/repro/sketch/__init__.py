"""Basic-window sketch substrate (the framework of StatStream/TSUBASA).

A series is cut into fixed-size basic windows of ``B`` timesteps. The
sketch stores, per series and basic window, the mean and (population)
standard deviation, and per *pair* of series the per-basic-window
covariance. Equation 1 of the paper reconstructs the exact Pearson
correlation of any aligned query window from these statistics alone —
verified against ``np.corrcoef`` and DuckDB in the tests.

Layers:

- ``kernels``     — pure numpy math shared by every engine;
- ``blocks``      — packing series into block bundles for all-pairs fan-out;
- ``pair_sketch`` — building from block bundles the tiles of the pair
                    sketch (per-bw covariances, means and stds) that every
                    query engine consumes.
"""
