"""Basic-window sketch substrate (the framework of StatStream/TSUBASA).

A series is cut into fixed-size basic windows of ``B`` timesteps. The
sketch stores, per series and basic window, the mean and (population)
standard deviation, and per *pair* of series the per-basic-window
covariance. Equation 1 of the paper reconstructs the exact Pearson
correlation of any aligned query window from these statistics alone —
verified against ``np.corrcoef`` and DuckDB in the tests.

Layers:

- ``kernels``     — pure numpy math shared by every engine;
- ``pair_sketch`` — the one tile recipe ``matrix_tile`` (per-bw covariances,
                    means and stds), and the build from the dense matrix of
                    the tiles every query engine consumes, one per block pair;
- ``blocks``      — the matrix's raw row blocks as a DataFrame, for a
                    caller that times packing apart from the build.
"""
