"""TSUBASA baseline: exact sketch-based evaluation of every cell.

TSUBASA (Xu et al., SIGMOD '22) computes exact correlations for
*arbitrary* query windows by aggregating basic-window sketches (Eq. 1).
Applied to a sliding query it evaluates every (pair, window) cell at
Θ(n_s) aggregation cost per cell and shares nothing across windows —
the inefficiency the Dangoron paper targets. It runs on the exact same
cached block-pair sketch, tile runner, window sweep and evaluator as
Dangoron, with no jump rule, so the timing ratio between the two
engines isolates the pruning contribution.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.dangoron import StatsAccumulators, run_tiles
from repro.core.jumping import sweep
from repro.tsio.validation import SlidingSpec


def eval_tile_full(tile: dict, spec: SlidingSpec) -> pd.DataFrame:
    """Exact corr of every (pair, window) cell of one tile; thresholded.

    The window sweep Dangoron uses, with no jump rule: every pair is
    evaluated at every window by the same evaluator
    (``kernels.eval_at_window``) — the TSUBASA cost model: each query
    window is aggregated from its n_s basic-window sketches, nothing is
    shared across windows and nothing is pruned.
    """
    return sweep(tile, spec).frame()


def query(
    pair_sketch_df: DataFrame,
    spec: SlidingSpec,
    stats: StatsAccumulators | None = None,
) -> DataFrame:
    """Thresholded correlation-matrix sequence, TSUBASA-style (no pruning)."""
    return run_tiles(pair_sketch_df, lambda tile: sweep(tile, spec), stats)
