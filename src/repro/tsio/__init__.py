"""Time-series substrate: long-form frames, query specs, window math.

The whole reproduction works over two equivalent representations:

- a dense driver-side matrix ``X`` of shape (N, L) — numpy, used by the
  Arrow kernels inside Spark tasks;
- a long-form Spark DataFrame ``(series_id: long, t: long, value: double)``
  — the Catalyst-visible representation used by the streaming
  maintenance path and the DuckDB oracle. Long rows reach a grid
  through one reader, ``matrix.from_long_pdf``, which also checks the
  grid: long-form input to the pair sketch is collected and read into
  ``X``, and the store reads each batch.

``SlidingSpec`` captures the paper's query: range r=(start, end), window
size ``window`` (l), slide ``step`` (η), threshold ``beta`` (β) and the
basic-window size ``bw`` (B) of the sketch framework.
"""
from repro.tsio.validation import SlidingSpec
from repro.tsio.matrix import to_long_df, window_slices

__all__ = ["SlidingSpec", "to_long_df", "window_slices"]
