"""Dangoron — the paper's core contribution.

- ``bounds``     — Eq. 2 temporal upper bounds (exact-ci and worst-case
                   modes) and the sound triangle (horizontal) bound;
- ``jumping``    — the one window sweep over a block-pair tile, shared
                   with TSUBASA (no jump rule), and Dangoron's Eq.-2 jump
                   rules: evaluate → jump (binary search on the monotone
                   bound, or its worst-case closed form) → land →
                   re-evaluate, exactly as Fig. 2;
- ``dangoron``   — the Spark engine: ``run_tiles``, the one tile runner
                   (mapInPandas over the cached pair sketch, Spark
                   accumulators for pruning statistics), shared with
                   TSUBASA;
- ``horizontal`` — pivot-based horizontal pruning expressed as DataFrame
                   filters, with cogrouped exact evaluation of survivors
                   by the same Eq.-1 evaluator.
"""
