"""Dangoron — the paper's core contribution.

- ``bounds``     — Eq. 2's per-basic-window correlations c_i and slack
                   prefix G, and the sound triangle (horizontal) bound;
- ``jumping``    — the one window sweep over a block-pair tile, shared
                   with TSUBASA (no mode) and horizontal pruning
                   (triangle mask), and Dangoron's one Eq.-2 jump rule:
                   evaluate → jump (a per-pair wake scan over G, from
                   the true c_i in exact-ci mode or every c_i at −1 in
                   worst-case) → land → re-evaluate, with Fig. 2's
                   landings;
- ``dangoron``   — the Spark engine: ``run_tiles``, the one tile runner
                   (mapInPandas over the cached pair sketch, one Spark
                   accumulator of ``FrontierStats``), shared with
                   TSUBASA and horizontal pruning;
- ``horizontal`` — pivot-based horizontal pruning: the pivot stage, then
                   the window sweep masked by the triangle bound.
"""
