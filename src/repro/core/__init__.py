"""Dangoron — the paper's core contribution.

- ``bounds``     — Eq. 2 temporal upper bounds (exact-ci and worst-case
                   modes) and the sound triangle (horizontal) bound;
- ``jumping``    — the one window sweep over a block-pair tile, shared
                   with TSUBASA (no jump rule) and horizontal pruning
                   (triangle mask), and Dangoron's Eq.-2 jump rules:
                   evaluate → jump (a per-pair wake scan over the
                   monotone bound, or its worst-case closed form) → land
                   → re-evaluate, with Fig. 2's landings;
- ``dangoron``   — the Spark engine: ``run_tiles``, the one tile runner
                   (mapInPandas over the cached pair sketch, one Spark
                   accumulator of ``FrontierStats``), shared with
                   TSUBASA and horizontal pruning;
- ``horizontal`` — pivot-based horizontal pruning: the pivot stage, then
                   the window sweep masked by the triangle bound.
"""
