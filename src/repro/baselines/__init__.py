"""Baselines the paper measures against or positions itself within.

- ``tsubasa``    — the paper's chosen baseline (its §4): exact Eq.-1
                   evaluation of *every* (pair, window) cell from the
                   same basic-window sketch, no cross-window pruning
                   ("lacks efficiency for sliding queries"); it runs
                   Dangoron's tile runner, window sweep and evaluator
                   with no jump rule;
- ``naive``      — exact correlation from raw values per window, no
                   sketch reuse at all; its ``run_windows`` runs every
                   raw-data engine (naive, parcorr, statstream) as a
                   per-window ``cells`` function;
- ``parcorr``    — ParCorr-style random-projection estimates (the
                   accuracy comparator in §4);
- ``statstream`` — StatStream-style truncated-frequency estimates, the
                   data-dependent class the Tomborg benchmark stresses.
"""
