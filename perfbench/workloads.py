"""Workload definitions: inputs generated from the seed, specs, β lists.

Every input is generated here, in the benchmark process, from the
``--seed`` argument; the program under test only ever receives the
generated matrix and the query specs. Block size and the climate specs
come from ``repro.experiments`` so that a change to the program's own
settings is measured without editing the benchmark.

Each β list is fixed per workload and no β is used twice in one session:
a repeated spec could be served from state an earlier query left behind
(``horizontal.query`` caches its pivot frame), which would read as a
flattering time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import experiments, synth_data
from repro.tomborg.generator import generate_named
from repro.tsio.validation import SlidingSpec

# Preloaded basic windows and streamed basic windows of the stream probe.
STREAM_PRELOAD_BW = experiments.T5_INIT_DAYS
STREAM_DAYS = 6
# One staged file per this many seconds: below the measured update cycle.
STREAM_INTERVAL_S = 1.5
# The stream's refresh query covers this many of the latest windows.
STREAM_LATEST_WINDOWS = 30


def _betas(lo: float, hi: float, n: int = 21) -> tuple[float, ...]:
    return tuple(round(float(b), 6) for b in np.linspace(lo, hi, n))


@dataclass(frozen=True)
class Probe:
    """A small input for the layers that only run at small N.

    ``core.horizontal`` (Catalyst self-join of N·W pivot rows) and the
    streaming store (N² pair rows per basic window in driver pandas)
    were OOM-killed or took tens of seconds per query beyond N=64, so
    their probes run on 64 series of the workload's own kind of data.
    """

    matrix: Callable[[int, int], np.ndarray]  # (seed, length) -> X
    spec: Callable[[float], SlidingSpec]
    betas: tuple[float, ...]
    stream_window_bw: int
    stream_beta: float


@dataclass(frozen=True)
class Workload:
    name: str
    matrix: Callable[[int], np.ndarray]       # seed -> X
    spec: Callable[[float], SlidingSpec]
    betas: tuple[float, ...]
    probe: Probe

    @property
    def block_size(self) -> int:
        return experiments.T1_BLOCK


def _climate(n_stations: int) -> Callable[[int, int], np.ndarray]:
    return lambda seed, length: synth_data.uscrn_like(
        n_stations=n_stations, n_hours=length, seed=seed
    )


def _tomborg(n: int) -> Callable[[int, int], np.ndarray]:
    return lambda seed, length: generate_named(
        "sparse-low", n, length, alpha=0.0, seed=seed
    )[0]


def _tomborg_spec(beta: float, length: int = 8192) -> SlidingSpec:
    return SlidingSpec(start=0, end=length, window=2048, step=32, beta=beta, bw=32)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="climate-dense",
            matrix=lambda seed: _climate(32)(seed, experiments.T1_HOURS),
            spec=experiments.T1_SPEC,
            betas=_betas(0.45, 0.55),
            probe=Probe(
                matrix=_climate(16),
                spec=experiments.T1_SPEC,
                betas=_betas(0.80, 0.90),
                stream_window_bw=experiments.T5_SPEC.window // experiments.T5_SPEC.bw,
                stream_beta=experiments.T5_SPEC.beta,
            ),
        ),
        Workload(
            name="tomborg-sparse",
            matrix=lambda seed: _tomborg(128)(seed, 8192),
            spec=_tomborg_spec,
            betas=_betas(0.40, 0.44),
            probe=Probe(
                matrix=_tomborg(64),
                spec=_tomborg_spec,
                betas=_betas(0.40, 0.44),
                stream_window_bw=64,
                stream_beta=0.3,
            ),
        ),
    )
}


def stream_spec(probe: Probe, bw: int, n_bw: int) -> SlidingSpec:
    """Spec over the latest windows of a store holding ``n_bw`` windows."""
    window = probe.stream_window_bw * bw
    end = n_bw * bw
    start = end - window - (STREAM_LATEST_WINDOWS - 1) * bw
    return SlidingSpec(
        start=start, end=end, window=window, step=bw,
        beta=probe.stream_beta, bw=bw,
    )
