"""Smoke-size self-test of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

Checks that the same seed gives the same inputs and another seed other
inputs; that the correctness gate catches one dropped edge or one
altered value in an exact engine's output and counts it as a failed
operation; and that one command prints every metric BENCHMARK.json
declares, with its unit, for a plain and a traced run. The runs use a
small input; Spark's fixed costs still make them take a few minutes.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np
import pandas as pd
import pytest

sys.path[:0] = [
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
]

from perfbench import gate, run  # noqa: E402
from perfbench.workloads import WORKLOADS, Probe, Workload  # noqa: E402
from repro import synth_data  # noqa: E402
from repro.tsio.validation import SlidingSpec  # noqa: E402


def _small_spec(beta: float) -> SlidingSpec:
    return SlidingSpec(start=0, end=1440, window=240, step=24, beta=beta, bw=24)


def _small_climate(seed: int, length: int) -> np.ndarray:
    return synth_data.uscrn_like(n_stations=4, n_hours=length, seed=seed)


SMOKE = Workload(
    name="smoke",
    matrix=lambda seed: _small_climate(seed, 1440),
    spec=_small_spec,
    betas=tuple(np.round(np.linspace(0.50, 0.60, 21), 6)),
    probe=Probe(
        matrix=_small_climate,
        spec=_small_spec,
        betas=tuple(np.round(np.linspace(0.80, 0.90, 21), 6)),
        stream_window_bw=10,
        stream_beta=0.5,
    ),
)


def _edges_from_ref(ref: np.ndarray, beta: float) -> pd.DataFrame:
    n = ref.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)[:, :, None]
    i, j, w = np.nonzero(upper & (ref >= beta))
    return pd.DataFrame({"i": i, "j": j, "w": w, "corr": ref[i, j, w]})


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _declared(section: str) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("wl", [*WORKLOADS.values(), SMOKE], ids=lambda w: w.name)
def test_inputs_follow_the_seed(wl):
    beta = wl.probe.betas[0]
    length = wl.probe.spec(beta).end
    np.testing.assert_array_equal(wl.matrix(3), wl.matrix(3))
    np.testing.assert_array_equal(wl.probe.matrix(3, length), wl.probe.matrix(3, length))
    assert not np.array_equal(wl.matrix(3), wl.matrix(4))
    assert not np.array_equal(wl.probe.matrix(3, length), wl.probe.matrix(4, length))


class TestGate:
    beta = 0.5

    @pytest.fixture(scope="class")
    def ref(self):
        return gate.reference(SMOKE.matrix(1), SMOKE.spec(self.beta))

    @pytest.fixture(scope="class")
    def edges(self, ref):
        e = _edges_from_ref(ref, self.beta)
        assert len(e) > 10
        return e

    def test_exact_output_passes(self, ref, edges):
        c = gate.check_edges(edges, ref, self.beta, exact=True)
        assert c.ok and c.recall == 1.0

    def test_dropped_edge_fails_an_exact_engine(self, ref, edges):
        c = gate.check_edges(edges.iloc[1:], ref, self.beta, exact=True)
        assert not c.ok and c.missing == 1

    def test_dropped_edge_lowers_dangoron_recall(self, ref, edges):
        c = gate.check_edges(edges.iloc[1:], ref, self.beta, exact=False)
        assert c.ok and c.recall == pytest.approx(1 - 1 / len(edges))

    def test_altered_value_fails(self, ref, edges):
        bad = edges.copy()
        bad.loc[3, "corr"] += 1e-6
        for exact in (True, False):
            c = gate.check_edges(bad, ref, self.beta, exact=exact)
            assert not c.ok and c.bad_values == 1

    def test_extra_or_duplicate_edge_fails(self, ref, edges):
        n = ref.shape[0]
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)[:, :, None]
        i, j, w = (int(a[0]) for a in np.nonzero(upper & (ref < self.beta - 0.1)))
        below = pd.DataFrame({"i": [i], "j": [j], "w": [w], "corr": [ref[i, j, w]]})
        extra = pd.concat([edges, below], ignore_index=True)
        dup = pd.concat([edges, edges.iloc[:1]], ignore_index=True)
        for frame in (extra, dup):
            assert not gate.check_edges(frame, ref, self.beta, exact=False).ok

    def test_wrong_result_counts_as_failed_operation(self, ref, edges):
        from perfbench.bench import Ledger

        ledger = Ledger()
        ledger.run("query", lambda: None)
        ledger.verdict("query", gate.check_edges(edges.iloc[1:], ref, self.beta, exact=True))
        assert (ledger.attempted, ledger.failed) == (1, 1)


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setitem(WORKLOADS, "smoke", SMOKE)


def test_plain_run_prints_every_metric_and_counts_a_dropped_edge(smoke, monkeypatch, capsys):
    from pyspark.sql import functions as F

    from perfbench import bench

    beta = SMOKE.betas[0]  # the first query of the loop is TSUBASA's
    first = _edges_from_ref(gate.reference(SMOKE.matrix(1), SMOKE.spec(beta)), beta).iloc[0]
    real, exact = bench.ENGINES["tsubasa"]

    def drop_one(df, spec):
        hit = (F.col("i") == int(first.i)) & (F.col("j") == int(first.j)) & (F.col("w") == int(first.w))
        return real(df, spec).where(~hit)

    monkeypatch.setitem(bench.ENGINES, "tsubasa", (drop_one, exact))
    assert run.main(["--workload", "smoke", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    res = _last_json(capsys.readouterr().out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _declared("end_to_end")
    assert res["failed"] == 1 and res["correct"] is False


def test_traced_run_prints_every_per_layer_metric(smoke, capsys):
    assert run.main(["--workload", "smoke", "--seed", "2", "--seconds", "0", "--trace", "1"]) == 0
    res = _last_json(capsys.readouterr().out)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _declared("per_layer")
    assert res["correct"] is True and res["failed"] == 0
    assert os.path.isfile(os.path.join(run.ROOT, ".bench_out", "trace-smoke-seed2.json"))
