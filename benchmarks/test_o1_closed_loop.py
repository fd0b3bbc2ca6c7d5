"""O1 — the closed loop beats the best static placement (this repo).

On a three-phase workload every unique phase's offline-profiled adaptive
placement runs the full traffic as a static competitor.  The closed loop
runs the same traffic while paying every drain, tuning and table-update
cycle it causes in-band — and must still come out strictly ahead of the
best of them, because no single placement fits all three phases.  The
table note carries the decision journal's digest, so the exact decision
sequence behind the headline number is committed with it.
"""

from repro.experiments import o1_closed_loop_vs_static


def test_o1_closed_loop(benchmark, runner, save_result):
    result = benchmark.pedantic(
        lambda: o1_closed_loop_vs_static(runner), rounds=1, iterations=1,
    )
    save_result(result)
    series = result.series
    best = series["best_static"]
    assert best["latency"] == min(series["static_latencies"].values())
    # Strictly below the strongest offline competitor, overhead included.
    assert series["closed_loop_latency"] < best["latency"]
    assert result.paper["closed_loop_beats_best_static"]
    journal = series["journal"]
    assert journal["applied"] >= 1
    assert journal["overhead_cycles"] > 0
    assert journal["journal_digest"][:16] in result.render()
