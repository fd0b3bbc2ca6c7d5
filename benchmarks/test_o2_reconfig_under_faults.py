"""O2 — the closed loop keeps reconfiguring under band faults (this repo).

Two RF bands go down for the middle third of the measured window.  Band
faults map through whatever table is live, so each applied decision
rebinds them to the band's *new* owner: the faulted run must stay fully
delivered, and its journal must still show applied decisions.
"""

from repro.experiments import o2_reconfiguration_under_faults


def test_o2_reconfig_under_faults(benchmark, runner, save_result):
    result = benchmark.pedantic(
        lambda: o2_reconfiguration_under_faults(runner),
        rounds=1, iterations=1,
    )
    save_result(result)
    clean, faulted = result.series["clean"], result.series["faulted"]
    assert clean["delivery_ratio"] == 1.0
    assert faulted["delivery_ratio"] == 1.0
    assert faulted["journal"]["applied"] >= 1
    assert result.paper["loop_still_applies_under_faults"]
    # The outage was real: traffic rerouted around the dead bands.
    assert faulted["fault_reroutes"] > 0 and clean["fault_reroutes"] == 0
