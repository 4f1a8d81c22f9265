"""Force the block engine's lane pass in small test sweeps.

The lane-versus-kernel cost model (:func:`repro.sim.block_kernels.lane_cut`)
sends the narrow columns tests sweep to the per-cell kernel, so a test
meant to cover lanes must pin the cut, and should check that lanes ran.
"""

from repro.sim import block_kernels


def force_all_lanes(patcher):
    """Keep every planned lane on the lane pass while ``patcher`` (a
    ``pytest.MonkeyPatch``) is active.

    Returns a list that receives the lane count of every pass that ran
    (none without numpy), so ``sum(...) > 0`` proves lanes were covered.
    """
    run_lanes = block_kernels.run_lanes
    ran = []

    def counted(*args):
        results = run_lanes(*args)
        if results is not None:
            ran.append(len(results))
        return results

    patcher.setattr(block_kernels, "lane_cut",
                    lambda counts: block_kernels.ALL_LANES)
    patcher.setattr(block_kernels, "run_lanes", counted)
    return ran
