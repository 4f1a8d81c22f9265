"""Every trace consumer works without numpy.

``pyproject.toml`` declares no dependencies, so recording a trace and
everything that reads one — the schedule validator, the counter
re-derivation, the residency table, the executed-cycles reduction and the
timeline's own reductions — must run with numpy unimportable.  The check
runs in a fresh interpreter with ``sys.modules["numpy"] = None``, once on
an event-engine run and once on a cell-kernel run.
"""

import os
import subprocess
import sys
from pathlib import Path

_SNIPPET = """
import sys
sys.modules["numpy"] = None

from repro.core import make_policy
from repro.hw.energy import EnergyModel
from repro.hw.machine import machine0
from repro.model.generator import TaskSetGenerator
from repro.obs.metrics import residency_from_trace
from repro.sim.batch_kernels import kernel_simulate
from repro.sim.bound import trace_executed_cycles
from repro.sim.engine import simulate
from repro.sim.validation import rederive_counters, validate_schedule

taskset = TaskSetGenerator(n_tasks=6, utilization=0.7, seed=5).generate()
model = EnergyModel(idle_level=0.2)
for run in (simulate, kernel_simulate):
    result = run(taskset, machine0(), make_policy("ccEDF"), demand=0.8,
                 duration=200.0, energy_model=model, record_trace=True)
    trace = result.trace
    assert validate_schedule(result, model) == []
    counters = rederive_counters(result)
    assert counters["deadline_misses"] == len(result.misses) == 0
    residency = residency_from_trace(trace)
    assert abs(sum(residency.values()) - 200.0) <= 1e-9 * 200.0
    cycles = trace_executed_cycles(trace)
    assert abs(cycles - result.executed_cycles) <= 1e-9 * cycles
    busy, idle = trace.busy_time(), trace.idle_time()
    assert abs(busy + idle - 200.0) <= 1e-9 * 200.0
    assert sum(trace.frequency_residency().values()) > 0.0
    print(run.__name__, len(trace), counters["frequency_transitions"])
print("numpy" in sys.modules and sys.modules["numpy"] is not None)
"""


def test_trace_consumers_run_with_numpy_blocked():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _SNIPPET],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    assert lines[0].startswith("simulate ")
    assert lines[1].startswith("kernel_simulate ")
    assert lines[0].split()[1:] == lines[1].split()[1:]
    assert lines[2] == "False"
