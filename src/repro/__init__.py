"""repro — a reproduction of Pillai & Shin, "Real-Time Dynamic Voltage
Scaling for Low-Power Embedded Operating Systems" (SOSP 2001).

The package provides:

* the task model and schedulability tests (:mod:`repro.model`);
* DVS-capable machine and energy models (:mod:`repro.hw`);
* a discrete-event real-time scheduling simulator (:mod:`repro.sim`);
* the paper's RT-DVS algorithms (:mod:`repro.core`);
* a Linux-module-style prototype substrate (:mod:`repro.kernel`);
* a power-measurement emulation (:mod:`repro.measure`);
* sweep/aggregation tooling (:mod:`repro.analysis`) and per-figure
  experiment drivers (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import (Task, TaskSet, machine0, make_policy, simulate)
>>> ts = TaskSet([Task(3, 8), Task(3, 10), Task(1, 14)])
>>> result = simulate(ts, machine0(), make_policy("ccEDF"), demand=0.9,
...                   duration=1000.0)
>>> result.met_all_deadlines
True
"""

from repro.errors import (
    AdmissionError,
    DeadlineMissError,
    KernelError,
    MachineError,
    PowerNowError,
    ReproError,
    SchedulabilityError,
    SimulationError,
    TaskModelError,
)
from repro.model import (
    ConstantFractionDemand,
    DemandModel,
    Job,
    JobOutcome,
    Task,
    TaskSet,
    TaskSetGenerator,
    TraceDemand,
    UniformFractionDemand,
    WorstCaseDemand,
    demand_from_spec,
    edf_schedulable,
    rm_exact_schedulable,
    rm_liu_layland_schedulable,
)
from repro.model.task import example_taskset
from repro.model.demand import paper_example_trace
from repro.hw import (
    Battery,
    EnergyModel,
    Machine,
    OperatingPoint,
    SwitchingModel,
    k6_2_plus,
    machine0,
    machine1,
    machine2,
)
from repro.sim import (
    Admission,
    SimResult,
    Simulator,
    simulate,
    steady_state_energy,
    theoretical_bound,
    rederive_counters,
    validate_schedule,
)
from repro.core import (
    AveragingDVS,
    ClairvoyantEDF,
    CycleConservingEDF,
    CycleConservingRM,
    DVSPolicy,
    FixedSpeed,
    LookAheadEDF,
    NoDVS,
    PAPER_POLICIES,
    StaticEDF,
    StaticRM,
    StatisticalEDF,
    available_policies,
    make_policy,
)

__version__ = "1.21.0"

__all__ = [
    # errors
    "ReproError", "TaskModelError", "MachineError", "SchedulabilityError",
    "SimulationError", "DeadlineMissError", "KernelError", "AdmissionError",
    "PowerNowError",
    # model
    "Task", "TaskSet", "Job", "JobOutcome", "TaskSetGenerator",
    "DemandModel", "WorstCaseDemand", "ConstantFractionDemand",
    "UniformFractionDemand", "TraceDemand", "demand_from_spec",
    "edf_schedulable", "rm_exact_schedulable", "rm_liu_layland_schedulable",
    "example_taskset", "paper_example_trace",
    # hw
    "Machine", "OperatingPoint", "EnergyModel", "SwitchingModel",
    "Battery", "machine0", "machine1", "machine2", "k6_2_plus",
    # sim
    "Admission", "Simulator", "simulate", "SimResult", "theoretical_bound",
    "steady_state_energy", "validate_schedule", "rederive_counters",
    # core
    "DVSPolicy", "NoDVS", "StaticEDF", "StaticRM", "CycleConservingEDF",
    "CycleConservingRM", "LookAheadEDF", "AveragingDVS", "FixedSpeed",
    "ClairvoyantEDF", "StatisticalEDF", "PAPER_POLICIES",
    "available_policies", "make_policy",
    "__version__",
]
