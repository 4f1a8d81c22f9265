"""Exception hierarchy for the RT-DVS reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch a single base class.  The hierarchy mirrors the subsystems:
task-model validation, hardware-model validation, simulation failures, and
the kernel-emulation layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TaskModelError(ReproError):
    """Invalid task, task set, or demand-model specification."""


class MachineError(ReproError):
    """Invalid machine (frequency/voltage table) specification."""


class SchedulabilityError(ReproError):
    """A task set failed a schedulability test where one was required.

    Raised, for example, by the static voltage-scaling policies when no
    available operating frequency makes the task set schedulable.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class DeadlineMissError(SimulationError):
    """A job missed its deadline and the simulator was configured to raise.

    Attributes
    ----------
    task_name:
        Name of the task whose job missed its deadline.
    release_time:
        Release time of the offending job.
    deadline:
        Absolute deadline that was missed.
    time:
        Simulation time at which the miss was detected.
    """

    def __init__(self, task_name: str, release_time: float, deadline: float,
                 time: float):
        self.task_name = task_name
        self.release_time = release_time
        self.deadline = deadline
        self.time = time
        super().__init__(
            f"task {task_name!r} released at {release_time} missed its "
            f"deadline {deadline} (detected at t={time})")


class KernelError(ReproError):
    """Error in the kernel-emulation substrate (module layer, procfs...)."""


class AdmissionError(KernelError):
    """A task could not be admitted into the running system."""


class PowerNowError(KernelError):
    """Invalid use of the emulated PowerNow! frequency/voltage interface."""
