"""VD power-state machine (paper Fig. 2a).

States: active P-states (P0 high / P1 low frequency), powered idle
("short slack" — on, but doing nothing), S1 sleep, and S3 deep sleep.
Entering a sleep state only pays off when the available slack exceeds
both the wake latency and the energy breakeven; :func:`plan_slack`
makes that decision exactly the way the paper describes ("before moving
to S1 or S3, if the decoder finds it does not have enough sleep time to
offset the transition energy, it would not transition").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict

from ..config import PowerStateConfig


class PowerState(Enum):
    """Where the VD's time goes; mirrors the Fig. 2b/2c stack legend."""

    EXECUTION = "execution"
    SHORT_SLACK = "short_slack"
    TRANSITION = "transition"
    S1 = "s1"
    S3 = "s3"


@dataclass(frozen=True)
class SleepDecision:
    """How one slack interval is spent."""

    state: PowerState  # SHORT_SLACK, S1, or S3
    sleep_time: float  # seconds actually asleep
    idle_time: float  # seconds powered-on idle
    transition_time: float  # s of wake latency paid inside the slack
    transition_energy: float  # J per sleep/wake round trip

    @property
    def total_time(self) -> float:
        return self.sleep_time + self.idle_time + self.transition_time

    def average_power(self, config: PowerStateConfig) -> float:
        """Mean draw (W) over the whole slack window."""
        return (self.idle_time * config.p_idle_power
                + self.sleep_time * sleep_power(config, self.state)
                + self.transition_energy) / self.total_time


def sleep_power(config: PowerStateConfig, state: PowerState) -> float:
    """Draw (W) while asleep in ``state``; 0 for a state that is no sleep."""
    if state is PowerState.S1:
        return config.s1_power
    if state is PowerState.S3:
        return config.s3_power
    return 0.0


def plan_slack(slack: float, config: PowerStateConfig,
               transition_scale: float = 1.0,
               allow_s3: bool = True) -> SleepDecision:
    """Choose the deepest profitable sleep state for ``slack`` seconds.

    The wake latency is paid at the end of the slack window so the next
    frame starts on time; the remainder is spent asleep.  If even S1
    does not break even, the whole slack is powered-on idle.

    ``transition_scale`` inflates the transition energies (racing pays
    :attr:`PowerStateConfig.racing_transition_factor`); the breakeven
    test uses the scaled cost, so an expensive transition must still
    pay for itself.

    ``allow_s3=False`` caps the sleep depth at S1 — the adaptive
    governor's shallow-sleep ladder step, for slack windows whose
    deadline margin can no longer absorb the deep-sleep exit latency.
    """
    if slack < 0:
        raise ValueError(f"slack must be non-negative, got {slack}")
    s3_energy = config.s3_transition_energy * transition_scale
    s1_energy = config.s1_transition_energy * transition_scale
    s3_breakeven = max(s3_energy / (config.p_idle_power - config.s3_power),
                       config.s3_wake_latency)
    s1_breakeven = max(s1_energy / (config.p_idle_power - config.s1_power),
                       config.s1_wake_latency)
    if allow_s3 and slack >= s3_breakeven:
        wake = config.s3_wake_latency
        return SleepDecision(PowerState.S3, slack - wake, 0.0, wake,
                             s3_energy)
    if slack >= s1_breakeven:
        wake = config.s1_wake_latency
        return SleepDecision(PowerState.S1, slack - wake, 0.0, wake,
                             s1_energy)
    return SleepDecision(PowerState.SHORT_SLACK, 0.0, slack, 0.0, 0.0)


@dataclass
class PowerTracker:
    """Accumulates VD time and energy per power state over a run."""

    config: PowerStateConfig
    time_by_state: Dict[PowerState, float] = field(
        default_factory=lambda: {state: 0.0 for state in PowerState})
    energy_by_state: Dict[PowerState, float] = field(
        default_factory=lambda: {state: 0.0 for state in PowerState})
    transitions: int = 0

    def record_execution(self, duration: float, power: float) -> None:
        """Active decode: ``duration`` seconds at ``power`` watts."""
        self.time_by_state[PowerState.EXECUTION] += duration
        self.energy_by_state[PowerState.EXECUTION] += duration * power

    def record_slack(self, decision: SleepDecision) -> None:
        """Apply a :func:`plan_slack` decision to the accounting."""
        cfg = self.config
        if decision.sleep_time:
            self.time_by_state[decision.state] += decision.sleep_time
            self.energy_by_state[decision.state] += (
                decision.sleep_time * sleep_power(cfg, decision.state))
        if decision.idle_time:
            self.time_by_state[PowerState.SHORT_SLACK] += decision.idle_time
            self.energy_by_state[PowerState.SHORT_SLACK] += (
                decision.idle_time * cfg.p_idle_power)
        if decision.transition_time:
            self.time_by_state[PowerState.TRANSITION] += decision.transition_time
            self.energy_by_state[PowerState.TRANSITION] += (
                decision.transition_energy)
            self.transitions += 1

    @property
    def total_time(self) -> float:
        return sum(self.time_by_state.values())

    @property
    def total_energy(self) -> float:
        return sum(self.energy_by_state.values())

    def residency(self, state: PowerState) -> float:
        """Fraction of tracked time spent in ``state``."""
        total = self.total_time
        return self.time_by_state[state] / total if total else 0.0
