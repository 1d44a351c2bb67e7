"""What a pass of any workload reports back."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Outcome:
    """One job: its time and, if it failed, why."""

    name: str
    seconds: float
    error: str | None = None
    wrong: bool = False                    # the output itself was wrong
    ladder: str | None = None
    rung: int | None = None
    family: str | None = None              # amenability family of the estimate
    estimate: float | None = None


@dataclass
class PassResult:
    wall: float                            # sum of the job times
    outcomes: list[Outcome]
    extras: dict[str, float] = field(default_factory=dict)


def checked(check, output) -> str | None:
    """Run an output check; an output the check cannot even read is wrong."""
    try:
        return check(output)
    except Exception as exc:  # e.g. a missing key: the output has the wrong shape
        return f"unreadable output ({type(exc).__name__}: {exc})"
