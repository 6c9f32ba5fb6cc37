"""
The SC stack machine: a deterministic single-stack pass over a permutation.

Entries of the input are pushed onto a stack front-first.  Before each push
the machine looks at the pending entry together with the current top two
stack entries, read top-down as the triple (pending, top, second).  While
that triple has the same relative order as the machine's length-3 pattern,
the top of the stack is popped to the output (a sigma-pop) and the test is
repeated against the shrunken stack.  Stacks of depth 0 or 1 never pop.
Once the input is exhausted the whole stack is drained to the output
top-first (drain-pops).

Every run is total and deterministic; the output is a rearrangement of the
input.  ``sc_trace`` records the full push/pop event log, from which the
"combination" (stack read bottom-to-top with the unread input appended) can
be reconstructed at any pop boundary.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, NamedTuple, Sequence

from .perm_core import Perm, as_pattern, as_perm, format_perm


class EventKind(enum.Enum):
    PUSH = "PUSH"
    POP_SIGMA = "POP_SIGMA"
    POP_DRAIN = "POP_DRAIN"


class MachineEvent(NamedTuple):
    kind: EventKind
    value: int
    step: int


class MachineTrace(NamedTuple):
    sigma: Perm
    input: Perm
    output: Perm
    events: tuple[MachineEvent, ...]

    @property
    def cro(self) -> int:
        """Number of sigma-pops in this run."""
        return sum(1 for e in self.events if e.kind is EventKind.POP_SIGMA)


def _pop_rule(sigma: Perm) -> Callable[[int, int, int], bool]:
    """
    Build the pop test for a pattern: matches(pending, top, second) is true
    iff the triple, read top-down with the pending entry on top, has the
    same relative order as ``sigma``.
    """
    # The triple standardizes to sigma iff its entries, taken at the
    # positions holding ranks 1, 2, 3, increase.
    i1, i2, i3 = sigma.index(1), sigma.index(2), sigma.index(3)

    def matches(pending: int, top: int, second: int, _i1=i1, _i2=i2, _i3=i3) -> bool:
        v = (pending, top, second)
        return v[_i1] < v[_i2] < v[_i3]

    return matches


def _map_raw(rule: Callable[[int, int, int], bool], tau: Sequence[int]) -> Perm:
    """Unvalidated machine run; hot path for exhaustive enumeration."""
    stack: list[int] = []
    out: list[int] = []
    for x in tau:
        while len(stack) >= 2 and rule(x, stack[-1], stack[-2]):
            out.append(stack.pop())
        stack.append(x)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def sc_map(sigma: Perm | str, tau: Iterable[int]) -> Perm:
    """
    Run the machine for the given pattern on ``tau`` and return the output.

    >>> sc_map("213", (5, 2, 4, 1, 3))
    (2, 1, 3, 4, 5)
    """
    return _map_raw(_pop_rule(as_pattern(sigma)), as_perm(tau))


def sc_trace(sigma: Perm | str, tau: Iterable[int]) -> MachineTrace:
    """Run the machine and record every push and pop as an event log."""
    sigma = as_pattern(sigma)
    tau = as_perm(tau)
    rule = _pop_rule(sigma)
    stack: list[int] = []
    out: list[int] = []
    events: list[MachineEvent] = []
    step = 0
    for x in tau:
        while len(stack) >= 2 and rule(x, stack[-1], stack[-2]):
            v = stack.pop()
            out.append(v)
            step += 1
            events.append(MachineEvent(EventKind.POP_SIGMA, v, step))
        stack.append(x)
        step += 1
        events.append(MachineEvent(EventKind.PUSH, x, step))
    while stack:
        v = stack.pop()
        out.append(v)
        step += 1
        events.append(MachineEvent(EventKind.POP_DRAIN, v, step))
    return MachineTrace(sigma, tau, tuple(out), tuple(events))


def cro(sigma: Perm | str, tau: Iterable[int]) -> int:
    """
    Count the pops caused by the pattern test during one run (drain-pops
    after the input is exhausted are excluded).

    >>> cro("213", (5, 2, 4, 1, 3))
    2
    """
    return sc_trace(sigma, tau).cro


def combination_view(trace: MachineTrace, after_pops: int) -> tuple[int, ...]:
    """
    The combination at the instant just after ``after_pops`` pops: the stack
    read bottom-to-top, followed by the not-yet-pushed input in input order.
    """
    n = len(trace.output)
    if not 0 <= after_pops <= n:
        raise ValueError(f"after_pops must be in 0..{n}, got {after_pops}")
    stack: list[int] = []
    pops = pushes = 0
    for e in trace.events:
        if pops == after_pops:
            break
        if e.kind is EventKind.PUSH:
            stack.append(e.value)
            pushes += 1
        else:
            stack.pop()
            pops += 1
    return tuple(stack) + trace.input[pushes:]


def format_trace(trace: MachineTrace) -> str:
    """
    Serialize a trace: one ``PUSH v`` / ``POP_SIGMA v`` / ``POP_DRAIN v``
    line per event, then an ``OUTPUT <permutation>`` line and a ``CRO <k>``
    line.
    """
    lines = [f"{e.kind.value} {e.value}" for e in trace.events]
    lines.append(f"OUTPUT {format_perm(trace.output)}")
    lines.append(f"CRO {trace.cro}")
    return "\n".join(lines)
