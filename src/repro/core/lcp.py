"""Life Cycle Policies (paper §II, Fig. 2 and Fig. 3).

An *attribute LCP* is a deterministic finite automaton over the accuracy
levels of one generalization scheme: a sequence of degradable attribute states
``d0 .. dn`` together with the delay spent in each state before the next
transition fires.  A *tuple LCP* is the product automaton of the attribute
LCPs of a table: each independent attribute transition moves the tuple as a
whole into a new tuple state ``t_k`` until every degradable attribute reached
its final state (Fig. 3).

The paper's simplifying assumptions are the default (transitions triggered by
time only, one LCP per attribute, applied uniformly to every tuple), but the
"future work" extensions are also supported and exercised by the ablation
benchmark: transitions may be triggered by named *events* instead of delays
and policies may be overridden per tuple (paranoid users defining their own
LCP).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .clock import format_duration, parse_duration
from .errors import PolicyError
from .generalization import GeneralizationScheme

#: Value used for transitions that never fire by time (event triggered only).
NEVER = float("inf")


@dataclass(frozen=True)
class Transition:
    """A single LCP transition between two consecutive attribute states.

    Exactly one of ``delay`` (seconds spent in the source state) or ``event``
    (name of the event that fires the transition) must be provided.
    """

    delay: Optional[float] = None
    event: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.delay is None) == (self.event is None):
            raise PolicyError("a transition needs exactly one of delay= or event=")
        if self.delay is not None and self.delay < 0:
            raise PolicyError("transition delay must be non-negative")

    @property
    def timed(self) -> bool:
        return self.delay is not None

    def describe(self) -> str:
        if self.timed:
            return format_duration(float(self.delay))
        return f"on event {self.event!r}"


def _as_transition(spec: Any) -> Transition:
    """Coerce a user friendly transition spec into a :class:`Transition`.

    Accepted specs: a :class:`Transition`, a number of seconds, a duration
    string (``"1 hour"``), or a mapping ``{"event": name}``.
    """
    if isinstance(spec, Transition):
        return spec
    if isinstance(spec, (int, float)):
        return Transition(delay=float(spec))
    if isinstance(spec, str):
        return Transition(delay=parse_duration(spec))
    if isinstance(spec, Mapping):
        if "event" in spec:
            return Transition(event=str(spec["event"]))
        if "delay" in spec:
            return Transition(delay=float(spec["delay"]))
    raise PolicyError(f"cannot interpret transition spec {spec!r}")


class AttributeLCP:
    """Timed (or event triggered) degradation automaton for one attribute.

    Parameters
    ----------
    scheme:
        The generalization scheme of the attribute's domain.
    states:
        Accuracy levels visited, strictly increasing.  Defaults to every level
        of the scheme from 0 to the suppressed root.
    transitions:
        One spec per consecutive state pair (see :func:`_as_transition`).
    name:
        Policy name used by the catalog; defaults to ``"<domain>_lcp"``.

    >>> from repro.core.domains import build_location_tree
    >>> gt = build_location_tree()
    >>> lcp = AttributeLCP(gt, transitions=["1 hour", "1 day", "1 month", "3 months"])
    >>> lcp.state_at(0)
    0
    >>> lcp.state_at(3600)
    1
    """

    def __init__(self, scheme: GeneralizationScheme,
                 states: Optional[Sequence[int]] = None,
                 transitions: Optional[Sequence[Any]] = None,
                 name: Optional[str] = None) -> None:
        self.scheme = scheme
        self.name = name or f"{scheme.name}_lcp"
        if states is None:
            states = list(range(scheme.num_levels))
        self.states: List[int] = [int(s) for s in states]
        self._validate_states()
        if transitions is None:
            raise PolicyError(
                f"policy {self.name!r}: transitions are required "
                f"({len(self.states) - 1} expected)"
            )
        specs = [
            _as_transition(spec) for spec in transitions
        ]
        if len(specs) != len(self.states) - 1:
            raise PolicyError(
                f"policy {self.name!r}: expected {len(self.states) - 1} transitions "
                f"for {len(self.states)} states, got {len(specs)}"
            )
        self.transitions: List[Transition] = specs

    # -- validation ---------------------------------------------------------

    def _validate_states(self) -> None:
        if len(self.states) < 2:
            raise PolicyError(
                f"policy {self.name!r}: an LCP needs at least two states "
                "(initial accuracy and one degraded state)"
            )
        previous = -1
        for state in self.states:
            if not 0 <= state < self.scheme.num_levels:
                raise PolicyError(
                    f"policy {self.name!r}: level {state} outside domain "
                    f"{self.scheme.name!r} (0..{self.scheme.max_level})"
                )
            if state <= previous:
                raise PolicyError(
                    f"policy {self.name!r}: states must be strictly increasing "
                    f"(degradation is irreversible), got {self.states!r}"
                )
            previous = state

    # -- introspection ------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def initial_level(self) -> int:
        return self.states[0]

    @property
    def final_level(self) -> int:
        return self.states[-1]

    @property
    def fully_suppresses(self) -> bool:
        """True when the final state is the scheme's suppressed root."""
        return self.final_level == self.scheme.max_level

    def state_level(self, state_index: int) -> int:
        """Accuracy level of state ``d<state_index>``."""
        try:
            return self.states[state_index]
        except IndexError:
            raise PolicyError(
                f"policy {self.name!r}: no state d{state_index}"
            ) from None

    def level_to_state(self, level: int) -> int:
        """State index whose accuracy level is ``level``."""
        try:
            return self.states.index(level)
        except ValueError:
            raise PolicyError(
                f"policy {self.name!r}: level {level} is not one of its states"
            ) from None

    def state_names(self) -> List[str]:
        return [self.scheme.level_name(level) for level in self.states]

    @property
    def timed_only(self) -> bool:
        return all(t.timed for t in self.transitions)

    @property
    def shortest_delay(self) -> float:
        """Shortest timed delay — the paper's attack-window bound."""
        delays = [t.delay for t in self.transitions if t.timed]
        return min(delays) if delays else NEVER

    @property
    def total_lifetime(self) -> float:
        """Time from insertion until the final state (infinite if any event)."""
        total = 0.0
        for transition in self.transitions:
            if not transition.timed:
                return NEVER
            total += float(transition.delay)
        return total

    # -- temporal evaluation -------------------------------------------------

    def entry_times(self, events: Optional[Mapping[str, float]] = None) -> List[float]:
        """Absolute offsets (since insertion) at which each state is entered.

        ``events`` maps event names to the offset at which they fired; an event
        transition whose event never fired blocks the rest of the chain.
        """
        times = [0.0]
        current = 0.0
        for transition in self.transitions:
            if transition.timed:
                if current == NEVER:
                    times.append(NEVER)
                    continue
                current += float(transition.delay)
            else:
                fired = None if events is None else events.get(transition.event)
                if fired is None:
                    current = NEVER
                else:
                    current = max(current, float(fired))
            times.append(current)
        return times

    def state_at(self, elapsed: float,
                 events: Optional[Mapping[str, float]] = None) -> int:
        """State index reached ``elapsed`` seconds after insertion."""
        if elapsed < 0:
            raise PolicyError("elapsed time cannot be negative")
        entry = self.entry_times(events)
        state = 0
        for index, when in enumerate(entry):
            if when <= elapsed:
                state = index
        return state

    def level_at(self, elapsed: float,
                 events: Optional[Mapping[str, float]] = None) -> int:
        """Accuracy level reached ``elapsed`` seconds after insertion."""
        return self.states[self.state_at(elapsed, events)]

    def next_transition(self, elapsed: float,
                        events: Optional[Mapping[str, float]] = None
                        ) -> Optional[Tuple[float, int]]:
        """``(offset, next_state_index)`` of the next *timed* transition, or
        ``None`` when the attribute reached its final state (or waits on an
        event)."""
        entry = self.entry_times(events)
        for index, when in enumerate(entry):
            if when > elapsed and when != NEVER:
                return when, index
        return None

    def degrade(self, value: Any, from_state: int, to_state: int) -> Any:
        """Degrade ``value`` from state ``d<from_state>`` to ``d<to_state>``."""
        if to_state < from_state:
            raise PolicyError(
                f"policy {self.name!r}: cannot degrade backwards "
                f"(d{from_state} -> d{to_state})"
            )
        return self.scheme.generalize(
            value, self.state_level(to_state), from_level=self.state_level(from_state)
        )

    def describe(self) -> str:
        parts = []
        for index, level in enumerate(self.states):
            parts.append(f"d{index}={self.scheme.level_name(level)}")
            if index < len(self.transitions):
                parts.append(f"--{self.transitions[index].describe()}-->")
        return f"{self.name}: " + " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<AttributeLCP {self.describe()}>"


#: A tuple state is the vector of per-attribute state indices, keyed by
#: attribute name, frozen into a sorted tuple for hashing.
TupleState = Tuple[Tuple[str, int], ...]


def freeze_state(state: Mapping[str, int]) -> TupleState:
    return tuple(sorted(state.items()))


def thaw_state(state: TupleState) -> Dict[str, int]:
    return dict(state)


class TupleLCP:
    """Product automaton of the attribute LCPs of a table (Fig. 3).

    The tuple state at time ``t`` is the vector of the states of each
    degradable attribute.  Because transitions are deterministic offsets, the
    states actually *visited* form a chain ordered by time; the full reachable
    lattice (any interleaving of attribute transitions) is also exposed for
    analysis, matching Fig. 3's combinational view.
    """

    def __init__(self, attribute_lcps: Mapping[str, AttributeLCP]) -> None:
        if not attribute_lcps:
            raise PolicyError("a tuple LCP needs at least one degradable attribute")
        self.attributes: Dict[str, AttributeLCP] = dict(attribute_lcps)

    # -- states --------------------------------------------------------------

    @property
    def initial_state(self) -> TupleState:
        return freeze_state({name: 0 for name in self.attributes})

    @property
    def final_state(self) -> TupleState:
        return freeze_state({
            name: lcp.num_states - 1 for name, lcp in self.attributes.items()
        })

    def is_final(self, state: Mapping[str, int]) -> bool:
        return freeze_state(state) == self.final_state

    def state_at(self, elapsed: float,
                 events: Optional[Mapping[str, float]] = None) -> Dict[str, int]:
        """Per-attribute state indices reached ``elapsed`` seconds after insert."""
        return {
            name: lcp.state_at(elapsed, events) for name, lcp in self.attributes.items()
        }

    def levels_at(self, elapsed: float,
                  events: Optional[Mapping[str, float]] = None) -> Dict[str, int]:
        """Per-attribute accuracy levels reached after ``elapsed`` seconds."""
        return {
            name: lcp.level_at(elapsed, events) for name, lcp in self.attributes.items()
        }

    # -- the visited chain ----------------------------------------------------

    def transition_schedule(self, events: Optional[Mapping[str, float]] = None
                            ) -> List[Tuple[float, TupleState]]:
        """Chronological list of ``(offset, tuple_state_entered)``.

        The first entry is ``(0.0, initial_state)``; later entries are produced
        every time some attribute transitions (the paper: "at each independent
        attribute transition, the tuple as a whole reaches a new tuple state").
        Simultaneous attribute transitions collapse into a single tuple state.
        """
        moments = {0.0}
        for lcp in self.attributes.values():
            for when in lcp.entry_times(events):
                if when != NEVER:
                    moments.add(when)
        schedule = []
        for when in sorted(moments):
            schedule.append((when, freeze_state(self.state_at(when, events))))
        # Collapse duplicates that can appear when a state is entered at 0.
        deduplicated: List[Tuple[float, TupleState]] = []
        for when, state in schedule:
            if deduplicated and deduplicated[-1][1] == state:
                continue
            deduplicated.append((when, state))
        return deduplicated

    def visited_states(self, events: Optional[Mapping[str, float]] = None) -> List[TupleState]:
        """Tuple states actually traversed, in order (the ``t_k`` of the paper)."""
        return [state for _when, state in self.transition_schedule(events)]

    def num_visited_states(self, events: Optional[Mapping[str, float]] = None) -> int:
        return len(self.visited_states(events))

    @property
    def total_lifetime(self) -> float:
        """Offset at which the tuple reaches its final state (max over attributes)."""
        lifetimes = [lcp.total_lifetime for lcp in self.attributes.values()]
        return max(lifetimes)

    @property
    def shortest_delay(self) -> float:
        """Shortest degradation step across all attributes (attack window bound)."""
        return min(lcp.shortest_delay for lcp in self.attributes.values())

    @property
    def fully_suppresses(self) -> bool:
        """True when every attribute's life cycle ends in full suppression."""
        return all(lcp.fully_suppresses for lcp in self.attributes.values())

    # -- the full lattice ------------------------------------------------------

    def reachable_states(self) -> List[TupleState]:
        """Every combination of per-attribute states (Fig. 3's lattice).

        This is the cross product of the attribute state sets; the visited
        chain is a path through this lattice.
        """
        names = list(self.attributes)
        ranges = [range(self.attributes[name].num_states) for name in names]
        states = []
        for combo in itertools.product(*ranges):
            states.append(freeze_state(dict(zip(names, combo))))
        return states

    def successors(self, state: Mapping[str, int]) -> List[TupleState]:
        """Lattice successors of ``state`` (one attribute advanced by one step)."""
        current = dict(state)
        result = []
        for name, lcp in self.attributes.items():
            if current[name] + 1 < lcp.num_states:
                advanced = dict(current)
                advanced[name] += 1
                result.append(freeze_state(advanced))
        return result

    def describe(self) -> str:
        lines = [f"tuple LCP over {len(self.attributes)} degradable attribute(s):"]
        for name, lcp in self.attributes.items():
            lines.append(f"  {name}: {lcp.describe()}")
        lines.append(
            f"  visited tuple states: {self.num_visited_states()}"
            f" / reachable lattice: {len(self.reachable_states())}"
        )
        return "\n".join(lines)


__all__ = ["Transition", "AttributeLCP", "TupleLCP", "TupleState",
           "freeze_state", "thaw_state", "NEVER"]
