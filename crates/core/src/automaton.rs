//! The deterministic finite automaton `A = ⟨Ω, S, s₁, δ, F⟩` of a strategy.
//!
//! The automaton owns the states, the start state, the set of final states,
//! and the transition table implementing `δ : S × ℤ → S`: for every
//! non-final state, its [`Thresholds`] induce `n + 1` disjoint ranges and
//! each range is mapped to a successor state. The monitoring data `Ω` is not
//! stored here — it lives in the metric providers and is consulted by the
//! engine when executing checks.

use crate::error::ModelError;
use crate::ids::StateId;
use crate::outcome::StateOutcome;
use crate::state::State;
use crate::thresholds::Thresholds;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// One resolved transition: from a state, for outcome values falling into
/// `range_index` of the state's thresholds, move to `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The origin state.
    pub from: StateId,
    /// The index of the threshold range (0 = lowest outcomes).
    pub range_index: usize,
    /// The successor state.
    pub target: StateId,
}

/// The transition table of one state: a successor per threshold range.
///
/// Range indices follow [`Thresholds::classify`]: index 0 covers the lowest
/// outcome values. A target may be the state itself, which models
/// "stay in the current state and re-execute it with all timers reset".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionTable {
    targets: Vec<StateId>,
}

impl TransitionTable {
    /// Creates a table from one target per threshold range.
    pub fn new(targets: Vec<StateId>) -> Self {
        Self { targets }
    }

    /// The successor for a given range index, if it exists.
    pub fn target(&self, range_index: usize) -> Option<StateId> {
        self.targets.get(range_index).copied()
    }

    /// All targets in range order.
    pub fn targets(&self) -> &[StateId] {
        &self.targets
    }

    /// Number of ranges covered.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// The release automaton.
#[derive(Debug, Clone, PartialEq)]
pub struct Automaton {
    states: BTreeMap<StateId, State>,
    start: StateId,
    finals: BTreeSet<StateId>,
    transitions: BTreeMap<StateId, TransitionTable>,
}

impl Automaton {
    /// Starts building an automaton. See [`AutomatonBuilder`].
    pub fn builder() -> AutomatonBuilder {
        AutomatonBuilder::new()
    }

    /// The start state `s₁`.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The set of final states `F`.
    pub fn finals(&self) -> &BTreeSet<StateId> {
        &self.finals
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals.contains(&state)
    }

    /// All states keyed by id.
    pub fn states(&self) -> &BTreeMap<StateId, State> {
        &self.states
    }

    /// Looks up a state.
    pub fn state(&self, id: StateId) -> Option<&State> {
        self.states.get(&id)
    }

    /// Looks up a state by name.
    pub fn state_by_name(&self, name: &str) -> Option<&State> {
        self.states.values().find(|s| s.name() == name)
    }

    /// The transition table of a state, if the state has outgoing
    /// outcome-based transitions.
    pub fn transitions_of(&self, state: StateId) -> Option<&TransitionTable> {
        self.transitions.get(&state)
    }

    /// All transitions of the automaton, flattened.
    pub fn transitions(&self) -> Vec<Transition> {
        self.transitions
            .iter()
            .flat_map(|(from, table)| {
                table
                    .targets()
                    .iter()
                    .enumerate()
                    .map(|(range_index, target)| Transition {
                        from: *from,
                        range_index,
                        target: *target,
                    })
            })
            .collect()
    }

    /// Applies the transition function `δ` to a completed state outcome.
    ///
    /// If an exception check tripped, the fallback state wins regardless of
    /// the aggregated value. Otherwise the outcome value is classified by the
    /// state's thresholds and the corresponding successor returned. Returns
    /// `None` for final states.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownState`] if the outcome references a state
    /// not part of the automaton, and [`ModelError::InvalidAutomaton`] if a
    /// non-final state lacks thresholds or a transition entry (which
    /// [`AutomatonBuilder::build`] prevents).
    pub fn next_state(&self, outcome: &StateOutcome) -> Result<Option<StateId>, ModelError> {
        let state = self
            .states
            .get(&outcome.state)
            .ok_or(ModelError::UnknownState(outcome.state))?;
        if let Some(fallback) = outcome.exception_fallback {
            if !self.states.contains_key(&fallback) {
                return Err(ModelError::UnknownState(fallback));
            }
            return Ok(Some(fallback));
        }
        if self.is_final(state.id()) {
            return Ok(None);
        }
        let thresholds = state.thresholds().ok_or_else(|| {
            ModelError::InvalidAutomaton(format!(
                "non-final state '{}' has no thresholds",
                state.name()
            ))
        })?;
        let table = self.transitions.get(&state.id()).ok_or_else(|| {
            ModelError::InvalidAutomaton(format!(
                "non-final state '{}' has no transition table",
                state.name()
            ))
        })?;
        let range = thresholds.classify(outcome.value);
        table.target(range).map(Some).ok_or_else(|| {
            ModelError::InvalidAutomaton(format!(
                "state '{}' has no transition for range {range}",
                state.name()
            ))
        })
    }

    /// The states reachable from the start state (including the start state).
    pub fn reachable_states(&self) -> BTreeSet<StateId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([self.start]);
        while let Some(id) = queue.pop_front() {
            if !seen.insert(id) {
                continue;
            }
            if let Some(table) = self.transitions.get(&id) {
                for target in table.targets() {
                    if !seen.contains(target) {
                        queue.push_back(*target);
                    }
                }
            }
            if let Some(state) = self.states.get(&id) {
                for check in state.checks() {
                    if let Some(fallback) = check.fallback() {
                        if !seen.contains(&fallback) {
                            queue.push_back(fallback);
                        }
                    }
                }
            }
        }
        seen
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// A Graphviz `dot` rendering of the automaton, useful for the dashboard
    /// and for documentation.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph strategy {\n  rankdir=LR;\n");
        for state in self.states.values() {
            let shape = if self.is_final(state.id()) {
                "doublecircle"
            } else {
                "circle"
            };
            out.push_str(&format!(
                "  \"{}\" [label=\"{}\", shape={}];\n",
                state.id(),
                state.name(),
                shape
            ));
        }
        for t in self.transitions() {
            let state = &self.states[&t.from];
            let label = state
                .thresholds()
                .map(|th| {
                    let (lower, upper) = th.range_bounds(t.range_index);
                    match (lower, upper) {
                        (None, Some(u)) => format!("<= {u}"),
                        (Some(l), Some(u)) => format!("{l} < e <= {u}"),
                        (Some(l), None) => format!("> {l}"),
                        (None, None) => String::from("*"),
                    }
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
                t.from, t.target, label
            ));
        }
        for state in self.states.values() {
            for check in state.checks() {
                if let Some(fallback) = check.fallback() {
                    out.push_str(&format!(
                        "  \"{}\" -> \"{}\" [style=dashed, label=\"exception\"];\n",
                        state.id(),
                        fallback
                    ));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for Automaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "automaton with {} states, start {}, {} final",
            self.states.len(),
            self.start,
            self.finals.len()
        )
    }
}

/// Builder for [`Automaton`], validating the structural invariants of the
/// formal model.
#[derive(Debug, Default)]
pub struct AutomatonBuilder {
    states: BTreeMap<StateId, State>,
    start: Option<StateId>,
    finals: BTreeSet<StateId>,
    transitions: BTreeMap<StateId, TransitionTable>,
}

impl AutomatonBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state.
    pub fn state(mut self, state: State) -> Self {
        self.states.insert(state.id(), state);
        self
    }

    /// Marks the start state `s₁`.
    pub fn start(mut self, id: StateId) -> Self {
        self.start = Some(id);
        self
    }

    /// Marks a state as final (`∈ F`).
    pub fn final_state(mut self, id: StateId) -> Self {
        self.finals.insert(id);
        self
    }

    /// Sets the transition table of a state (one target per threshold range).
    pub fn transition(mut self, from: StateId, targets: Vec<StateId>) -> Self {
        self.transitions.insert(from, TransitionTable::new(targets));
        self
    }

    /// Finalises and validates the automaton.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidAutomaton`] if:
    ///
    /// * no start state is set or the start state is unknown,
    /// * a final state id is unknown,
    /// * a non-final state has no thresholds or its transition table does not
    ///   cover exactly `thresholds.range_count()` ranges,
    /// * a transition or exception fallback targets an unknown state,
    /// * a state is unreachable from the start state, or
    /// * there is no final state at all.
    pub fn build(self) -> Result<Automaton, ModelError> {
        let start = self
            .start
            .ok_or_else(|| ModelError::InvalidAutomaton("no start state set".into()))?;
        if !self.states.contains_key(&start) {
            return Err(ModelError::InvalidAutomaton(format!(
                "start state {start} is not part of the state set"
            )));
        }
        if self.finals.is_empty() {
            return Err(ModelError::InvalidAutomaton(
                "automaton has no final state".into(),
            ));
        }
        for final_state in &self.finals {
            if !self.states.contains_key(final_state) {
                return Err(ModelError::InvalidAutomaton(format!(
                    "final state {final_state} is not part of the state set"
                )));
            }
        }
        for state in self.states.values() {
            let is_final = self.finals.contains(&state.id());
            match (
                is_final,
                state.thresholds(),
                self.transitions.get(&state.id()),
            ) {
                (true, _, _) => {}
                (false, None, _) => {
                    return Err(ModelError::InvalidAutomaton(format!(
                        "non-final state '{}' has no thresholds",
                        state.name()
                    )))
                }
                (false, Some(_), None) => {
                    return Err(ModelError::InvalidAutomaton(format!(
                        "non-final state '{}' has no transitions",
                        state.name()
                    )))
                }
                (false, Some(thresholds), Some(table)) => {
                    if table.len() != thresholds.range_count() {
                        return Err(ModelError::InvalidAutomaton(format!(
                            "state '{}' has {} threshold ranges but {} transition targets",
                            state.name(),
                            thresholds.range_count(),
                            table.len()
                        )));
                    }
                }
            }
            for check in state.checks() {
                if let Some(fallback) = check.fallback() {
                    if !self.states.contains_key(&fallback) {
                        return Err(ModelError::InvalidAutomaton(format!(
                            "exception check '{}' of state '{}' falls back to unknown state {fallback}",
                            check.name(),
                            state.name()
                        )));
                    }
                }
            }
        }
        for (from, table) in &self.transitions {
            if !self.states.contains_key(from) {
                return Err(ModelError::InvalidAutomaton(format!(
                    "transition table for unknown state {from}"
                )));
            }
            for target in table.targets() {
                if !self.states.contains_key(target) {
                    return Err(ModelError::InvalidAutomaton(format!(
                        "transition from {from} targets unknown state {target}"
                    )));
                }
            }
        }
        let automaton = Automaton {
            states: self.states,
            start,
            finals: self.finals,
            transitions: self.transitions,
        };
        let reachable = automaton.reachable_states();
        if let Some(unreachable) = automaton.states.keys().find(|id| !reachable.contains(id)) {
            return Err(ModelError::InvalidAutomaton(format!(
                "state '{}' ({unreachable}) is unreachable from the start state",
                automaton.states[unreachable].name()
            )));
        }
        Ok(automaton)
    }
}

/// Returns a threshold tuple sized for a table of `targets` transitions, i.e.
/// `targets - 1` consecutive integer thresholds starting at `first`. Helper
/// for tests and simple strategies.
pub fn consecutive_thresholds(first: i64, targets: usize) -> Result<Thresholds, ModelError> {
    Thresholds::new(
        (0..targets.saturating_sub(1))
            .map(|i| first + i as i64)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{Check, CheckSpec, MetricQuery, Validator};
    use crate::ids::CheckId;
    use crate::outcome::{CheckOutcome, OutcomeMapping, Weight};
    use crate::timer::Timer;
    use std::time::Duration;

    fn basic_check(id: u64) -> Check {
        Check::basic(
            CheckId::new(id),
            format!("check-{id}"),
            CheckSpec::single(
                MetricQuery::new("prometheus", "errors", "request_errors"),
                Validator::LessThan(5.0),
            ),
            Timer::from_secs(5, 12).unwrap(),
            OutcomeMapping::binary(12, 0, 5).unwrap(),
        )
    }

    fn state(id: u64, name: &str, thresholds: Option<Vec<i64>>) -> State {
        let mut builder = State::builder(StateId::new(id), name).check(basic_check(id * 10));
        if let Some(t) = thresholds {
            builder = builder.thresholds(Thresholds::new(t).unwrap());
        }
        builder.build().unwrap()
    }

    /// Builds the paper's running-example automaton (Figure 2): states a–g.
    fn running_example() -> Automaton {
        let a = state(0, "a", Some(vec![3]));
        let b = state(1, "b", Some(vec![3, 4]));
        let c = state(2, "c", Some(vec![3]));
        let d = state(3, "d", Some(vec![3]));
        let e = state(4, "e", Some(vec![14]));
        let f = state(5, "f", None);
        let g = state(6, "g", None);
        let (sa, sb, sc, sd, se, sf, sg) = (
            StateId::new(0),
            StateId::new(1),
            StateId::new(2),
            StateId::new(3),
            StateId::new(4),
            StateId::new(5),
            StateId::new(6),
        );
        Automaton::builder()
            .state(a)
            .state(b)
            .state(c)
            .state(d)
            .state(e)
            .state(f)
            .state(g)
            .start(sa)
            .final_state(sf)
            .final_state(sg)
            .transition(sa, vec![sg, sb]) // <=3 rollback, >3 continue
            .transition(sb, vec![sg, sc, sd]) // <=3, =4, >4
            .transition(sc, vec![sg, sd])
            .transition(sd, vec![sg, se])
            .transition(se, vec![sg, sf]) // <15 rollback, >=15 full rollout
            .build()
            .unwrap()
    }

    fn outcome(state: StateId, value: i64) -> StateOutcome {
        StateOutcome::combine(
            state,
            vec![CheckOutcome::basic(CheckId::new(0), value, 12, value)],
            &[Weight::one()],
            None,
        )
        .unwrap()
    }

    #[test]
    fn running_example_structure() {
        let automaton = running_example();
        assert_eq!(automaton.state_count(), 7);
        assert_eq!(automaton.start(), StateId::new(0));
        assert!(automaton.is_final(StateId::new(5)));
        assert!(automaton.is_final(StateId::new(6)));
        assert!(!automaton.is_final(StateId::new(0)));
        assert_eq!(automaton.reachable_states().len(), 7);
        assert_eq!(automaton.transitions().len(), 2 + 3 + 2 + 2 + 2);
        assert!(automaton.state_by_name("b").is_some());
        assert!(automaton.state_by_name("zzz").is_none());
        assert!(automaton.to_string().contains("7 states"));
    }

    #[test]
    fn transition_function_follows_thresholds() {
        let automaton = running_example();
        let (sa, sb, sc, sd, sg) = (
            StateId::new(0),
            StateId::new(1),
            StateId::new(2),
            StateId::new(3),
            StateId::new(6),
        );
        // State a: <=3 → rollback g, >3 → b
        assert_eq!(automaton.next_state(&outcome(sa, 3)).unwrap(), Some(sg));
        assert_eq!(automaton.next_state(&outcome(sa, 4)).unwrap(), Some(sb));
        // State b: <=3 → g, =4 → c, >4 → d
        assert_eq!(automaton.next_state(&outcome(sb, 2)).unwrap(), Some(sg));
        assert_eq!(automaton.next_state(&outcome(sb, 4)).unwrap(), Some(sc));
        assert_eq!(automaton.next_state(&outcome(sb, 5)).unwrap(), Some(sd));
        // Final states have no successor.
        assert_eq!(automaton.next_state(&outcome(sg, 0)).unwrap(), None);
        // State d continues to e on success.
        assert_eq!(
            automaton.next_state(&outcome(sd, 5)).unwrap(),
            Some(StateId::new(4))
        );
    }

    #[test]
    fn exception_fallback_overrides_thresholds() {
        let automaton = running_example();
        let sa = StateId::new(0);
        let sg = StateId::new(6);
        let tripped = StateOutcome::combine(
            sa,
            vec![CheckOutcome::exception_tripped(CheckId::new(0), 2, 12)],
            &[Weight::one()],
            Some(sg),
        )
        .unwrap();
        assert_eq!(automaton.next_state(&tripped).unwrap(), Some(sg));
    }

    #[test]
    fn next_state_rejects_unknown_states() {
        let automaton = running_example();
        assert!(matches!(
            automaton.next_state(&outcome(StateId::new(99), 1)),
            Err(ModelError::UnknownState(_))
        ));
    }

    #[test]
    fn build_rejects_missing_start() {
        let err = Automaton::builder()
            .state(state(0, "a", Some(vec![1])))
            .final_state(StateId::new(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidAutomaton(_)));
    }

    #[test]
    fn build_rejects_unknown_start() {
        let err = Automaton::builder()
            .state(state(0, "a", None))
            .start(StateId::new(5))
            .final_state(StateId::new(0))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("start state"));
    }

    #[test]
    fn build_rejects_no_final_state() {
        let err = Automaton::builder()
            .state(state(0, "a", Some(vec![1])))
            .start(StateId::new(0))
            .transition(StateId::new(0), vec![StateId::new(0), StateId::new(0)])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("no final state"));
    }

    #[test]
    fn build_rejects_mismatched_transition_arity() {
        // State with thresholds ⟨3⟩ (2 ranges) but 3 transition targets.
        let err = Automaton::builder()
            .state(state(0, "a", Some(vec![3])))
            .state(state(1, "f", None))
            .start(StateId::new(0))
            .final_state(StateId::new(1))
            .transition(
                StateId::new(0),
                vec![StateId::new(1), StateId::new(1), StateId::new(1)],
            )
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("transition targets"));
    }

    #[test]
    fn build_rejects_unreachable_state() {
        let err = Automaton::builder()
            .state(state(0, "a", Some(vec![3])))
            .state(state(1, "f", None))
            .state(state(2, "island", None))
            .start(StateId::new(0))
            .final_state(StateId::new(1))
            .final_state(StateId::new(2))
            .transition(StateId::new(0), vec![StateId::new(1), StateId::new(1)])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("unreachable"));
    }

    #[test]
    fn build_rejects_transition_to_unknown_state() {
        let err = Automaton::builder()
            .state(state(0, "a", Some(vec![3])))
            .state(state(1, "f", None))
            .start(StateId::new(0))
            .final_state(StateId::new(1))
            .transition(StateId::new(0), vec![StateId::new(1), StateId::new(9)])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("unknown state"));
    }

    #[test]
    fn build_rejects_exception_fallback_to_unknown_state() {
        let exception = Check::exception(
            CheckId::new(50),
            "spike",
            CheckSpec::single(
                MetricQuery::new("prometheus", "errors", "request_errors"),
                Validator::LessThan(100.0),
            ),
            Timer::from_secs(5, 12).unwrap(),
            StateId::new(99),
        );
        let bad_state = State::builder(StateId::new(0), "a")
            .check(exception)
            .thresholds(Thresholds::single(3))
            .build()
            .unwrap();
        let err = Automaton::builder()
            .state(bad_state)
            .state(state(1, "f", None))
            .start(StateId::new(0))
            .final_state(StateId::new(1))
            .transition(StateId::new(0), vec![StateId::new(1), StateId::new(1)])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("unknown state"));
    }

    #[test]
    fn self_loop_reexecutes_state() {
        // A state may transition to itself ("results are not definite").
        let s0 = StateId::new(0);
        let s1 = StateId::new(1);
        let automaton = Automaton::builder()
            .state(state(0, "a", Some(vec![3])))
            .state(
                State::builder(s1, "done")
                    .duration(Duration::from_secs(1))
                    .build()
                    .unwrap(),
            )
            .start(s0)
            .final_state(s1)
            .transition(s0, vec![s0, s1])
            .build()
            .unwrap();
        assert_eq!(automaton.next_state(&outcome(s0, 0)).unwrap(), Some(s0));
        assert_eq!(automaton.next_state(&outcome(s0, 10)).unwrap(), Some(s1));
    }

    #[test]
    fn dot_rendering_contains_states_and_edges() {
        let automaton = running_example();
        let dot = automaton.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn consecutive_thresholds_helper() {
        let t = consecutive_thresholds(3, 3).unwrap();
        assert_eq!(t.values(), &[3, 4]);
        assert!(consecutive_thresholds(0, 1).is_err());
    }
}
