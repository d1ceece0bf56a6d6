//! Runtime validation of the SMS stack invariants (paper §IV–§VI).
//!
//! The correctness of the shared-memory stack design rests on a handful of
//! structural invariants that the paper states but the simulator otherwise
//! only spot-checks with `debug_assert!`s:
//!
//! * **Conservation** — every push/pop moves exactly one logical entry;
//!   the entry count summed across the RB, SH and global levels always
//!   equals the number of pushes minus pops, and the RB/SH levels never
//!   exceed their configured capacities.
//! * **LIFO order** — the value a pop returns is the most recently pushed
//!   live value, regardless of how many inter-level migrations happened
//!   in between (checked against a shadow stack, with a periodic full
//!   content audit).
//! * **Borrow-chain shape** (§VI-B) — a lane's reallocation chain holds at
//!   most `1 + borrow_limit` stacks, never links the same SH stack twice,
//!   and never shares a stack with another *active* lane.
//! * **Flush policy** (§VI-B) — a bottom-stack flush is only legal when
//!   borrowing is impossible: the chain is at the borrow limit or no idle
//!   stack exists. This makes flush runs *consecutive* in the paper's
//!   sense (a stack's `Flush` count resets on release; no run is bounded).
//! * **Idle consistency** — an idle SH stack is empty, has a reset flush
//!   counter, and is never linked into an active lane's chain.
//!
//! A [`StackValidator`] is attached to a [`crate::WarpStacks`] behind a
//! configuration flag ([`crate::RtUnitConfig::validate`]); it observes
//! every stack transition and *latches the first violation* as a
//! structured [`StackViolation`] instead of asserting, so a fleet harness
//! can record the failure, abort the one run, and keep the batch alive.
//! The validator never mutates simulation state: enabling it cannot change
//! a single counter of the run it watches.

use sms_gpu::WARP_SIZE;
use std::fmt;

/// Which invariant class a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Entry-count conservation across RB/SH/global broke.
    Conservation,
    /// A pop returned a value other than the logical top of stack.
    LifoOrder,
    /// A level exceeded its configured capacity.
    Capacity,
    /// Borrow-chain length, acyclicity or exclusivity broke.
    BorrowChain,
    /// A bottom-stack flush happened while borrowing was still possible.
    FlushPolicy,
    /// An idle stack was non-empty, un-reset, or linked into a live chain.
    IdleState,
}

impl ViolationKind {
    /// Stable snake_case name (used in journal events).
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::Conservation => "conservation",
            ViolationKind::LifoOrder => "lifo_order",
            ViolationKind::Capacity => "capacity",
            ViolationKind::BorrowChain => "borrow_chain",
            ViolationKind::FlushPolicy => "flush_policy",
            ViolationKind::IdleState => "idle_state",
        }
    }
}

/// One detected invariant violation, as a structured error (not a panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackViolation {
    /// The lane whose transition tripped the check.
    pub lane: usize,
    /// Invariant class.
    pub kind: ViolationKind,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl fmt::Display for StackViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stack invariant `{}` violated on lane {}: {}",
            self.kind.name(),
            self.lane,
            self.detail
        )
    }
}

/// How often the validator audits a lane's *full* logical contents against
/// the shadow stack (every transition would be O(depth) each; depth and
/// popped-value checks run on every transition regardless).
const FULL_AUDIT_PERIOD: u32 = 64;

/// Observes every [`crate::WarpStacks`] transition and latches the first
/// invariant violation. See the module docs for the invariant list.
#[derive(Debug, Clone)]
pub struct StackValidator {
    /// Per-lane shadow of the logical stack (ground truth for LIFO and
    /// conservation).
    shadow: Vec<Vec<u32>>,
    /// Lanes that finished (or were cleared). Their chains are frozen
    /// stale state — flush rotation means a retired lane's chain may still
    /// reference segments that were since idled and re-borrowed — so only
    /// active lanes participate in chain shape/exclusivity checks.
    retired: [bool; WARP_SIZE],
    /// Transition counter per lane, for the periodic full audit.
    transitions: [u32; WARP_SIZE],
    violation: Option<StackViolation>,
    /// Total transitions checked (observability).
    pub checks: u64,
}

impl Default for StackValidator {
    fn default() -> Self {
        StackValidator::new()
    }
}

impl StackValidator {
    /// A fresh validator for one warp's stacks.
    pub fn new() -> Self {
        StackValidator {
            shadow: vec![Vec::new(); WARP_SIZE],
            retired: [false; WARP_SIZE],
            transitions: [0; WARP_SIZE],
            violation: None,
            checks: 0,
        }
    }

    /// The first violation detected, if any.
    pub fn violation(&self) -> Option<&StackViolation> {
        self.violation.as_ref()
    }

    /// Removes and returns the latched violation.
    pub fn take_violation(&mut self) -> Option<StackViolation> {
        self.violation.take()
    }

    fn fail(&mut self, lane: usize, kind: ViolationKind, detail: String) {
        if self.violation.is_none() {
            self.violation = Some(StackViolation { lane, kind, detail });
        }
    }

    /// Called after a push of `value` on `lane` completed.
    pub(crate) fn after_push(&mut self, stacks: &crate::WarpStacks, lane: usize, value: u32) {
        if self.violation.is_some() {
            return;
        }
        self.shadow[lane].push(value);
        self.check_transition(stacks, lane);
    }

    /// Called after a pop on `lane` returned `value`.
    pub(crate) fn after_pop(&mut self, stacks: &crate::WarpStacks, lane: usize, value: u32) {
        if self.violation.is_some() {
            return;
        }
        match self.shadow[lane].pop() {
            Some(expected) if expected == value => {}
            Some(expected) => {
                self.fail(
                    lane,
                    ViolationKind::LifoOrder,
                    format!("pop returned {value}, logical top was {expected}"),
                );
                return;
            }
            None => {
                self.fail(
                    lane,
                    ViolationKind::Conservation,
                    format!("pop returned {value} from a logically empty stack"),
                );
                return;
            }
        }
        self.check_transition(stacks, lane);
    }

    /// Called when a lane's stack is discarded wholesale (`clear_lane`).
    pub(crate) fn on_clear(&mut self, stacks: &crate::WarpStacks, lane: usize) {
        self.shadow[lane].clear();
        self.retired[lane] = true;
        if self.violation.is_none() {
            self.check_transition(stacks, lane);
        }
    }

    /// Called when a lane finishes traversal (`mark_done`).
    pub(crate) fn on_mark_done(&mut self, stacks: &crate::WarpStacks, lane: usize) {
        if !self.shadow[lane].is_empty() {
            self.fail(
                lane,
                ViolationKind::Conservation,
                format!("marked done with {} logical entries left", self.shadow[lane].len()),
            );
            return;
        }
        self.retired[lane] = true;
        if self.violation.is_none() {
            self.check_transition(stacks, lane);
        }
    }

    /// Called by `make_room` just before it flushes `lane`'s bottom stack.
    /// `chain_len` and `idle_available` describe the pre-flush state.
    pub(crate) fn before_flush(
        &mut self,
        lane: usize,
        chain_len: usize,
        borrow_limit: usize,
        idle_available: bool,
    ) {
        if chain_len < 1 + borrow_limit && idle_available {
            self.fail(
                lane,
                ViolationKind::FlushPolicy,
                format!(
                    "flushed with chain {chain_len}/{} and an idle stack still available",
                    1 + borrow_limit
                ),
            );
        }
    }

    /// Depth, capacity, chain and idle checks after any transition.
    fn check_transition(&mut self, stacks: &crate::WarpStacks, lane: usize) {
        self.checks += 1;
        let depth = stacks.depth(lane);
        if depth != self.shadow[lane].len() {
            let detail = format!(
                "levels hold {depth} entries ({} RB + {} SH + {} global), log says {}",
                stacks.rb_len(lane),
                stacks.sh_count(lane),
                stacks.global_len(lane),
                self.shadow[lane].len()
            );
            self.fail(lane, ViolationKind::Conservation, detail);
            return;
        }
        self.check_capacity(stacks, lane);
        self.check_chains(stacks);
        self.transitions[lane] = self.transitions[lane].wrapping_add(1);
        if self.transitions[lane].is_multiple_of(FULL_AUDIT_PERIOD)
            && stacks.logical_contents(lane) != self.shadow[lane]
        {
            self.fail(
                lane,
                ViolationKind::LifoOrder,
                format!(
                    "periodic audit: levels hold {:?}, log says {:?}",
                    stacks.logical_contents(lane),
                    self.shadow[lane]
                ),
            );
        }
    }

    fn check_capacity(&mut self, stacks: &crate::WarpStacks, lane: usize) {
        let rb = stacks.rb_len(lane);
        if rb > stacks.rb_capacity() {
            self.fail(
                lane,
                ViolationKind::Capacity,
                format!("RB stack holds {rb} entries, capacity {}", stacks.rb_capacity()),
            );
            return;
        }
        if let Some(p) = stacks.config().sh_level() {
            for &seg in stacks.chain(lane) {
                let len = stacks.segment_len(seg as usize);
                if len > p.sh_entries {
                    self.fail(
                        lane,
                        ViolationKind::Capacity,
                        format!("SH stack {seg} holds {len} entries, capacity {}", p.sh_entries),
                    );
                    return;
                }
            }
        }
    }

    /// Chain length / acyclicity / exclusivity and idle-state consistency,
    /// across the whole warp (a bad transition on one lane can corrupt
    /// another lane's chain, so this is warp-global on purpose).
    fn check_chains(&mut self, stacks: &crate::WarpStacks) {
        let Some(p) = stacks.config().sh_level() else { return };
        // occupants[s] = *active* lanes whose chain links segment s. A
        // retired lane's chain is frozen stale state — flush rotation means
        // it may still reference a segment that has since been idled and
        // re-borrowed (hardware never scrubs dead NextTID fields), so only
        // live chains participate in shape and exclusivity checks.
        let mut occupants: [u8; WARP_SIZE] = [0; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if self.retired[lane] {
                continue;
            }
            let chain = stacks.chain(lane);
            if chain.len() > 1 + p.borrow_limit {
                self.fail(
                    lane,
                    ViolationKind::BorrowChain,
                    format!("chain links {} stacks, limit {}", chain.len(), 1 + p.borrow_limit),
                );
                return;
            }
            if !p.realloc && chain.len() > 1 {
                self.fail(
                    lane,
                    ViolationKind::BorrowChain,
                    format!("chain links {} stacks with reallocation disabled", chain.len()),
                );
                return;
            }
            for (i, &seg) in chain.iter().enumerate() {
                if chain[..i].contains(&seg) {
                    self.fail(
                        lane,
                        ViolationKind::BorrowChain,
                        format!("chain {chain:?} links stack {seg} twice"),
                    );
                    return;
                }
                occupants[seg as usize] += 1;
            }
        }
        for (seg, &n) in occupants.iter().enumerate() {
            // Exclusivity: at most one live lane may hold any segment.
            if n > 1 {
                self.fail(
                    seg,
                    ViolationKind::BorrowChain,
                    format!("SH stack {seg} is linked into {n} active chains"),
                );
                return;
            }
            if stacks.segment_idle(seg) {
                if stacks.segment_len(seg) != 0 {
                    self.fail(
                        seg,
                        ViolationKind::IdleState,
                        format!("idle stack holds {} entries", stacks.segment_len(seg)),
                    );
                    return;
                }
                if stacks.segment_flushes(seg) != 0 {
                    self.fail(
                        seg,
                        ViolationKind::IdleState,
                        format!(
                            "idle stack has a stale flush counter ({})",
                            stacks.segment_flushes(seg)
                        ),
                    );
                    return;
                }
                // Idle means borrowable: it must not be linked into any
                // *active* lane's chain (the retired owner's stale head is
                // the one exception).
                for lane in 0..WARP_SIZE {
                    if self.retired[lane] {
                        continue;
                    }
                    if stacks.chain(lane).contains(&(seg as u8)) {
                        self.fail(
                            lane,
                            ViolationKind::IdleState,
                            format!("idle stack {seg} is linked into active lane {lane}'s chain"),
                        );
                        return;
                    }
                }
            }
        }
    }
}
