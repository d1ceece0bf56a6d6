//! Hierarchical per-thread traversal stacks (paper §IV–§VI).
//!
//! Logically every thread owns one LIFO stack of BVH node ids. Physically
//! the stack is split across up to three levels, newest entries first:
//!
//! ```text
//!   RB stack (ray buffer SRAM)  <- top, free to access
//!   SH stack (shared memory)    <- SMS only: circular queue, banked
//!   global memory spill region  <- oldest entries, off-chip
//! ```
//!
//! A push that overflows the RB stack spills the *oldest* RB entry one
//! level down; a pop eagerly refills the freed RB slot from the most recent
//! entry one level down (paper Fig. 3 and Fig. 7). Every inter-level move
//! emits [`MicroOp`]s that the RT unit times through the memory system —
//! the stack *contents* move immediately, so traversal results are exact.
//!
//! The SMS optimizations:
//! * **Skewed bank access** (§V-A): thread `t`'s circular SH stack starts at
//!   entry `(t / k) mod N` with `k = 32 / 2N`, spreading warp-wide accesses
//!   over the 32 shared-memory banks.
//! * **Dynamic intra-warp reallocation** (§V-B, §VI-B): threads that finish
//!   traversal mark their SH stack *idle*; running threads whose chain is
//!   full borrow idle stacks (up to 4 concurrent borrows, tracked like the
//!   hardware's `Next TID` links). With nothing left to borrow, the chain's
//!   *bottom* stack is flushed wholesale to global memory and promoted to
//!   the top. Each stack's `Flush` field counts its consecutive flushes; no
//!   limit applies, as the paper's 3 does not say what a lane does past it.
//!
//! Armed like the validator, a [`WarpStacks`] records its own events into
//! a `StackRecord`: the [`StackMetrics`] and the Fig. 10 depth log.

use crate::metrics::StackMetrics;
use crate::microop::{MicroOp, Space, StackLevel};
use crate::validator::{StackValidator, StackViolation};
use sms_gpu::{SimStats, WARP_SIZE};
use sms_mem::space::spill_slot_addr;
use sms_mem::{AccessKind, Addr, Cycle};

/// Parameters of the SMS two-level stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmsParams {
    /// RB (primary) stack entries per thread. Paper default: 8.
    pub rb_entries: usize,
    /// SH (secondary) stack entries per thread. Paper default: 8.
    pub sh_entries: usize,
    /// Enable skewed bank access (§V-A).
    pub skewed: bool,
    /// Enable dynamic intra-warp reallocation (§V-B).
    pub realloc: bool,
    /// Maximum concurrently borrowed SH stacks per thread (paper: 4).
    pub borrow_limit: usize,
}

impl Default for SmsParams {
    /// `RB_8 + SH_8` without optimizations (the paper's `+SH_8` bar).
    fn default() -> Self {
        SmsParams { rb_entries: 8, sh_entries: 8, skewed: false, realloc: false, borrow_limit: 4 }
    }
}

impl SmsParams {
    /// Returns a copy with skewed bank access enabled/disabled.
    pub fn with_skewed(mut self, on: bool) -> Self {
        self.skewed = on;
        self
    }

    /// Returns a copy with intra-warp reallocation enabled/disabled.
    pub fn with_realloc(mut self, on: bool) -> Self {
        self.realloc = on;
        self
    }
}

/// Which traversal-stack architecture a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackConfig {
    /// RB stack only; overflow spills directly to global memory (`RB_N`).
    Baseline {
        /// RB entries per thread.
        rb_entries: usize,
    },
    /// The proposed two-level design (`RB_N + SH_M [+SK] [+RA]`).
    Sms(SmsParams),
    /// An unbounded on-chip stack (`RB_FULL`) — the paper's impractical
    /// upper bound.
    FullOnChip,
    /// Stackless escape-index traversal (`SL`) — the stack-*elimination*
    /// competitor (Prokopenko & Lebrun-Grandié): the RT unit follows the
    /// `FlatBvh` parent/escape links, performing zero stack pushes, pops
    /// or spills. The cost moves to extra node re-visits (the fixed
    /// left-to-right order loses nearest-first culling), which are charged
    /// through the ordinary fetch/op pipeline.
    Stackless,
    /// Hash-based ray-path prediction (`PRED_<bits>`, Demoullin et al.)
    /// layered over an 8-entry RB baseline stack: a per-RT-unit
    /// direct-mapped table keyed by quantized ray origin/direction
    /// predicts the leaf a ray will hit. A correct prediction skips the
    /// inner-node traversal entirely; a mispredict falls back to the full
    /// stacked traversal and is charged to its own stall-ledger bucket.
    Predictor {
        /// log2 of the per-RT-unit prediction-table entry count.
        table_bits: u32,
    },
}

impl StackConfig {
    /// The paper's baseline: an 8-entry RB stack.
    pub fn baseline8() -> Self {
        StackConfig::Baseline { rb_entries: 8 }
    }

    /// The full SMS architecture: `RB_8 + SH_8 + SK + RA`.
    pub fn sms_default() -> Self {
        StackConfig::Sms(SmsParams::default().with_skewed(true).with_realloc(true))
    }

    /// The stackless escape-index competitor (`SL`).
    pub fn stackless() -> Self {
        StackConfig::Stackless
    }

    /// The default ray-path predictor: a 4096-entry table (`PRED_12`).
    pub fn predictor_default() -> Self {
        StackConfig::Predictor { table_bits: 12 }
    }

    /// RB capacity in entries.
    pub fn rb_capacity(&self) -> usize {
        match self {
            StackConfig::Baseline { rb_entries } => *rb_entries,
            StackConfig::Sms(p) => p.rb_entries,
            StackConfig::FullOnChip => usize::MAX >> 1,
            StackConfig::Stackless => 0,
            // The predictor's fallback path is the paper's RB_8 baseline.
            StackConfig::Predictor { .. } => 8,
        }
    }

    /// `true` when every thread performs the *same* traversal work under
    /// this config as under the stacked reference — the paper's
    /// normalized-IPC premise. Stackless re-visits nodes and the
    /// predictor skips them, so neither is work-preserving.
    pub fn preserves_traversal_work(&self) -> bool {
        !matches!(self, StackConfig::Stackless | StackConfig::Predictor { .. })
    }

    /// log2 of the prediction-table size, for predictor configs.
    pub fn predictor_bits(&self) -> Option<u32> {
        match self {
            StackConfig::Predictor { table_bits } => Some(*table_bits),
            _ => None,
        }
    }

    /// `true` for the stackless escape-index traversal (`SL`).
    pub fn is_stackless(&self) -> bool {
        matches!(self, StackConfig::Stackless)
    }

    /// The SH level's parameters: `Some` only for an SMS configuration
    /// with at least one SH entry per thread (`SH_0` has no SH level).
    ///
    /// # Panics
    ///
    /// Panics if `sh_entries` exceeds `u32::MAX`, the largest SH stack
    /// whose entries the per-thread `Top`/`Bottom` fields index.
    pub fn sh_level(&self) -> Option<&SmsParams> {
        let StackConfig::Sms(p) = self else { return None };
        assert!(
            u32::try_from(p.sh_entries).is_ok(),
            "SH_{} is larger than an SH stack can index ({} entries)",
            p.sh_entries,
            u32::MAX
        );
        (p.sh_entries > 0).then_some(p)
    }

    /// Shared-memory bytes one warp's SH stacks occupy.
    pub fn shared_bytes_per_warp(&self) -> u64 {
        self.sh_level().map_or(0, |p| WARP_SIZE as u64 * p.sh_entries as u64 * 8)
    }

    /// Shared-memory bytes an RT unit holding `max_warps` warps needs —
    /// the amount carved out of the unified L1/shared array (§IV-B);
    /// `u64::MAX` when that does not fit in a `u64`.
    pub fn shared_carveout(&self, max_warps: usize) -> u64 {
        self.shared_bytes_per_warp().saturating_mul(max_warps as u64)
    }

    /// Short human-readable label (`RB_8+SH_8+SK+RA` style).
    pub fn label(&self) -> String {
        match self {
            StackConfig::Baseline { rb_entries } => format!("RB_{rb_entries}"),
            StackConfig::FullOnChip => "RB_FULL".to_owned(),
            StackConfig::Stackless => "SL".to_owned(),
            StackConfig::Predictor { table_bits } => format!("PRED_{table_bits}"),
            StackConfig::Sms(p) => {
                let mut s = format!("RB_{}+SH_{}", p.rb_entries, p.sh_entries);
                if p.skewed {
                    s.push_str("+SK");
                }
                if p.realloc {
                    s.push_str("+RA");
                }
                s
            }
        }
    }
}

impl std::fmt::Display for StackConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Parses a label: the inverse of [`StackConfig::label`].
///
/// Accepted forms: `RB_<n>`, `RB_FULL`, `RB_<n>+SH_<m>` with `n` and `m`
/// in `1..=u32::MAX`, and optional `+SK` and/or `+RA` suffixes (in that
/// order, `+RA` may appear alone);
/// plus the traversal competitors `SL` (stackless) and `PRED_<bits>`
/// (ray-path predictor, `1..=20` table index bits). Every count is
/// spelled as `label` prints it, `[1-9][0-9]*`: no sign, no leading zero,
/// so each accepted string is the label of its parse. A label does not carry
/// `borrow_limit`: a parsed SMS config has the paper's 4, so
/// `c.label().parse() == Ok(c)` holds for exactly that limit.
impl std::str::FromStr for StackConfig {
    type Err = String;

    fn from_str(label: &str) -> Result<Self, String> {
        let err =
            || format!("unknown stack config `{label}` (expected e.g. RB_8, RB_8+SH_8+SK+RA)");
        if label == "SL" {
            return Ok(StackConfig::Stackless);
        }
        // `str::parse` also takes `+8` and `08`, which `label` never prints.
        let count = |n: &str| n.parse::<u32>().ok().filter(|_| !n.starts_with(['+', '0']));
        if let Some(bits) = label.strip_prefix("PRED_") {
            return count(bits)
                .filter(|&b| (1..=crate::predictor::MAX_TABLE_BITS).contains(&b))
                .map(|table_bits| StackConfig::Predictor { table_bits })
                .ok_or_else(err);
        }
        let entries = |part: &str, prefix: &str| {
            part.strip_prefix(prefix).and_then(count).map(|n| n as usize).ok_or_else(err)
        };
        let mut parts = label.split('+');
        let rb = parts.next().ok_or_else(err)?;
        if rb == "RB_FULL" {
            return if parts.next().is_none() { Ok(StackConfig::FullOnChip) } else { Err(err()) };
        }
        let rb_entries = entries(rb, "RB_")?;
        let Some(sh) = parts.next() else {
            return Ok(StackConfig::Baseline { rb_entries });
        };
        let sh_entries = entries(sh, "SH_")?;
        let mut params = SmsParams { rb_entries, sh_entries, ..SmsParams::default() };
        let mut rest = parts.peekable();
        if rest.peek() == Some(&"SK") {
            params = params.with_skewed(true);
            rest.next();
        }
        if rest.peek() == Some(&"RA") {
            params = params.with_realloc(true);
            rest.next();
        }
        if rest.next().is_some() {
            return Err(err());
        }
        Ok(StackConfig::Sms(params))
    }
}

/// The skewed base entry index of §VI-B:
/// `base = (tid / k) mod N`, `k = 32 / (N * 2)`.
///
/// The paper's `k` assumes `2N` divides the warp width (every size it
/// evaluates). For other sizes we generalize to `k = 32 / gcd(2N, 32)` —
/// identical on all power-of-two sizes, but clamp-free: the naive
/// `(32 / 2N).max(1)` degenerates on non-power-of-two stacks (e.g. `N = 5`
/// lands 10 of 32 lane bases on one bank, five times worse than disabling
/// skew), while the gcd form provably spreads the 32 bases two-per-bank
/// for every `N` (see `skew_never_degenerates_for_any_sh_size`).
pub fn base_entry_index(lane: usize, sh_entries: usize, skewed: bool) -> u32 {
    if !skewed || sh_entries == 0 {
        return 0;
    }
    let k = (WARP_SIZE / gcd(2 * sh_entries, WARP_SIZE)).max(1);
    ((lane / k) % sh_entries) as u32
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The global level: each lane's spilled entries, oldest first, in its
/// thread's local-memory spill slots ([`spill_slot_addr`]), and the
/// entries each lane has written there and read back.
#[derive(Debug, Clone, Default)]
struct GlobalLevel {
    lanes: [Vec<u32>; WARP_SIZE],
    tid_base: u32,
    writes: [u32; WARP_SIZE],
    reads: [u32; WARP_SIZE],
}

impl GlobalLevel {
    /// Appends `v` to the lane's spill region; returns the slot's address.
    fn push(&mut self, lane: usize, v: u32) -> Addr {
        let slot = self.lanes[lane].len() as u32;
        self.lanes[lane].push(v);
        self.writes[lane] += 1;
        spill_slot_addr(self.tid_base + lane as u32, slot)
    }

    /// Spills `v` to the lane's next slot: one global store.
    fn spill(&mut self, lane: usize, v: u32, ops: &mut Vec<MicroOp>) {
        let addr = self.push(lane, v);
        ops.push(MicroOp::global(AccessKind::Store, StackLevel::ShGlobal, addr));
    }

    /// Reloads the lane's newest spilled entry: one global load.
    fn reload(&mut self, lane: usize, ops: &mut Vec<MicroOp>) -> Option<u32> {
        let v = self.lanes[lane].pop()?;
        self.reads[lane] += 1;
        let addr = spill_slot_addr(self.tid_base + lane as u32, self.lanes[lane].len() as u32);
        ops.push(MicroOp::global(AccessKind::Load, StackLevel::ShGlobal, addr));
        Some(v)
    }
}

/// One SH stack's per-thread fields (§VI-C): `Bottom` and the entry
/// count (so `Top` is `Bottom + len`, modulo the capacity), the skewed
/// base, `Flush` and `Idle`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Physical index of the oldest entry.
    bottom: u32,
    /// Entries resident.
    len: u32,
    /// The skewed base entry the stack resets to.
    base: u32,
    /// Consecutive flushes since the last release (RA bookkeeping).
    flushes: u8,
    /// Available for borrowing (owner finished, nobody using it).
    idle: bool,
}

impl Segment {
    /// Empties the stack back to its base entry, borrowable when `idle`.
    fn release(&mut self, idle: bool) {
        *self = Segment { bottom: self.base, len: 0, flushes: 0, idle, ..*self };
    }
}

/// The SH level of one warp: 32 circular stacks of `cap` entries in the
/// warp slot's shared-memory region, stored in one slot array. Entry
/// `phys` of stack `seg` is slot `seg * cap + phys`, at byte
/// `base + 8 * slot`: an entry's storage index is its address.
#[derive(Debug, Clone)]
struct ShLevel {
    cap: u32,
    realloc: bool,
    borrow_limit: usize,
    /// The warp slot's byte offset inside the SM's shared array.
    base: Addr,
    slots: Vec<u32>,
    segs: [Segment; WARP_SIZE],
    /// Each lane's reallocation chain (`Next TID` links), dedicated or
    /// bottom stack first: the first `chain_lens[lane]` entries. A live
    /// chain links distinct stacks, so it never holds more than 32.
    chains: [[u8; WARP_SIZE]; WARP_SIZE],
    chain_lens: [u8; WARP_SIZE],
}

impl ShLevel {
    fn new(p: &SmsParams, base: Addr) -> Self {
        ShLevel {
            // `StackConfig::sh_level` refused sizes beyond `u32`.
            cap: p.sh_entries as u32,
            realloc: p.realloc,
            borrow_limit: p.borrow_limit,
            base,
            slots: vec![0; WARP_SIZE * p.sh_entries],
            segs: std::array::from_fn(|lane| {
                let base = base_entry_index(lane, p.sh_entries, p.skewed);
                Segment { bottom: base, len: 0, base, flushes: 0, idle: false }
            }),
            chains: std::array::from_fn(|lane| {
                let mut chain = [0; WARP_SIZE];
                chain[0] = lane as u8;
                chain
            }),
            chain_lens: [1; WARP_SIZE],
        }
    }

    fn chain(&self, lane: usize) -> &[u8] {
        &self.chains[lane][..self.chain_lens[lane] as usize]
    }

    /// The stack on top of the lane's chain.
    fn top(&self, lane: usize) -> u8 {
        self.chains[lane][self.chain_lens[lane] as usize - 1]
    }

    /// Entries resident in the lane's chain.
    fn count(&self, lane: usize) -> usize {
        self.chain(lane).iter().map(|&s| self.segs[s as usize].len as usize).sum()
    }

    fn addr(&self, slot: usize) -> Addr {
        self.base + slot as u64 * 8
    }

    /// The slot `k` entries above stack `seg`'s Bottom, wrapping.
    fn slot(&self, seg: u8, k: u32) -> usize {
        let phys = (u64::from(self.segs[seg as usize].bottom) + u64::from(k)) % u64::from(self.cap);
        seg as usize * self.cap as usize + phys as usize
    }

    /// Pushes on top of stack `seg`; returns the slot written.
    fn push_top(&mut self, seg: u8, v: u32) -> usize {
        let slot = self.slot(seg, self.segs[seg as usize].len);
        self.slots[slot] = v;
        self.segs[seg as usize].len += 1;
        slot
    }

    /// Pops stack `seg`'s newest entry; returns it and the slot read.
    fn pop_top(&mut self, seg: u8) -> (u32, usize) {
        self.segs[seg as usize].len -= 1;
        let slot = self.slot(seg, self.segs[seg as usize].len);
        (self.slots[slot], slot)
    }

    /// Removes stack `seg`'s oldest entry; returns it and the slot read.
    fn evict_bottom(&mut self, seg: u8) -> (u32, usize) {
        let slot = self.slot(seg, 0);
        let s = &mut self.segs[seg as usize];
        s.bottom = (s.bottom + 1) % self.cap;
        s.len -= 1;
        (self.slots[slot], slot)
    }

    /// Inserts below stack `seg`'s oldest entry; returns the slot written.
    fn insert_bottom(&mut self, seg: u8, v: u32) -> usize {
        let s = &mut self.segs[seg as usize];
        s.bottom = s.bottom.checked_sub(1).unwrap_or(self.cap - 1);
        s.len += 1;
        let slot = self.slot(seg, 0);
        self.slots[slot] = v;
        slot
    }

    fn find_idle(&self) -> Option<u8> {
        self.segs.iter().position(|s| s.idle).map(|s| s as u8)
    }

    /// Takes the RB's evicted entry `v` onto the lane's top SH stack,
    /// making room first when it is full. Returns the flushed stack's
    /// consecutive-flush count when making room flushed one.
    fn push(
        &mut self,
        lane: usize,
        v: u32,
        global: &mut GlobalLevel,
        validator: Option<&mut StackValidator>,
        stats: &mut SimStats,
        ops: &mut Vec<MicroOp>,
    ) -> Option<u8> {
        let full = self.segs[self.top(lane) as usize].len == self.cap;
        let flushed = full.then(|| self.make_room(lane, global, validator, stats, ops)).flatten();
        let slot = self.push_top(self.top(lane), v);
        ops.push(MicroOp::shared(AccessKind::Store, StackLevel::RbSh, self.addr(slot)));
        flushed
    }

    /// Frees one slot in the lane's top SH stack: single-entry spill
    /// without reallocation, else borrow, else flush (§VI-B). Returns the
    /// flushed stack's consecutive-flush count when it flushed.
    fn make_room(
        &mut self,
        lane: usize,
        global: &mut GlobalLevel,
        validator: Option<&mut StackValidator>,
        stats: &mut SimStats,
        ops: &mut Vec<MicroOp>,
    ) -> Option<u8> {
        if !self.realloc {
            // Plain SMS: move the single stack's oldest entry to global
            // (shared load -> global store), as in Fig. 7 steps 3-4.
            let (v, slot) = self.evict_bottom(self.chains[lane][0]);
            ops.push(MicroOp::shared(AccessKind::Load, StackLevel::ShGlobal, self.addr(slot)));
            global.spill(lane, v, ops);
            stats.sh_spills += 1;
            return None;
        }
        // 1. Borrow an idle stack from an early-finished thread.
        let chain_len = self.chain_lens[lane] as usize;
        if chain_len < 1 + self.borrow_limit {
            if let Some(idle) = self.find_idle() {
                self.segs[idle as usize].release(false);
                self.chains[lane][chain_len] = idle;
                self.chain_lens[lane] += 1;
                stats.ra_borrows += 1;
                return None;
            }
        }
        // 2. Flush the bottom stack wholesale to global memory and promote
        //    it to the top of the chain: the only move that preserves
        //    bottom-up fill order across linked stacks. Its Flush field
        //    counts the run; no limit stops it.
        if let Some(v) = validator {
            v.before_flush(lane, chain_len, self.borrow_limit, self.find_idle().is_some());
        }
        let bottom = self.chains[lane][0];
        let seg = &mut self.segs[bottom as usize];
        seg.flushes = seg.flushes.saturating_add(1);
        let run = seg.flushes;
        stats.ra_flushes += 1;
        let burst = |space, kind| MicroOp { space, kind, level: StackLevel::Flush, addrs: vec![] };
        let mut reads = burst(Space::Shared, AccessKind::Load);
        let mut writes = burst(Space::Global, AccessKind::Store);
        while self.segs[bottom as usize].len > 0 {
            let (v, slot) = self.evict_bottom(bottom);
            reads.addrs.push((self.addr(slot), 8));
            writes.addrs.push((global.push(lane, v), 8));
            stats.sh_spills += 1;
        }
        ops.extend([reads, writes]);
        let seg = &mut self.segs[bottom as usize];
        seg.bottom = seg.base;
        self.chains[lane][..chain_len].rotate_left(1);
        Some(run)
    }

    /// Pops the lane's newest SH entry for the RB, then refills the bottom
    /// stack from global memory (newest spilled entry moves up) when it
    /// has room.
    fn pop(
        &mut self,
        lane: usize,
        global: &mut GlobalLevel,
        stats: &mut SimStats,
        ops: &mut Vec<MicroOp>,
    ) -> u32 {
        let (v, slot) = self.pop_top(self.top(lane));
        ops.push(MicroOp::shared(AccessKind::Load, StackLevel::RbSh, self.addr(slot)));
        self.release_empty_tops(lane);
        let bottom = self.chains[lane][0];
        if self.segs[bottom as usize].len < self.cap {
            if let Some(g) = global.reload(lane, ops) {
                stats.sh_reloads += 1;
                let slot = self.insert_bottom(bottom, g);
                ops.push(MicroOp::shared(AccessKind::Store, StackLevel::ShGlobal, self.addr(slot)));
            }
        }
        v
    }

    /// Releases emptied borrowed stacks back to the idle pool.
    fn release_empty_tops(&mut self, lane: usize) {
        while self.chain_lens[lane] > 1 {
            let top = self.top(lane) as usize;
            if self.segs[top].len > 0 {
                break;
            }
            self.chain_lens[lane] -= 1;
            self.segs[top].release(true);
        }
    }

    /// Discards the lane's stacks: borrowed ones go back to the pool, the
    /// chain head becomes borrowable only with reallocation.
    fn clear(&mut self, lane: usize) {
        for &seg in &self.chains[lane][1..self.chain_lens[lane] as usize] {
            self.segs[seg as usize].release(true);
        }
        self.chain_lens[lane] = 1;
        self.segs[self.chains[lane][0] as usize].release(self.realloc);
    }

    /// With reallocation, idles a finished lane's dedicated stack (§VI-B).
    fn done(&mut self, lane: usize) {
        if !self.realloc {
            return;
        }
        self.release_empty_tops(lane);
        // The dedicated stack may itself have been borrowed already if this
        // lane finished long ago; only idle it when it is still this lane's
        // chain head and empty.
        let seg = &mut self.segs[lane];
        if self.chains[lane][0] == lane as u8 && seg.len == 0 && !seg.idle {
            seg.release(true);
        }
    }
}

/// What an armed [`WarpStacks`] records of its own events over one trace;
/// each part is `None` until armed.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct StackRecord {
    /// The push, flush and per-ray distributions.
    pub metrics: Option<StackMetrics>,
    /// `(lane, depth after the op)` at every push and pop, in order.
    pub depths: Option<Vec<(u8, u16)>>,
}

impl StackRecord {
    /// One completed push, with the flushed stack's run if it flushed one.
    fn after_push(&mut self, stacks: &WarpStacks, lane: usize, flush_run: Option<u8>) {
        if let Some(m) = &mut self.metrics {
            m.depth_at_push.record(stacks.depth(lane) as u64);
            m.sh_occupancy.record(stacks.sh_count(lane) as u64);
            m.borrow_chain.record(stacks.chain_len(lane) as u64);
            if let Some(run) = flush_run {
                m.flush_runs.record(u64::from(run));
            }
        }
        self.log_depth(stacks, lane);
    }

    /// One completed push or pop, in the depth log.
    fn log_depth(&mut self, stacks: &WarpStacks, lane: usize) {
        if let Some(log) = &mut self.depths {
            log.push((lane as u8, stacks.depth(lane).min(u16::MAX as usize) as u16));
        }
    }
}

/// The traversal stacks of one warp (32 threads), in one RT-unit warp slot.
///
/// The hierarchy is data, derived once from the [`StackConfig`]: an RB
/// level of `rb_cap` entries per thread, an optional SH level
/// ([`StackConfig::sh_level`]) and the global level below them. No push
/// or pop asks which configuration it runs.
///
/// # Example
///
/// ```
/// use sms_rtunit::{StackConfig, WarpStacks};
/// use sms_gpu::SimStats;
///
/// let mut stacks = WarpStacks::new(&StackConfig::sms_default(), 0, 0);
/// let mut stats = SimStats::default();
/// let mut ops = Vec::new();
/// for n in 0..20 {
///     stacks.push(0, n, &mut stats, &mut ops);
/// }
/// assert_eq!(stacks.depth(0), 20);
/// for n in (0..20).rev() {
///     assert_eq!(stacks.pop(0, &mut stats, &mut ops), n);
/// }
/// assert!(stacks.is_empty(0));
/// ```
#[derive(Debug, Clone)]
pub struct WarpStacks {
    config: StackConfig,
    rb_cap: usize,
    rb: Vec<Vec<u32>>,
    sh: Option<ShLevel>,
    global: GlobalLevel,
    /// Optional invariant validator (see [`crate::validator`]); absent in
    /// normal runs, so the hot paths below pay one `Option` check at most.
    validator: Option<Box<StackValidator>>,
    /// What the armed recorders recorded; absent in normal runs.
    record: Option<Box<StackRecord>>,
}

impl WarpStacks {
    /// Creates empty stacks for a warp.
    ///
    /// `region_base` is the warp slot's shared-memory byte offset inside the
    /// SM's shared array; `tid_base` is the warp's first global thread id
    /// (determines spill-region addresses). Panics on an SH level larger
    /// than [`StackConfig::sh_level`] takes.
    pub fn new(config: &StackConfig, region_base: Addr, tid_base: u32) -> Self {
        WarpStacks {
            config: *config,
            rb_cap: config.rb_capacity(),
            rb: vec![Vec::new(); WARP_SIZE],
            sh: config.sh_level().map(|p| ShLevel::new(p, region_base)),
            global: GlobalLevel { tid_base, ..GlobalLevel::default() },
            validator: None,
            record: None,
        }
    }

    /// Attaches a [`StackValidator`] that checks the SMS invariants at
    /// every transition. Pure observation: enabling it cannot change any
    /// stack content, micro-op or counter of the run.
    pub fn enable_validator(&mut self) {
        self.validator = Some(Box::new(StackValidator::new()));
    }

    /// The first invariant violation the validator latched, if any.
    pub fn take_violation(&mut self) -> Option<StackViolation> {
        self.validator.as_mut().and_then(|v| v.take_violation())
    }

    /// Runs `f` with the observer in `field` (the validator or the record)
    /// temporarily detached: it needs `&self` while living inside `self`.
    /// No-op while `field` is `None`.
    fn observe<T>(
        &mut self,
        field: fn(&mut Self) -> &mut Option<Box<T>>,
        f: impl FnOnce(&mut T, &WarpStacks),
    ) {
        if let Some(mut o) = field(self).take() {
            f(&mut o, self);
            *field(self) = Some(o);
        }
    }

    /// Arms the [`StackMetrics`] of every push, flush and
    /// [`WarpStacks::ray_done`]. Pure observation, like the validator.
    pub(crate) fn enable_metrics(&mut self) {
        self.record.get_or_insert_with(Box::default).metrics = Some(StackMetrics::default());
    }

    /// Arms the Fig. 10 depth log. Pure observation, like the validator.
    pub(crate) fn enable_depth_log(&mut self) {
        self.record.get_or_insert_with(Box::default).depths = Some(Vec::new());
    }

    /// Takes what the armed recorders recorded; `None` when none is armed.
    pub(crate) fn take_record(&mut self) -> Option<StackRecord> {
        self.record.take().map(|r| *r)
    }

    /// Records a finished ray (lane): its latency and its global-level
    /// writes and reads. No-op unless the metrics are armed.
    pub(crate) fn ray_done(&mut self, lane: usize, latency: Cycle) {
        if let Some(m) = self.record.as_mut().and_then(|r| r.metrics.as_mut()) {
            m.ray_latency.record(latency);
            m.ray_spills.record(u64::from(self.global.writes[lane]));
            m.ray_reloads.record(u64::from(self.global.reads[lane]));
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Entries resident in the lane's RB level (validator/observability).
    pub fn rb_len(&self, lane: usize) -> usize {
        self.rb[lane].len()
    }

    /// Entries spilled to the lane's global-memory level.
    pub fn global_len(&self, lane: usize) -> usize {
        self.global.lanes[lane].len()
    }

    /// The RB capacity in effect.
    pub fn rb_capacity(&self) -> usize {
        self.rb_cap
    }

    /// The lane's reallocation chain (dedicated stack first); empty
    /// without an SH level.
    pub fn chain(&self, lane: usize) -> &[u8] {
        self.sh.as_ref().map_or(&[], |sh| sh.chain(lane))
    }

    /// Entries resident in SH stack `seg`.
    pub fn segment_len(&self, seg: usize) -> usize {
        self.sh.as_ref().and_then(|sh| sh.segs.get(seg)).map_or(0, |s| s.len as usize)
    }

    /// Whether SH stack `seg` is marked idle (borrowable).
    pub fn segment_idle(&self, seg: usize) -> bool {
        self.sh.as_ref().and_then(|sh| sh.segs.get(seg)).is_some_and(|s| s.idle)
    }

    /// SH stack `seg`'s consecutive-flush counter.
    pub fn segment_flushes(&self, seg: usize) -> u8 {
        self.sh.as_ref().and_then(|sh| sh.segs.get(seg)).map_or(0, |s| s.flushes)
    }

    /// Logical stack depth of a lane.
    pub fn depth(&self, lane: usize) -> usize {
        self.rb[lane].len() + self.sh_count(lane) + self.global_len(lane)
    }

    /// `true` when the lane's logical stack is empty.
    pub fn is_empty(&self, lane: usize) -> bool {
        self.depth(lane) == 0
    }

    /// Entries currently resident in the lane's SH level.
    pub fn sh_count(&self, lane: usize) -> usize {
        self.sh.as_ref().map_or(0, |sh| sh.count(lane))
    }

    /// Number of SH stacks currently linked into the lane's chain
    /// (1 dedicated + borrows).
    pub fn chain_len(&self, lane: usize) -> usize {
        self.chain(lane).len().max(1)
    }

    /// The lane's full logical stack, oldest first (for tests/debugging).
    pub fn logical_contents(&self, lane: usize) -> Vec<u32> {
        let mut v = self.global.lanes[lane].clone();
        if let Some(sh) = &self.sh {
            for &seg in sh.chain(lane) {
                let len = sh.segs[seg as usize].len;
                v.extend((0..len).map(|k| sh.slots[sh.slot(seg, k)]));
            }
        }
        v.extend(&self.rb[lane]);
        v
    }

    /// Pushes `node` onto the lane's logical stack, appending the memory
    /// micro-ops of any required spills to `ops`.
    pub fn push(&mut self, lane: usize, node: u32, stats: &mut SimStats, ops: &mut Vec<MicroOp>) {
        let mut flush_run = None;
        if self.rb[lane].len() >= self.rb_cap {
            // RB overflow: spill the oldest RB entry one level down.
            stats.rb_spills += 1;
            let old = self.rb[lane].remove(0);
            let validator = self.validator.as_deref_mut();
            match &mut self.sh {
                Some(sh) => {
                    flush_run = sh.push(lane, old, &mut self.global, validator, stats, ops);
                }
                None => self.global.spill(lane, old, ops),
            }
        }
        self.rb[lane].push(node);
        if self.record.is_some() {
            self.observe(|s| &mut s.record, |r, s| r.after_push(s, lane, flush_run));
        }
        if self.validator.is_some() {
            self.observe(|s| &mut s.validator, |v, s| v.after_push(s, lane, node));
        }
    }

    /// Pops the logical top of the lane's stack, eagerly refilling the RB
    /// stack from below (paper Fig. 3 step 5 / Fig. 7 steps 2, 5, 6).
    ///
    /// # Panics
    ///
    /// Panics if the lane's stack is empty.
    pub fn pop(&mut self, lane: usize, stats: &mut SimStats, ops: &mut Vec<MicroOp>) -> u32 {
        let val = self.rb[lane].pop().expect("pop on empty traversal stack");
        let below = match &mut self.sh {
            Some(sh) if sh.count(lane) > 0 => Some(sh.pop(lane, &mut self.global, stats, ops)),
            _ => self.global.reload(lane, ops),
        };
        if let Some(v) = below {
            stats.rb_reloads += 1;
            self.rb[lane].insert(0, v);
        }
        if self.record.is_some() {
            self.observe(|s| &mut s.record, |r, s| r.log_depth(s, lane));
        }
        if self.validator.is_some() {
            self.observe(|s| &mut s.validator, |va, s| va.after_pop(s, lane, val));
        }
        val
    }

    /// Discards a lane's remaining logical stack without memory traffic —
    /// hardware just resets the stack-pointer fields. Used when an any-hit
    /// (occlusion) query terminates early with entries still stacked.
    pub fn clear_lane(&mut self, lane: usize) {
        self.rb[lane].clear();
        self.global.lanes[lane].clear();
        if let Some(sh) = &mut self.sh {
            sh.clear(lane);
        }
        if self.validator.is_some() {
            self.observe(|s| &mut s.validator, |v, s| v.on_clear(s, lane));
        }
    }

    /// Marks a lane's traversal as finished: with reallocation enabled its
    /// dedicated SH stack becomes available for borrowing (§VI-B `Idle`).
    ///
    /// Terminal for the lane within this trace: the lane must not push or
    /// pop again (the RT unit allocates fresh [`WarpStacks`] per trace
    /// request, matching the hardware's per-trace warp-buffer lifetime).
    pub fn mark_done(&mut self, lane: usize) {
        // With a validator attached this becomes a latched structured
        // violation instead of an abort (see `StackValidator::on_mark_done`).
        debug_assert!(
            self.validator.is_some() || self.is_empty(lane),
            "mark_done with entries left"
        );
        if let Some(sh) = &mut self.sh {
            sh.done(lane);
        }
        if self.validator.is_some() {
            self.observe(|s| &mut s.validator, |v, s| v.on_mark_done(s, lane));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::ViolationKind;

    fn push_n(stacks: &mut WarpStacks, lane: usize, n: u32) -> (SimStats, Vec<MicroOp>) {
        let mut stats = SimStats::default();
        let mut ops = Vec::new();
        for i in 0..n {
            stacks.push(lane, i, &mut stats, &mut ops);
        }
        (stats, ops)
    }

    fn pop_all(stacks: &mut WarpStacks, lane: usize) -> Vec<u32> {
        let mut stats = SimStats::default();
        let mut ops = Vec::new();
        let mut out = Vec::new();
        while !stacks.is_empty(lane) {
            out.push(stacks.pop(lane, &mut stats, &mut ops));
        }
        out
    }

    fn lifo_check(config: StackConfig, n: u32) {
        let mut s = WarpStacks::new(&config, 0, 0);
        push_n(&mut s, 3, n);
        assert_eq!(s.depth(3), n as usize);
        let popped = pop_all(&mut s, 3);
        let expected: Vec<u32> = (0..n).rev().collect();
        assert_eq!(popped, expected, "{config} must be LIFO for {n} entries");
    }

    #[test]
    fn all_configs_are_lifo() {
        for n in [1, 7, 8, 9, 16, 17, 40, 100] {
            lifo_check(StackConfig::baseline8(), n);
            lifo_check(StackConfig::FullOnChip, n);
            lifo_check(StackConfig::predictor_default(), n);
            lifo_check(StackConfig::Sms(SmsParams::default()), n);
            lifo_check(StackConfig::sms_default(), n);
            lifo_check(StackConfig::Sms(SmsParams { sh_entries: 4, ..SmsParams::default() }), n);
        }
    }

    #[test]
    fn interleaved_push_pop_matches_reference() {
        for config in [
            StackConfig::baseline8(),
            StackConfig::Sms(SmsParams::default().with_skewed(true)),
            StackConfig::sms_default(),
        ] {
            let mut s = WarpStacks::new(&config, 0, 0);
            let mut reference: Vec<u32> = Vec::new();
            let mut stats = SimStats::default();
            let mut ops = Vec::new();
            let mut rng = sms_geom::SplitMix64::new(1234);
            let mut next = 0u32;
            for _ in 0..2000 {
                if reference.is_empty() || rng.next_f32() < 0.55 {
                    s.push(0, next, &mut stats, &mut ops);
                    reference.push(next);
                    next += 1;
                } else {
                    let got = s.pop(0, &mut stats, &mut ops);
                    assert_eq!(got, reference.pop().unwrap(), "{config}");
                }
                assert_eq!(s.depth(0), reference.len(), "{config}");
            }
            assert_eq!(s.logical_contents(0), reference, "{config}");
        }
    }

    #[test]
    fn baseline_spills_to_global_at_rb_capacity() {
        let mut s = WarpStacks::new(&StackConfig::baseline8(), 0, 0);
        let (stats, ops) = push_n(&mut s, 0, 12);
        assert_eq!(stats.rb_spills, 4);
        let stores = ops
            .iter()
            .filter(|o| o.space == crate::Space::Global && o.kind == AccessKind::Store)
            .count();
        assert_eq!(stores, 4);
    }

    #[test]
    fn full_stack_never_spills() {
        let mut s = WarpStacks::new(&StackConfig::FullOnChip, 0, 0);
        let (stats, ops) = push_n(&mut s, 0, 500);
        assert_eq!(stats.rb_spills, 0);
        assert!(ops.is_empty());
    }

    #[test]
    fn sms_spills_to_shared_first() {
        let mut s = WarpStacks::new(&StackConfig::Sms(SmsParams::default()), 0, 0);
        // 8 RB + 8 SH = first 16 pushes never reach global memory.
        let (stats, ops) = push_n(&mut s, 0, 16);
        assert_eq!(stats.rb_spills, 8);
        assert_eq!(stats.sh_spills, 0);
        assert!(ops.iter().all(|o| o.space == crate::Space::Shared));
        // The 17th push overflows SH -> shared load + global store + shared store.
        let mut stats = SimStats::default();
        let mut ops = Vec::new();
        s.push(0, 99, &mut stats, &mut ops);
        assert_eq!(stats.sh_spills, 1);
        let kinds: Vec<(crate::Space, AccessKind)> =
            ops.iter().map(|o| (o.space, o.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (crate::Space::Shared, AccessKind::Load),
                (crate::Space::Global, AccessKind::Store),
                (crate::Space::Shared, AccessKind::Store),
            ],
            "push with both stacks full follows the Fig. 7 sequence"
        );
    }

    #[test]
    fn pop_eagerly_refills_rb_from_shared() {
        let mut s = WarpStacks::new(&StackConfig::Sms(SmsParams::default()), 0, 0);
        push_n(&mut s, 0, 12); // 8 RB + 4 SH
        let mut stats = SimStats::default();
        let mut ops = Vec::new();
        let v = s.pop(0, &mut stats, &mut ops);
        assert_eq!(v, 11);
        assert_eq!(stats.rb_reloads, 1);
        assert_eq!(s.rb[0].len(), 8, "RB stays full while lower levels hold entries");
        assert_eq!(s.sh_count(0), 3);
        assert!(matches!(
            ops[0],
            MicroOp { space: crate::Space::Shared, kind: AccessKind::Load, .. }
        ));
    }

    #[test]
    fn pop_cascades_reload_from_global_into_shared() {
        let mut s = WarpStacks::new(&StackConfig::Sms(SmsParams::default()), 0, 0);
        push_n(&mut s, 0, 20); // 8 RB + 8 SH + 4 global
        assert_eq!(s.global_len(0), 4);
        let mut stats = SimStats::default();
        let mut ops = Vec::new();
        s.pop(0, &mut stats, &mut ops);
        assert_eq!(stats.rb_reloads, 1);
        assert_eq!(stats.sh_reloads, 1);
        assert_eq!(s.global_len(0), 3);
        assert_eq!(s.sh_count(0), 8, "SH refilled from global");
        let kinds: Vec<(crate::Space, AccessKind)> =
            ops.iter().map(|o| (o.space, o.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (crate::Space::Shared, AccessKind::Load),
                (crate::Space::Global, AccessKind::Load),
                (crate::Space::Shared, AccessKind::Store),
            ],
            "pop with both overflows: shared load, then global load + shared store"
        );
    }

    #[test]
    fn skew_formula_matches_paper_example() {
        // N=8 -> k=2: threads 0,1 -> entry 0; 2,3 -> entry 1; 16,17 -> 0.
        assert_eq!(base_entry_index(0, 8, true), 0);
        assert_eq!(base_entry_index(1, 8, true), 0);
        assert_eq!(base_entry_index(2, 8, true), 1);
        assert_eq!(base_entry_index(3, 8, true), 1);
        assert_eq!(base_entry_index(16, 8, true), 0);
        assert_eq!(base_entry_index(18, 8, true), 1);
        assert_eq!(base_entry_index(30, 8, true), 7);
        // N=16 -> k=1: thread t -> t mod 16.
        assert_eq!(base_entry_index(5, 16, true), 5);
        assert_eq!(base_entry_index(21, 16, true), 5);
        // Disabled skew -> always 0.
        assert_eq!(base_entry_index(9, 8, false), 0);
    }

    /// How many of the warp's 32 skewed base entries land on each of the 32
    /// shared-memory banks (4-byte banks; lane `l`'s dedicated segment
    /// starts at byte `l * N * 8`).
    fn base_bank_histogram(sh_entries: usize, skewed: bool) -> [u32; 32] {
        let mut counts = [0u32; 32];
        for lane in 0..WARP_SIZE {
            let base = base_entry_index(lane, sh_entries, skewed) as u64;
            let addr = (lane * sh_entries * 8) as u64 + base * 8;
            counts[((addr / 4) % 32) as usize] += 1;
        }
        counts
    }

    #[test]
    fn skew_never_degenerates_for_any_sh_size() {
        for n in 1..=64usize {
            for lane in 0..WARP_SIZE {
                let b = base_entry_index(lane, n, true) as usize;
                assert!(b < n, "N={n} lane={lane}: base {b} outside the segment");
                assert_eq!(base_entry_index(lane, n, false), 0);
            }
            let skewed = *base_bank_histogram(n, true).iter().max().unwrap();
            let unskewed = *base_bank_histogram(n, false).iter().max().unwrap();
            assert!(
                skewed <= unskewed,
                "N={n}: skew made bank pressure worse ({skewed} vs {unskewed} bases/bank)"
            );
            assert!(
                skewed <= 2,
                "N={n}: 32 bases must spread over >=16 distinct banks, got {skewed} on one"
            );
        }
    }

    #[test]
    fn skew_clamp_sizes_spread_banks() {
        // SH_32 and up clamp k to 1 (2N >= 64 > warp width): base = lane % N.
        // Unskewed, every lane's base sits on bank 0 (segment stride 2N is a
        // multiple of 32 banks); skewed they pair up two-per-bank.
        for n in [32usize, 64] {
            assert_eq!(*base_bank_histogram(n, false).iter().max().unwrap(), 32);
            assert_eq!(*base_bank_histogram(n, true).iter().max().unwrap(), 2);
            for lane in 0..WARP_SIZE {
                assert_eq!(base_entry_index(lane, n, true) as usize, lane % n);
            }
        }
    }

    #[test]
    fn all_sh_sizes_stay_lifo_with_skew() {
        for n in 1..=64usize {
            let cfg = StackConfig::Sms(SmsParams {
                sh_entries: n,
                ..SmsParams::default().with_skewed(true)
            });
            let mut s = WarpStacks::new(&cfg, 0, 0);
            for lane in [0usize, 17, 31] {
                push_n(&mut s, lane, 3 * n as u32 + 20);
                let popped = pop_all(&mut s, lane);
                assert_eq!(popped, (0..3 * n as u32 + 20).rev().collect::<Vec<u32>>(), "N={n}");
            }
        }
    }

    #[test]
    fn skewed_first_spills_hit_different_entries() {
        let cfg = StackConfig::Sms(SmsParams::default().with_skewed(true));
        let mut s = WarpStacks::new(&cfg, 0, 0);
        let mut addr_of_first_spill = Vec::new();
        for lane in [0usize, 2, 4, 6] {
            let mut stats = SimStats::default();
            let mut ops = Vec::new();
            for i in 0..9 {
                s.push(lane, i, &mut stats, &mut ops);
            }
            let MicroOp { addrs, .. } = ops.last().unwrap();
            // Entry index within the segment = (addr - seg base) / 8.
            let seg_base = (lane as u64) * 8 * 8;
            addr_of_first_spill.push((addrs[0].0 - seg_base) / 8);
        }
        assert_eq!(addr_of_first_spill, vec![0, 1, 2, 3], "skew staggers base entries");
    }

    #[test]
    fn realloc_borrows_idle_stack_instead_of_spilling() {
        let cfg = StackConfig::Sms(SmsParams::default().with_realloc(true));
        let mut s = WarpStacks::new(&cfg, 0, 0);
        // Lane 1 finishes immediately: its SH stack becomes idle.
        s.mark_done(1);
        // Lane 0 pushes past RB+SH capacity.
        let (stats, _) = push_n(&mut s, 0, 17);
        assert_eq!(stats.ra_borrows, 1, "borrowed lane 1's stack");
        assert_eq!(stats.sh_spills, 0, "no global spill needed");
        assert_eq!(s.global_len(0), 0);
        assert_eq!(s.chain_len(0), 2);
    }

    #[test]
    fn realloc_flushes_when_no_idle_stack() {
        let cfg = StackConfig::Sms(SmsParams::default().with_realloc(true));
        let mut s = WarpStacks::new(&cfg, 0, 0);
        // No lane is done: pushing past 16 forces a flush of the bottom stack.
        let (stats, ops) = push_n(&mut s, 0, 17);
        assert_eq!(stats.ra_borrows, 0);
        assert_eq!(stats.ra_flushes, 1);
        assert_eq!(stats.sh_spills, 8, "whole 8-entry stack flushed");
        assert_eq!(s.global_len(0), 8);
        // Flush is two burst ops: one shared read of 8 entries, one global
        // write of 8 consecutive spill slots.
        let flush_read = ops.iter().find(|o| o.addrs.len() == 8 && o.kind == AccessKind::Load);
        let flush_write = ops.iter().find(|o| o.addrs.len() == 8 && o.kind == AccessKind::Store);
        assert!(flush_read.is_some() && flush_write.is_some());
        // LIFO still holds.
        let popped = pop_all(&mut s, 0);
        assert_eq!(popped, (0..17).rev().collect::<Vec<u32>>());
    }

    #[test]
    fn armed_stacks_record_their_own_events() {
        let cfg = StackConfig::Sms(SmsParams::default().with_realloc(true));
        let mut s = WarpStacks::new(&cfg, 0, 0);
        s.enable_metrics();
        s.enable_depth_log();
        // No lane is done: the 17th push flushes lane 0's 8-entry SH stack.
        let (stats, _) = push_n(&mut s, 0, 17);
        assert_eq!(pop_all(&mut s, 0).len(), 17);
        s.ray_done(0, 40);
        let record = s.take_record().expect("armed");
        let m = record.metrics.expect("metrics armed");
        assert_eq!(m.depth_at_push.count(), 17);
        assert_eq!((m.flush_runs.count(), m.flush_runs.max()), (stats.ra_flushes, 1));
        assert_eq!((m.ray_spills.sum(), m.ray_reloads.sum()), (8, 8));
        assert_eq!(m.ray_latency.sum(), 40);
        let depths: Vec<u16> = record.depths.expect("log armed").iter().map(|&(_, d)| d).collect();
        assert_eq!(depths, (1..=17).chain((0..17).rev()).collect::<Vec<u16>>());
        assert_eq!(s.take_record(), None, "taken once");
    }

    #[test]
    fn released_borrowed_stack_returns_to_pool() {
        let cfg = StackConfig::Sms(SmsParams::default().with_realloc(true));
        let mut s = WarpStacks::new(&cfg, 0, 0);
        s.mark_done(5);
        push_n(&mut s, 0, 20); // borrows lane 5's stack
        assert_eq!(s.chain_len(0), 2);
        // Pop back down: the borrowed stack empties and is released.
        let mut stats = SimStats::default();
        let mut ops = Vec::new();
        for _ in 0..8 {
            s.pop(0, &mut stats, &mut ops);
        }
        assert_eq!(s.chain_len(0), 1, "borrowed stack released when empty");
        assert!(s.segment_idle(5), "released stack is idle again");
        // Another lane can now borrow it.
        push_n(&mut s, 2, 17);
        assert_eq!(s.chain_len(2), 2);
    }

    #[test]
    fn borrow_limit_respected() {
        let cfg =
            StackConfig::Sms(SmsParams { realloc: true, borrow_limit: 2, ..SmsParams::default() });
        let mut s = WarpStacks::new(&cfg, 0, 0);
        for lane in 1..8 {
            s.mark_done(lane);
        }
        // 8 RB + (1+2) stacks * 8 = 32 entries before flushing starts.
        let (stats, _) = push_n(&mut s, 0, 33);
        assert_eq!(stats.ra_borrows, 2, "borrow limit caps the chain");
        assert_eq!(stats.ra_flushes, 1, "then flushing takes over");
        let popped = pop_all(&mut s, 0);
        assert_eq!(popped.len(), 33);
        assert_eq!(popped[0], 32);
    }

    #[test]
    fn deep_stack_with_realloc_stays_correct() {
        // Worst case of §VI-B: one thread alone pushing far past every
        // capacity; forced flushes keep it correct.
        let cfg = StackConfig::sms_default();
        let mut s = WarpStacks::new(&cfg, 0, 0);
        push_n(&mut s, 0, 200);
        let popped = pop_all(&mut s, 0);
        assert_eq!(popped, (0..200).rev().collect::<Vec<u32>>());
    }

    #[test]
    fn spill_addresses_follow_local_memory_layout() {
        // Warp with tid_base 64 = global warp 2; lanes interleave by 8B.
        let mut s = WarpStacks::new(&StackConfig::baseline8(), 0, 64);
        let mut stats = SimStats::default();
        let (mut o0, mut o1) = (Vec::new(), Vec::new());
        for i in 0..9 {
            s.push(0, i, &mut stats, &mut o0);
            s.push(1, i, &mut stats, &mut o1);
        }
        let a0 = o0[0].addrs[0].0;
        let a1 = o1[0].addrs[0].0;
        assert_eq!(a0, sms_mem::SPILL_BASE_ADDR + 2 * sms_mem::SPILL_REGION_BYTES);
        assert_eq!(a1 - a0, 8, "adjacent lanes at the same slot are 8B apart");
        // The same lane's next spill slot is a warp-width stride away.
        let mut o0b = Vec::new();
        s.push(0, 9, &mut stats, &mut o0b);
        assert_eq!(o0b[0].addrs[0].0 - a0, 32 * 8);
    }

    #[test]
    fn labels_render() {
        assert_eq!(StackConfig::baseline8().label(), "RB_8");
        assert_eq!(StackConfig::FullOnChip.label(), "RB_FULL");
        assert_eq!(StackConfig::sms_default().label(), "RB_8+SH_8+SK+RA");
        assert_eq!(
            StackConfig::Sms(SmsParams::default().with_skewed(true)).label(),
            "RB_8+SH_8+SK"
        );
        assert_eq!(StackConfig::stackless().label(), "SL");
        assert_eq!(StackConfig::predictor_default().label(), "PRED_12");
        assert_eq!(StackConfig::Predictor { table_bits: 8 }.label(), "PRED_8");
    }

    #[test]
    fn competitor_configs_carve_no_shared_memory() {
        assert_eq!(StackConfig::stackless().shared_carveout(4), 0);
        assert_eq!(StackConfig::predictor_default().shared_carveout(4), 0);
        assert_eq!(StackConfig::stackless().rb_capacity(), 0);
        assert_eq!(StackConfig::predictor_default().rb_capacity(), 8);
        assert!(StackConfig::baseline8().preserves_traversal_work());
        assert!(StackConfig::sms_default().preserves_traversal_work());
        assert!(!StackConfig::stackless().preserves_traversal_work());
        assert!(!StackConfig::predictor_default().preserves_traversal_work());
    }

    fn sh(sh_entries: usize) -> StackConfig {
        StackConfig::Sms(SmsParams { sh_entries, ..SmsParams::default() })
    }

    #[test]
    fn sh_sizes_are_bounded_not_truncated() {
        // The largest SH level the per-thread fields index: byte counts in
        // u64, never wrapped.
        let largest = sh(u32::MAX as usize);
        assert_eq!(largest.shared_bytes_per_warp(), 32 * 8 * u64::from(u32::MAX));
        assert_eq!(largest.shared_carveout(usize::MAX), u64::MAX, "saturates");
        assert_eq!(sh(0).sh_level(), None, "SH_0 has no SH level");
        assert_eq!(sh(0).shared_bytes_per_warp(), 0);
    }

    #[test]
    #[should_panic(expected = "SH_4294967296 is larger than an SH stack can index")]
    fn oversized_sh_level_is_refused() {
        let _ = WarpStacks::new(&sh(u32::MAX as usize + 1), 0, 0);
    }

    #[test]
    fn shared_carveout_matches_paper() {
        // 4 warps x 32 threads x 8 entries x 8B = 8KB (paper §IV-B).
        assert_eq!(StackConfig::sms_default().shared_carveout(4), 8 * 1024);
        assert_eq!(StackConfig::baseline8().shared_carveout(4), 0);
    }

    #[test]
    fn validator_clean_on_legitimate_traffic() {
        for cfg in [
            StackConfig::baseline8(),
            StackConfig::FullOnChip,
            StackConfig::Sms(SmsParams::default()),
            StackConfig::sms_default(),
        ] {
            let mut s = WarpStacks::new(&cfg, 0, 0);
            s.enable_validator();
            for lane in [0, 3, 31] {
                push_n(&mut s, lane, 150);
                let popped = pop_all(&mut s, lane);
                assert_eq!(popped, (0..150).rev().collect::<Vec<u32>>());
                s.mark_done(lane);
            }
            assert_eq!(s.take_violation(), None, "{cfg}: clean run must not trip validation");
        }
    }

    #[test]
    fn validator_is_pure_observation() {
        let cfg = StackConfig::sms_default();
        let mut plain = WarpStacks::new(&cfg, 0, 0);
        let mut watched = WarpStacks::new(&cfg, 0, 0);
        watched.enable_validator();
        let mut stats_p = SimStats::default();
        let mut stats_w = SimStats::default();
        let (mut ops_p, mut ops_w) = (Vec::new(), Vec::new());
        for i in 0..120 {
            plain.push(2, i, &mut stats_p, &mut ops_p);
            watched.push(2, i, &mut stats_w, &mut ops_w);
        }
        while !plain.is_empty(2) {
            assert_eq!(
                plain.pop(2, &mut stats_p, &mut ops_p),
                watched.pop(2, &mut stats_w, &mut ops_w)
            );
        }
        assert_eq!(stats_p, stats_w, "validator must not change any counter");
        assert_eq!(ops_p, ops_w, "validator must not change emitted micro-ops");
        assert_eq!(watched.take_violation(), None);
    }

    #[test]
    fn validator_catches_lifo_tamper() {
        let mut s = WarpStacks::new(&StackConfig::sms_default(), 0, 0);
        s.enable_validator();
        push_n(&mut s, 3, 6);
        // Corrupt the RB top behind the validator's back; the next pop
        // returns the tampered value.
        *s.rb[3].last_mut().unwrap() = 999;
        let mut stats = SimStats::default();
        let mut ops = Vec::new();
        assert_eq!(s.pop(3, &mut stats, &mut ops), 999);
        let v = s.take_violation().expect("tampered pop must be flagged");
        assert_eq!(v.kind, ViolationKind::LifoOrder);
        assert_eq!(v.lane, 3);
    }

    #[test]
    fn validator_catches_conservation_tamper() {
        let mut s = WarpStacks::new(&StackConfig::sms_default(), 0, 0);
        s.enable_validator();
        push_n(&mut s, 0, 4);
        // Smuggle in an entry that no push accounted for.
        s.rb[0].insert(0, 77);
        let mut stats = SimStats::default();
        let mut ops = Vec::new();
        s.push(0, 4, &mut stats, &mut ops);
        let v = s.take_violation().expect("unaccounted entry must be flagged");
        assert_eq!(v.kind, ViolationKind::Conservation);
    }

    #[test]
    fn validator_catches_idle_tamper() {
        let mut s = WarpStacks::new(&StackConfig::sms_default(), 0, 0);
        s.enable_validator();
        // 12 pushes overflow the 8-entry RB into lane 0's SH stack.
        push_n(&mut s, 0, 12);
        assert!(s.segment_len(0) > 0);
        // Mark the populated stack borrowable: idle stacks must be empty.
        s.sh.as_mut().unwrap().segs[0].idle = true;
        let mut stats = SimStats::default();
        let mut ops = Vec::new();
        s.push(0, 12, &mut stats, &mut ops);
        let v = s.take_violation().expect("populated idle stack must be flagged");
        assert_eq!(v.kind, ViolationKind::IdleState);
    }

    #[test]
    fn validator_catches_premature_mark_done() {
        let mut s = WarpStacks::new(&StackConfig::sms_default(), 0, 0);
        s.enable_validator();
        push_n(&mut s, 5, 3);
        s.mark_done(5);
        let v = s.take_violation().expect("done with live entries must be flagged");
        assert_eq!(v.kind, ViolationKind::Conservation);
        assert_eq!(v.lane, 5);
    }
}
