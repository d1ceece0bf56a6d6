//! Output checking: digests of what the program computed, compared with
//! `golden/seed7.json` at seed 7 and with each other at any seed.

use crate::json::{self, num, text, Json};
use sms_sim::gpu::SimStats;
use sms_sim::render::RenderOutput;
use std::collections::BTreeMap;
use std::path::Path;

/// The seed the goldens were recorded at (`RenderConfig`'s own default,
/// and the only seed the wire protocol's `fast`/`tiny` carry).
pub const GOLDEN_SEED: u64 = 7;

/// FNV-1a over 64-bit words, rendered as 16 hex digits.
fn fnv64(words: impl IntoIterator<Item = u64>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The `SimStats` fields a cell digest covers, in this order. Explicit so
/// that a field added to `SimStats` later does not silently change every
/// golden (it is not covered until listed here and the goldens re-blessed).
pub fn stats_fields(s: &SimStats) -> [u64; 24] {
    let m = &s.mem;
    [
        s.cycles,
        s.thread_instructions,
        s.node_visits,
        s.rays_traced,
        s.shadow_rays,
        s.rb_spills,
        s.rb_reloads,
        s.sh_spills,
        s.sh_reloads,
        s.ra_flushes,
        s.ra_borrows,
        s.pred_hits,
        s.pred_misses,
        m.l1_hits,
        m.l1_misses,
        m.l2_hits,
        m.l2_misses,
        m.stores,
        m.stack_transactions,
        m.stack_l1_hits,
        m.stack_l1_misses,
        m.data_transactions,
        m.shared_accesses,
        m.bank_conflict_cycles,
    ]
}

pub fn stats_digest(s: &SimStats) -> String {
    fnv64(stats_fields(s))
}

/// Image bits, dimensions, ray counts and the depth histogram's shape.
pub fn render_digest(out: &RenderOutput) -> String {
    let header = [
        u64::from(out.width),
        u64::from(out.height),
        out.rays,
        out.shadow_rays,
        out.depths.count(),
        out.depths.max(),
        out.depths.quantile(0.5),
        out.depths.quantile(0.99),
    ];
    let pixels =
        out.image.iter().flat_map(|p| [p.x, p.y, p.z]).map(|channel| u64::from(channel.to_bits()));
    fnv64(header.into_iter().chain(pixels))
}

/// Digests and exact counts, keyed by name. The same type holds the
/// committed goldens and what a run observed (for `--bless`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Golden {
    /// `"<render>/<SCENE>/<CONFIG>"` or `"<render>/<builder>/<SCENE>"` → digest.
    pub digests: BTreeMap<String, String>,
    /// `"<workload>/<metric>"` → exact value of one pass.
    pub counts: BTreeMap<String, f64>,
}

impl Golden {
    pub fn load(path: &Path) -> Result<Golden, String> {
        Golden::from_json(&json::read_file(path)?).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn from_json(doc: &Json) -> Result<Golden, String> {
        let mut golden = Golden::default();
        for (k, v) in doc.get("digests").map(Json::as_obj).unwrap_or_default() {
            let digest = v.as_str().ok_or_else(|| format!("digest `{k}` is not a string"))?;
            golden.digests.insert(k.clone(), digest.to_owned());
        }
        for (k, v) in doc.get("counts").map(Json::as_obj).unwrap_or_default() {
            let count = v.as_f64().ok_or_else(|| format!("count `{k}` is not a number"))?;
            golden.counts.insert(k.clone(), count);
        }
        Ok(golden)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".to_owned(), num(GOLDEN_SEED as f64)),
            (
                "digests".to_owned(),
                Json::Obj(
                    self.digests.iter().map(|(k, v)| (k.clone(), text(v.as_str()))).collect(),
                ),
            ),
            (
                "counts".to_owned(),
                Json::Obj(self.counts.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
            ),
        ])
    }

    /// Adds `other`'s entries, replacing entries of the same name.
    pub fn merge(&mut self, other: &Golden) {
        self.digests.extend(other.digests.iter().map(|(k, v)| (k.clone(), v.clone())));
        self.counts.extend(other.counts.iter().map(|(k, v)| (k.clone(), *v)));
    }
}

/// Collects what a workload observed and counts operations and failures.
#[derive(Debug, Default)]
pub struct Checker {
    /// The committed goldens to compare with, when they apply (seed 7, or
    /// records served over the wire, which always are seed 7).
    pub golden: Option<Golden>,
    pub observed: Golden,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure diagnostics, for the report.
    pub failures: Vec<String>,
}

impl Checker {
    pub fn new(golden: Option<Golden>) -> Checker {
        Checker { golden, ..Checker::default() }
    }

    /// Counts one operation; `ok == false` also counts it as failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Checks one digest: every repetition must reproduce the first
    /// observation, and the first observation must match the golden when
    /// `pinned` (the goldens apply to this key at this seed).
    pub fn digest(&mut self, key: &str, digest: String, pinned: bool) -> bool {
        if let Some(first) = self.observed.digests.get(key) {
            return *first == digest;
        }
        let ok = match self.golden.as_ref().filter(|_| pinned) {
            Some(golden) => golden.digests.get(key) == Some(&digest),
            None => true,
        };
        self.observed.digests.insert(key.to_owned(), digest);
        ok
    }

    /// Records an exact per-pass count and checks it against the golden.
    pub fn count(&mut self, workload: &str, metric: &str, value: f64, pinned: bool) {
        let key = format!("{workload}/{metric}");
        if let Some(golden) = self.golden.as_ref().filter(|_| pinned) {
            if golden.counts.get(&key).map(|g| g.to_bits()) != Some(value.to_bits()) {
                let want = golden.counts.get(&key).map_or("absent".to_owned(), |g| g.to_string());
                self.fail(format!("{key}: exact count {value} differs from golden {want}"));
            }
        }
        self.observed.counts.insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_every_listed_field() {
        let base = SimStats::default();
        let d0 = stats_digest(&base);
        assert_eq!(d0.len(), 16);
        let mut cycles = base;
        cycles.cycles = 1;
        let mut banks = base;
        banks.mem.bank_conflict_cycles = 1;
        assert_ne!(stats_digest(&cycles), d0);
        assert_ne!(stats_digest(&banks), d0);
        assert_ne!(stats_digest(&cycles), stats_digest(&banks));
    }

    #[test]
    fn checker_pins_first_observation_and_compares_repeats() {
        let mut golden = Golden::default();
        golden.digests.insert("fast/SHIP/RB_8".to_owned(), "aa".to_owned());
        let mut c = Checker::new(Some(golden));
        assert!(c.digest("fast/SHIP/RB_8", "aa".to_owned(), true));
        assert!(c.digest("fast/SHIP/RB_8", "aa".to_owned(), true));
        assert!(
            !c.digest("fast/SHIP/RB_8", "bb".to_owned(), true),
            "a repeat must match the first"
        );
        assert!(!c.digest("fast/WKND/RB_8", "cc".to_owned(), true), "absent from the golden");
        assert!(c.digest("fast/REF/RB_8", "dd".to_owned(), false), "not pinned at this seed");
    }

    #[test]
    fn counts_compare_bit_for_bit() {
        let mut golden = Golden::default();
        golden.counts.insert("sim_fast/sim.cycles".to_owned(), 10.0);
        let mut c = Checker::new(Some(golden));
        c.count("sim_fast", "sim.cycles", 10.0, true);
        assert_eq!(c.failed, 0);
        c.count("sim_fast", "sim.cycles", 11.0, true);
        c.count("sim_fast", "sim.unknown", 1.0, true);
        assert_eq!(c.failed, 2);
        c.count("sim_fast", "sim.cycles", 12.0, false);
        assert_eq!(c.failed, 2);
    }

    #[test]
    fn golden_round_trips_through_json() {
        let mut g = Golden::default();
        g.digests.insert("a/b/c".to_owned(), "0123456789abcdef".to_owned());
        g.counts.insert("w/m".to_owned(), 0.30000000000000004);
        let doc = json::parse(&g.to_json().pretty()).unwrap();
        assert_eq!(Golden::from_json(&doc).unwrap(), g);
        assert!(Golden::from_json(&json::parse("{\"digests\":{\"k\":1}}").unwrap()).is_err());
    }
}
