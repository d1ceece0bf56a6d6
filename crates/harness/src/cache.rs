//! Content-addressed on-disk result cache.
//!
//! One `(scene, stack, gpu, render)` request is keyed by the FNV-1a hash of
//! a canonical description string that includes [`SIM_VERSION_SALT`]; the
//! cached value is the run's [`SimStats`] serialized as JSON. Entries never
//! expire — bumping the salt when the simulator's timing model changes is
//! what invalidates stale results (every key, and therefore every entry
//! path, changes).
//!
//! The cache is strictly best-effort: any read problem (missing file,
//! truncated JSON, schema drift, hash collision) is a miss that falls back
//! to re-simulation, and write failures are ignored.
//!
//! Concurrent harness instances may share one cache directory. Entries are
//! written to a per-process-and-thread temp name and renamed into place, so
//! racing writers of the same key both succeed (POSIX rename replaces
//! atomically — and since the same key always holds the same bytes, "last
//! writer wins" and "first writer wins" are indistinguishable). Transient
//! I/O errors are retried with exponential backoff ([`DEFAULT_RETRIES`]
//! times); a persistently unwritable directory (read-only mount, full disk)
//! degrades the cache to a no-op with a single warning instead of a crash.
//!
//! The second half of this file is the JSON codec for the counter records
//! (entry `stats`, journal payloads): one `encode`, which writes a record
//! straight into the caller's buffer (or into the entry checksum), and one
//! `decode`, which reads the fields in the order `encode` wrote them, over
//! field lists that are each written exactly once.

use crate::faultinject::{CacheFault, FaultPlan};
use crate::json::{parse, write_str, write_u64, Fields, Json, Object, Sink};
use crate::RunRequest;
use sms_sim::gpu::{GpuConfig, SimStats};
use sms_sim::mem::MemStats;
use sms_sim::RenderConfig;
use std::fmt::Write as _;
use std::fs;
use std::io::{ErrorKind, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use sms_sim::geom::golden::fnv1a64;
use sms_sim::geom::golden::{fnv1a64_extend, FNV_OFFSET};

/// Bump on any change to the cycle model that alters simulation results:
/// all previously cached entries become unreachable (stale keys).
pub const SIM_VERSION_SALT: u32 = 1;

/// A request's identity in the cache: the canonical description and its
/// 64-bit FNV-1a hash (the entry's file name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// The full canonical description (stored in the entry and verified on
    /// load, so a hash collision degrades to a miss instead of corruption).
    pub canonical: String,
    /// `fnv1a64(canonical)`.
    pub hash: u64,
}

impl CacheKey {
    /// `req`'s key under `salt` ([`SIM_VERSION_SALT`] wherever no cache
    /// with a salt of its own is involved).
    pub fn new(req: &RunRequest, salt: u32) -> CacheKey {
        CacheKey::with_tail(req, salt, &mut KeyTail::default())
    }

    /// [`CacheKey::new`], byte for byte, formatting `req`'s
    /// `|gpu=…|render=…` tail into `tail` only when `tail` holds another
    /// GPU or render configuration's. That tail is most of the canonical
    /// string and the same for every cell of a sweep, so a sweep that
    /// keys its cells through one `KeyTail` formats it once.
    pub fn with_tail(req: &RunRequest, salt: u32, tail: &mut KeyTail) -> CacheKey {
        let tail = tail.of(req);
        let mut canonical = String::with_capacity(64 + tail.len());
        // Writing into a `String` cannot fail.
        let _ = write!(
            canonical,
            "sms-sim salt={salt}|scene={}|stack={:?}",
            req.scene.name(),
            req.stack
        );
        canonical.push_str(tail);
        CacheKey { hash: fnv1a64(canonical.as_bytes()), canonical }
    }
}

/// The `|gpu=…|render=…` end of a canonical key, kept with the GPU and
/// render configuration it was formatted from (see [`CacheKey::with_tail`]).
#[derive(Debug, Default)]
pub struct KeyTail {
    of: Option<(GpuConfig, RenderConfig)>,
    text: String,
}

impl KeyTail {
    /// `req`'s tail, formatted unless it is the one already held.
    fn of(&mut self, req: &RunRequest) -> &str {
        if self.of != Some((req.gpu, req.render)) {
            self.text.clear();
            let _ = write!(self.text, "|gpu={:?}|render={:?}", req.gpu, req.render);
            self.of = Some((req.gpu, req.render));
        }
        &self.text
    }
}

/// Bounded-retry count for transient cache I/O, on every tier.
pub const DEFAULT_RETRIES: u32 = 2;

/// Runs `op` up to `1 + DEFAULT_RETRIES` times with exponential backoff,
/// returning the first success or the last attempt's error. `Ok(None)`
/// means "definitive miss" and is returned immediately (no retry).
fn with_retry<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut delay = Duration::from_millis(5);
    for _ in 0..DEFAULT_RETRIES {
        if let Ok(v) = op() {
            return Ok(v);
        }
        std::thread::sleep(delay);
        delay *= 2;
    }
    op()
}

/// Shared degradation state: once the directory proves unusable, every
/// clone of the cache (workers hold clones) goes quiet together and the
/// warning prints exactly once per harness.
#[derive(Debug, Default)]
struct Degrade {
    disabled: AtomicBool,
    warned: AtomicBool,
    corrupt_warned: AtomicBool,
}

/// The on-disk cache at one directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    salt: u32,
    degrade: Arc<Degrade>,
    faults: Option<Arc<FaultPlan>>,
}

impl ResultCache {
    /// A cache rooted at `dir` using the current [`SIM_VERSION_SALT`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache::with_salt(dir, SIM_VERSION_SALT)
    }

    /// A cache with an explicit salt — for tests and for migration tooling
    /// that needs to inspect entries written by an older simulator version.
    pub fn with_salt(dir: impl Into<PathBuf>, salt: u32) -> Self {
        ResultCache { dir: dir.into(), salt, degrade: Arc::new(Degrade::default()), faults: None }
    }

    /// Attaches a fault-injection plan that may truncate or corrupt entries
    /// as they are written (chaos testing only; `None` is a strict no-op).
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `true` once the cache has degraded to a no-op (unusable directory).
    pub fn is_degraded(&self) -> bool {
        self.degrade.disabled.load(Ordering::Relaxed)
    }

    /// Disables the cache, warning once across all clones.
    fn degrade(&self, why: &std::io::Error) {
        self.degrade.disabled.store(true, Ordering::Relaxed);
        if !self.degrade.warned.swap(true, Ordering::Relaxed) {
            crate::log::warn(
                "cache",
                &format!(
                    "result cache at {} is unusable ({why}); continuing without a cache",
                    self.dir.display()
                ),
                &[],
            );
        }
    }

    /// Computes the request's cache key under this cache's salt.
    pub fn key(&self, req: &RunRequest) -> CacheKey {
        CacheKey::new(req, self.salt)
    }

    /// The salt every key of this cache is made under.
    pub fn salt(&self) -> u32 {
        self.salt
    }

    /// The path an entry for `key` lives at.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{:016x}.json", key.hash))
    }

    /// Loads a cached result; `None` on miss or on any malformed entry.
    /// Transient read errors are retried; persistent ones are misses.
    ///
    /// A *corrupt* entry (unparseable, missing fields, or failing its
    /// checksum) is distinguished from a plain miss (different salt, hash
    /// collision): corruption warns once per cache and deletes the file so
    /// the next store self-heals it. Entries written before checksums were
    /// introduced carry no `sum` field and still load.
    pub fn load(&self, key: &CacheKey) -> Option<SimStats> {
        if self.is_degraded() {
            return None;
        }
        let path = self.entry_path(key);
        let bytes = with_retry(|| match read_entry(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        })
        .ok()
        .flatten()?;
        // Bytes that are not UTF-8 are damage, not a transient read error.
        let loaded = match std::str::from_utf8(&bytes) {
            Ok(text) => self.validate_entry(key, text),
            Err(_) => Loaded::Corrupt("not UTF-8"),
        };
        match loaded {
            Loaded::Hit(stats) => Some(*stats),
            Loaded::Miss => None,
            Loaded::Corrupt(why) => {
                self.quarantine(&path, why);
                None
            }
        }
    }

    /// Classifies one entry's text against `key`.
    fn validate_entry(&self, key: &CacheKey, text: &str) -> Loaded {
        let Ok(doc) = parse(text) else {
            return Loaded::Corrupt("unparseable JSON (torn write?)");
        };
        // In the order `store` writes them.
        let mut fields = Fields::new(&doc);
        let Some(salt) = fields.get("salt").and_then(Json::as_u64) else {
            return Loaded::Corrupt("missing or mistyped `salt` field");
        };
        if salt != self.salt as u64 {
            return Loaded::Miss; // stale simulator version, not damage
        }
        let Some(canonical) = fields.get("key").and_then(Json::as_str) else {
            return Loaded::Corrupt("missing or mistyped `key` field");
        };
        if canonical != key.canonical {
            // The entry sits at the path this key hashes to, yet declares a
            // different key: a genuine 64-bit FNV collision is astronomically
            // less likely than bit rot in the key string, and deleting a
            // colliding entry costs only a re-simulation — so quarantine.
            return Loaded::Corrupt("key mismatch (bit rot, or a 1-in-2^64 hash collision)");
        }
        let sum = fields.get("sum");
        let Some(stats_doc) = fields.get("stats") else {
            return Loaded::Corrupt("missing `stats` object");
        };
        let Some(stats) = stats_from_json(stats_doc) else {
            return Loaded::Corrupt("malformed `stats` object");
        };
        // Entries predating checksums (no `sum`) are trusted as before;
        // anything written going forward must verify.
        if let Some(sum) = sum {
            let Some(sum) = sum.as_str() else {
                return Loaded::Corrupt("mistyped `sum` field");
            };
            if sum != entry_checksum(&key.canonical, &stats) {
                return Loaded::Corrupt("checksum mismatch");
            }
        }
        Loaded::Hit(Box::new(stats))
    }

    /// Deletes a corrupt entry so re-simulation's store self-heals it,
    /// warning once per cache (shared across clones, like degradation).
    fn quarantine(&self, path: &Path, why: &str) {
        if !self.degrade.corrupt_warned.swap(true, Ordering::Relaxed) {
            crate::log::warn(
                "cache",
                &format!(
                    "corrupt result cache entry {} ({why}); deleting it and re-simulating",
                    path.display()
                ),
                &[],
            );
        }
        let _ = fs::remove_file(path);
    }

    /// Stores a result, best-effort (errors are swallowed: a cold cache is
    /// always correct, just slower). A persistently unwritable directory
    /// degrades the whole cache to a no-op with one warning.
    pub fn store(&self, key: &CacheKey, stats: &SimStats) {
        if self.is_degraded() {
            return;
        }
        if let Err(e) = with_retry(|| fs::create_dir_all(&self.dir)) {
            self.degrade(&e);
            return;
        }
        // Write-then-rename so concurrent writers of the same entry (e.g.
        // two bench harnesses) can never expose a half-written file. The
        // temp name is unique per process *and* store call, so racing
        // writers never clobber each other's in-progress file.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{:016x}.tmp{}.{}",
            key.hash,
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut body = String::new();
        let mut entry = Object::new(&mut body);
        entry.u64("salt", self.salt as u64).str("key", &key.canonical);
        entry.str("sum", &entry_checksum(&key.canonical, stats));
        write_stats(entry.key("stats"), stats);
        entry.end();
        if let Some(fault) = self.faults.as_ref().and_then(|f| f.cache_write_fault()) {
            apply_cache_fault(&mut body, fault);
        }
        let entry = self.entry_path(key);
        let result = with_retry(|| {
            fs::write(&tmp, &body)?;
            match fs::rename(&tmp, &entry) {
                Ok(()) => Ok(()),
                // A racing writer may have won the rename; one key always
                // serializes to the same bytes, so an existing entry means
                // the store already succeeded — just drop our temp file.
                Err(_) if entry.exists() => {
                    let _ = fs::remove_file(&tmp);
                    Ok(())
                }
                Err(e) => Err(e),
            }
        });
        if let Err(e) = result {
            let _ = fs::remove_file(&tmp);
            self.degrade(&e);
        }
    }
}

/// Room for a whole entry in one read: entries are about 1.3 KiB.
const ENTRY_READ: usize = 4096;

/// An entry's bytes in one open and, for any entry under [`ENTRY_READ`]
/// bytes, one read, without asking for the file's size: a read of a
/// regular file returns less than it asked for only at the end. (Were one
/// ever short before it, the entry would fail to parse and be simulated
/// again: a miss, never a wrong result.)
fn read_entry(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut file = fs::File::open(path)?;
    let mut bytes = vec![0; ENTRY_READ];
    let n = loop {
        match file.read(&mut bytes) {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            read => break read?,
        }
    };
    bytes.truncate(n);
    if n == ENTRY_READ {
        file.read_to_end(&mut bytes)?;
    }
    Ok(bytes)
}

/// Outcome of validating one on-disk entry.
enum Loaded {
    /// Entry is intact and matches the key (boxed: `SimStats` is large).
    Hit(Box<SimStats>),
    /// Entry is intact but for a different salt or key — leave it alone.
    Miss,
    /// Entry is damaged; delete it so it self-heals on the next store.
    Corrupt(&'static str),
}

/// Checksum stored in each entry's `sum` field: FNV-1a over the canonical
/// key, `|` and the deterministic stats serialization, rendered as 16 hex
/// digits. Catches bit rot that still parses as valid JSON. The stats are
/// hashed as they are written, never held as text.
pub fn entry_checksum(canonical: &str, stats: &SimStats) -> String {
    let mut sum = Fnv(FNV_OFFSET);
    sum.put(canonical);
    sum.put("|");
    write_stats(&mut sum, stats);
    format!("{:016x}", sum.0)
}

/// FNV-1a as a writer's sink: the state after the bytes put so far.
struct Fnv(u64);

impl Sink for Fnv {
    fn put(&mut self, s: &str) {
        self.0 = fnv1a64_extend(self.0, s.as_bytes());
    }
}

/// Damages an entry body in place per the injected fault. The body is
/// ASCII JSON, so byte-level surgery cannot split a UTF-8 sequence.
fn apply_cache_fault(body: &mut String, fault: CacheFault) {
    match fault {
        CacheFault::Truncate => {
            body.truncate(body.len() / 2);
        }
        CacheFault::Corrupt => {
            // Stomp a run of bytes in the middle; lands inside the entry
            // and reliably breaks either the JSON or the checksum.
            let mid = body.len() / 2;
            let end = (mid + 8).min(body.len());
            // SAFETY-free: replace_range keeps the string valid UTF-8.
            body.replace_range(mid..end, &"X".repeat(end - mid));
        }
    }
}

/// Where one named field of a record lives. A record's field list is
/// written once, as its slots in wire order: [`encode`] reads through them
/// and [`decode`] writes through them, so the two directions cannot drift.
enum Slot<'a> {
    /// A required counter.
    U64(&'a mut u64),
    /// A counter that may be absent; decoding then leaves the slot as is.
    Opt(&'a mut u64),
    /// A required string.
    Str(&'a mut String),
    /// A nested record.
    Obj(Slots<'a>),
}

type Slots<'a> = Vec<(&'static str, Slot<'a>)>;

/// The one encoder: an object with one key per slot, in slot order,
/// written into `out`.
fn encode<S: Sink + ?Sized>(out: &mut S, slots: Slots<'_>) {
    let mut obj = Object::new(out);
    for (name, slot) in slots {
        match slot {
            Slot::U64(v) | Slot::Opt(v) => write_u64(obj.key(name), *v),
            Slot::Str(s) => write_str(obj.key(name), s),
            Slot::Obj(inner) => encode(obj.key(name), inner),
        }
    }
    obj.end();
}

/// The one decoder: fills every slot from `doc`; `None` if a required
/// field is missing or mistyped. It reads the fields with a cursor, so a
/// document in `encode`'s order decodes in one pass over its pairs; any
/// other order, or a duplicated key, decodes as [`Json::get`] reads it.
fn decode(doc: &Json, slots: Slots<'_>) -> Option<()> {
    let mut fields = Fields::new(doc);
    for (name, slot) in slots {
        let field = fields.get(name);
        match slot {
            Slot::U64(out) => *out = field?.as_u64()?,
            Slot::Opt(out) => *out = field.and_then(Json::as_u64).unwrap_or(*out),
            Slot::Str(out) => field?.as_str()?.clone_into(out),
            Slot::Obj(inner) => decode(field?, inner)?,
        }
    }
    Some(())
}

/// The slots of a `counter_record!` record: its `FIELDS` over its values.
fn flat<'a, const N: usize>(names: &[&'static str; N], values: &'a mut [u64; N]) -> Slots<'a> {
    names.iter().copied().zip(values.iter_mut().map(Slot::U64)).collect()
}

/// Writes a flat `counter_record!` record (`StallBreakdown` in the
/// journal) from its `FIELDS` and `values()`.
pub fn write_record<const N: usize>(
    out: &mut String,
    names: &[&'static str; N],
    mut values: [u64; N],
) {
    encode(out, flat(names, &mut values));
}

/// Deserializes a flat record into the argument of its `from_values`;
/// `None` if any declared field is missing or mistyped.
pub fn record_from_json<const N: usize>(doc: &Json, names: &[&'static str; N]) -> Option<[u64; N]> {
    let mut values = [0; N];
    decode(doc, flat(names, &mut values))?;
    Some(values)
}

/// The predictor counters postdate the entry format: they are emitted only
/// when one of them is set, so configurations that never probe produce
/// entries byte-identical to those written before the counters existed (no
/// salt bump), and an entry without them decodes as zero, not as malformed.
const PRED: [&str; 2] = ["pred_hits", "pred_misses"];

/// `SimStats` on the wire: its scalar counters, then `mem` nested.
fn stats_slots<'a>(
    scalars: &'a mut [u64; SimStats::FIELDS.len()],
    mem: &'a mut [u64; MemStats::FIELDS.len()],
) -> Slots<'a> {
    let slot = |(&name, v)| (name, if PRED.contains(&name) { Slot::Opt(v) } else { Slot::U64(v) });
    let mut slots: Slots<'a> = SimStats::FIELDS.iter().zip(scalars).map(slot).collect();
    slots.push(("mem", Slot::Obj(flat(&MemStats::FIELDS, mem))));
    slots
}

/// Writes the full counter set (the cache entry's `stats`, the journal's
/// `job_finished` payload) into `out`: a buffer, or the entry checksum.
pub fn write_stats<S: Sink + ?Sized>(out: &mut S, s: &SimStats) {
    let (mut scalars, mut mem) = (s.values(), s.mem.values());
    let mut slots = stats_slots(&mut scalars, &mut mem);
    if s.pred_hits == 0 && s.pred_misses == 0 {
        slots.retain(|(_, slot)| !matches!(slot, Slot::Opt(_)));
    }
    encode(out, slots);
}

/// The full counter set as JSON text ([`write_stats`] into a new string).
pub fn stats_json(s: &SimStats) -> String {
    let mut out = String::new();
    write_stats(&mut out, s);
    out
}

/// Deserializes a counter set; `None` if any field is missing or mistyped.
pub fn stats_from_json(doc: &Json) -> Option<SimStats> {
    let (mut scalars, mut mem) = ([0; SimStats::FIELDS.len()], [0; MemStats::FIELDS.len()]);
    decode(doc, stats_slots(&mut scalars, &mut mem))?;
    Some(SimStats { mem: MemStats::from_values(mem), ..SimStats::from_values(scalars) })
}

/// `HistSummary` is declared in `sms-metrics`, a leaf crate with no path
/// to `counter_record!`, so its field list is written here instead.
fn hist_slots(h: &mut sms_metrics::HistSummary) -> Slots<'_> {
    vec![
        ("count", Slot::U64(&mut h.count)),
        ("sum", Slot::U64(&mut h.sum)),
        ("p50", Slot::U64(&mut h.p50)),
        ("p95", Slot::U64(&mut h.p95)),
        ("p99", Slot::U64(&mut h.p99)),
        ("max", Slot::U64(&mut h.max)),
    ]
}

/// `BatchMetrics` on the wire: nested digests first, so not a flat record.
fn metrics_slots(m: &mut crate::BatchMetrics) -> Slots<'_> {
    vec![
        ("stack_depth", Slot::Obj(hist_slots(&mut m.stack_depth))),
        ("ray_latency", Slot::Obj(hist_slots(&mut m.ray_latency))),
        ("spills", Slot::U64(&mut m.spills)),
        ("reloads", Slot::U64(&mut m.reloads)),
    ]
}

/// `SceneBuild` on the wire: a name beside its counters.
fn build_slots(b: &mut crate::SceneBuild) -> Slots<'_> {
    vec![
        ("scene", Slot::Str(&mut b.scene)),
        ("prims", Slot::U64(&mut b.prims)),
        ("build_us", Slot::U64(&mut b.build_us)),
    ]
}

/// Writes a batch metrics digest (journal `batch_end` payload).
pub fn write_metrics(out: &mut String, m: &crate::BatchMetrics) {
    encode(out, metrics_slots(&mut { *m }));
}

/// Deserializes a batch metrics digest; `None` if any field is missing or
/// mistyped.
pub fn metrics_from_json(doc: &Json) -> Option<crate::BatchMetrics> {
    let mut m = crate::BatchMetrics::default();
    decode(doc, metrics_slots(&mut m)).map(|()| m)
}

/// Writes per-scene build records for the journal's `batch_end` line.
pub fn write_builds(out: &mut String, builds: &[crate::SceneBuild]) {
    out.push('[');
    for (i, b) in builds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode(out, build_slots(&mut b.clone()));
    }
    out.push(']');
}

/// Deserializes per-scene build records; `None` if the document is not an
/// array or any entry misses a field.
pub fn builds_from_json(doc: &Json) -> Option<Vec<crate::SceneBuild>> {
    let Json::Arr(items) = doc else {
        return None;
    };
    let build = |item| {
        let mut b = crate::SceneBuild::default();
        decode(item, build_slots(&mut b)).map(|()| b)
    };
    items.iter().map(build).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{BatchMetrics, SceneBuild};
    use sms_sim::gpu::StallBreakdown;
    use std::array::from_fn;

    /// One row of the codec table: a record's encoding with every field
    /// set, and its decoder reduced to "did `doc` decode, and to the same
    /// record?". The two checkers below run against any row.
    struct Row {
        doc: Json,
        decodes_to_sample: Box<Verdict>,
    }

    /// `None`: did not decode. `Some(same)`: decoded, equal to the sample?
    type Verdict = dyn Fn(&Json) -> Option<bool>;

    fn row<T: PartialEq + 'static>(
        sample: T,
        encode: impl Fn(&T) -> String,
        decode: impl Fn(&Json) -> Option<T> + 'static,
    ) -> Row {
        let doc = parse(&encode(&sample)).unwrap();
        Row { doc, decodes_to_sample: Box::new(move |doc| decode(doc).map(|got| got == sample)) }
    }

    /// What `write` puts into an empty buffer.
    fn text(write: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        write(&mut out);
        out
    }

    /// Every sample value is above 2^53 (not representable as `f64`) and
    /// distinct, so a lossy or transposed field cannot round-trip.
    fn big<const N: usize>(salt: u64) -> [u64; N] {
        from_fn(|i| (1 << 53) + 1 + salt + i as u64)
    }

    fn stats_row() -> Row {
        let s = SimStats { mem: MemStats::from_values(big(100)), ..SimStats::from_values(big(0)) };
        row(s, stats_json, stats_from_json)
    }

    fn breakdown_row() -> Row {
        row(
            StallBreakdown::from_values(big(0)),
            |b| text(|out| write_record(out, &StallBreakdown::FIELDS, b.values())),
            |doc| record_from_json(doc, &StallBreakdown::FIELDS).map(StallBreakdown::from_values),
        )
    }

    fn metrics_row() -> Row {
        let hist = |salt| {
            let [count, sum, p50, p95, p99, max] = big(salt);
            sms_metrics::HistSummary { count, sum, p50, p95, p99, max }
        };
        let [spills, reloads] = big(20);
        let m = BatchMetrics { stack_depth: hist(0), ray_latency: hist(10), spills, reloads };
        row(m, |m| text(|out| write_metrics(out, m)), metrics_from_json)
    }

    fn builds_row() -> Row {
        let [prims, build_us] = big(0);
        let builds = vec![
            SceneBuild { scene: "SHIP".to_owned(), prims: 6_321, build_us: 480 },
            SceneBuild { scene: "ROBOT".to_owned(), prims, build_us },
        ];
        row(builds, |b| text(|out| write_builds(out, b)), builds_from_json)
    }

    /// The row survives the text form (where a value above 2^53 would lose
    /// bits if it ever passed through `f64`), not just the document tree.
    fn check_roundtrip(row: &Row) {
        assert_eq!((row.decodes_to_sample)(&row.doc), Some(true));
        let reparsed = parse(&row.doc.to_string()).unwrap();
        assert_eq!((row.decodes_to_sample)(&reparsed), Some(true), "{}", row.doc);
    }

    /// Every document obtained from `doc` by deleting exactly one object
    /// key, at any depth, paired with the deleted key.
    fn without_one_key(doc: &Json) -> Vec<(String, Json)> {
        let mut out = Vec::new();
        match doc {
            Json::Obj(pairs) => {
                for i in 0..pairs.len() {
                    let mut fewer = pairs.clone();
                    let (key, value) = fewer.remove(i);
                    out.push((key, Json::Obj(fewer)));
                    for (key, inner) in without_one_key(&value) {
                        let mut patched = pairs.clone();
                        patched[i].1 = inner;
                        out.push((key, Json::Obj(patched)));
                    }
                }
            }
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    for (key, inner) in without_one_key(item) {
                        let mut patched = items.clone();
                        patched[i] = inner;
                        out.push((key, Json::Arr(patched)));
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// Deleting any single field, nested ones included, makes the document
    /// undecodable; an `optional` one instead decodes to a different
    /// record (the sample's value there is not zero).
    fn check_missing(row: &Row, optional: &[&str]) {
        let cases = without_one_key(&row.doc);
        assert!(!cases.is_empty());
        for (key, doc) in cases {
            let expected = if optional.contains(&key.as_str()) { Some(false) } else { None };
            assert_eq!((row.decodes_to_sample)(&doc), expected, "without `{key}`: {doc}");
        }
    }

    fn keys(doc: &Json) -> Vec<&str> {
        let Json::Obj(pairs) = doc else { panic!("not an object: {doc}") };
        pairs.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn stats_roundtrip() {
        let row = stats_row();
        let mut expected = SimStats::FIELDS.to_vec();
        expected.push("mem");
        assert_eq!(keys(&row.doc), expected);
        assert_eq!(keys(row.doc.get("mem").unwrap()), MemStats::FIELDS);
        check_roundtrip(&row);
    }

    #[test]
    fn missing_field_is_rejected() {
        check_missing(&stats_row(), &PRED);
    }

    #[test]
    fn pred_counters_are_conditional_and_roundtrip() {
        // No predictor activity: the keys are absent, so non-predictor
        // entries stay byte-identical to those written before the counters
        // existed — and absent parses as zero.
        let plain = SimStats { pred_hits: 0, pred_misses: 0, ..SimStats::from_values(big(0)) };
        let doc = parse(&stats_json(&plain)).unwrap();
        assert_eq!(keys(&doc).len(), SimStats::FIELDS.len() - PRED.len() + 1);
        assert!(PRED.iter().all(|name| doc.get(name).is_none()));
        assert_eq!(stats_from_json(&doc), Some(plain));
        // One of the two set: both are emitted, the zero included.
        let hit = SimStats { pred_hits: 5, ..plain };
        let doc = parse(&stats_json(&hit)).unwrap();
        assert_eq!(doc.u64_field("pred_misses"), Some(0));
        assert_eq!(stats_from_json(&doc), Some(hit));
    }

    #[test]
    fn breakdown_roundtrip() {
        let row = breakdown_row();
        assert_eq!(keys(&row.doc), StallBreakdown::FIELDS);
        check_roundtrip(&row);
    }

    #[test]
    fn breakdown_missing_bucket_is_rejected() {
        check_missing(&breakdown_row(), &[]);
    }

    #[test]
    fn metrics_roundtrip() {
        check_roundtrip(&metrics_row());
    }

    #[test]
    fn metrics_missing_field_is_rejected() {
        check_missing(&metrics_row(), &[]);
    }

    #[test]
    fn builds_roundtrip() {
        check_roundtrip(&builds_row());
        assert_eq!(text(|out| write_builds(out, &[])), "[]");
        assert_eq!(builds_from_json(&Json::Arr(Vec::new())), Some(Vec::new()));
    }

    #[test]
    fn builds_missing_field_is_rejected() {
        check_missing(&builds_row(), &[]);
        assert_eq!(builds_from_json(&Json::U64(3)), None);
    }

    /// The record codec before it wrote into a buffer: one `Json` tree per
    /// record, rendered by the tree writer, and a decoder that looks every
    /// field up with `Json::get`. The oracle the streamed path must equal.
    pub(crate) mod old {
        use super::super::{build_slots, flat, metrics_slots, stats_slots, Slot, Slots, PRED};
        use crate::json::{tests::oracle, Json};
        use sms_sim::geom::golden::fnv1a64;
        use sms_sim::gpu::SimStats;
        use sms_sim::mem::MemStats;

        fn encode(slots: Slots<'_>) -> Json {
            let value = |slot| match slot {
                Slot::U64(v) | Slot::Opt(v) => Json::U64(*v),
                Slot::Str(s) => Json::Str(s.clone()),
                Slot::Obj(inner) => encode(inner),
            };
            Json::Obj(
                slots.into_iter().map(|(name, slot)| (name.to_owned(), value(slot))).collect(),
            )
        }

        fn decode(doc: &Json, slots: Slots<'_>) -> Option<()> {
            for (name, slot) in slots {
                match slot {
                    Slot::U64(out) => *out = doc.u64_field(name)?,
                    Slot::Opt(out) => *out = doc.u64_field(name).unwrap_or(*out),
                    Slot::Str(out) => doc.get(name)?.as_str()?.clone_into(out),
                    Slot::Obj(inner) => decode(doc.get(name)?, inner)?,
                }
            }
            Some(())
        }

        pub fn stats_to_json(s: &SimStats) -> Json {
            let (mut scalars, mut mem) = (s.values(), s.mem.values());
            let mut slots = stats_slots(&mut scalars, &mut mem);
            if s.pred_hits == 0 && s.pred_misses == 0 {
                slots.retain(|(_, slot)| !matches!(slot, Slot::Opt(_)));
            }
            assert!(PRED.iter().all(|p| SimStats::FIELDS.contains(p)));
            encode(slots)
        }

        pub fn stats_from_json(doc: &Json) -> Option<SimStats> {
            let (mut scalars, mut mem) = ([0; SimStats::FIELDS.len()], [0; MemStats::FIELDS.len()]);
            decode(doc, stats_slots(&mut scalars, &mut mem))?;
            Some(SimStats { mem: MemStats::from_values(mem), ..SimStats::from_values(scalars) })
        }

        pub fn record_to_json<const N: usize>(
            names: &[&'static str; N],
            mut values: [u64; N],
        ) -> Json {
            encode(flat(names, &mut values))
        }

        pub fn metrics_to_json(m: &crate::BatchMetrics) -> Json {
            encode(metrics_slots(&mut { *m }))
        }

        pub fn builds_to_json(builds: &[crate::SceneBuild]) -> Json {
            Json::Arr(builds.iter().map(|b| encode(build_slots(&mut b.clone()))).collect())
        }

        pub fn entry_checksum(canonical: &str, stats: &SimStats) -> String {
            let body = oracle(&stats_to_json(stats));
            format!("{:016x}", fnv1a64(format!("{canonical}|{body}").as_bytes()))
        }
    }

    /// A counter set with every value drawn at a random width, the
    /// predictor counters set or not (a third of the cases zero both).
    fn stats(g: &mut sms_sim::geom::check::Gen) -> SimStats {
        let mut draw = || g.rng.next_u64() >> g.int(0, 63);
        let s = SimStats {
            mem: MemStats::from_values(from_fn(|_| draw())),
            ..SimStats::from_values(from_fn(|_| draw()))
        };
        match g.int(0, 2) {
            0 => SimStats { pred_hits: 0, pred_misses: 0, ..s },
            1 => SimStats { pred_hits: 0, ..s },
            _ => s,
        }
    }

    /// The streamed writer against the tree writer, byte for byte: counter
    /// sets with and without the predictor counters, the stall breakdown,
    /// the metrics digest, build records, the entry checksum, and a whole
    /// entry as `store` puts it on disk.
    #[test]
    fn records_and_checksum_match_the_tree_writer() {
        use crate::json::tests::oracle;
        let dir = std::env::temp_dir().join(format!("sms-cache-oracle-{}", std::process::id()));
        let cache = ResultCache::new(&dir);
        let key = CacheKey { canonical: "sms-sim salt=1|scene=\"Q\"\n|é".to_owned(), hash: 7 };
        sms_sim::geom::check::for_cases(500, 39, |g| {
            let s = stats(g);
            let tree = old::stats_to_json(&s);
            assert_eq!(stats_json(&s), oracle(&tree));
            assert_eq!(entry_checksum(&key.canonical, &s), old::entry_checksum(&key.canonical, &s));
            let values: [u64; StallBreakdown::FIELDS.len()] = from_fn(|i| s.values()[i % 8]);
            let old_record = old::record_to_json(&StallBreakdown::FIELDS, values);
            assert_eq!(
                text(|out| write_record(out, &StallBreakdown::FIELDS, values)),
                oracle(&old_record)
            );
            if g.chance(0.05) {
                cache.store(&key, &s);
                let on_disk = std::fs::read_to_string(cache.entry_path(&key)).unwrap();
                let entry = Json::Obj(vec![
                    ("salt".to_owned(), Json::U64(SIM_VERSION_SALT as u64)),
                    ("key".to_owned(), Json::Str(key.canonical.clone())),
                    ("sum".to_owned(), Json::Str(old::entry_checksum(&key.canonical, &s))),
                    ("stats".to_owned(), tree),
                ]);
                assert_eq!(on_disk, oracle(&entry));
                assert_eq!(cache.load(&key), Some(s));
            }
        });
        let m = metrics_row_sample();
        assert_eq!(text(|out| write_metrics(out, &m)), oracle(&old::metrics_to_json(&m)));
        let build = SceneBuild { scene: "S\u{1}\"".to_owned(), prims: u64::MAX, build_us: 0 };
        let builds = [build.clone(), build];
        assert_eq!(text(|out| write_builds(out, &builds)), oracle(&old::builds_to_json(&builds)));
        let _ = fs::remove_dir_all(&dir);
    }

    fn metrics_row_sample() -> BatchMetrics {
        let hist = |salt| {
            let [count, sum, p50, p95, p99, max] = big(salt);
            sms_metrics::HistSummary { count, sum, p50, p95, p99, max }
        };
        BatchMetrics { stack_depth: hist(0), ray_latency: hist(10), spills: 0, reloads: u64::MAX }
    }

    /// Keys made through one `KeyTail` are `CacheKey::new`'s, byte for
    /// byte, over runs of requests whose GPU and render configurations
    /// change between any two.
    #[test]
    fn keys_through_one_tail_are_fresh_keys() {
        use sms_sim::rtunit::StackConfig;
        use sms_sim::scene::SceneId;
        sms_sim::geom::check::for_cases(200, 48, |g| {
            let mut tail = KeyTail::default();
            for _ in 0..g.size(1, 40) {
                let stack = [StackConfig::baseline8(), StackConfig::sms_default()][g.int(0, 1)];
                let render = [RenderConfig::tiny(), RenderConfig::fast()][g.int(0, 1)];
                let gpu = GpuConfig::default().with_l1_size([32, 64, 128][g.int(0, 2)] * 1024);
                let req = RunRequest::new(SceneId::ALL[g.int(0, 15)], stack, render).with_gpu(gpu);
                let salt = g.int(0, 2) as u32;
                assert_eq!(CacheKey::with_tail(&req, salt, &mut tail), CacheKey::new(&req, salt));
            }
        });
    }

    /// The cursor decoder reads what the `Json::get` decoder reads from
    /// documents whose pairs are reordered, duplicated (with another
    /// value), dropped or mistyped, at the top level and in `mem`.
    #[test]
    fn cursor_decode_equals_get_decode() {
        fn shuffle(g: &mut sms_sim::geom::check::Gen, pairs: &mut Vec<(String, Json)>) {
            for _ in 0..g.int(0, 4) {
                let n = pairs.len();
                if n == 0 {
                    return;
                }
                let i = g.int(0, n - 1);
                match g.int(0, 4) {
                    0 => pairs.swap(i, g.int(0, n - 1)),
                    1 => {
                        let mut dup = pairs[i].clone();
                        if let Json::U64(v) = &mut dup.1 {
                            *v = v.wrapping_add(1);
                        }
                        pairs.insert(g.int(0, n), dup);
                    }
                    2 => {
                        pairs.remove(i);
                    }
                    3 => pairs[i].1 = Json::Str("7".to_owned()),
                    _ => pairs.reverse(),
                }
            }
        }
        sms_sim::geom::check::for_cases(2_000, 39, |g| {
            let Json::Obj(mut pairs) = old::stats_to_json(&stats(g)) else { unreachable!() };
            if let Some((_, Json::Obj(mem))) = pairs.iter_mut().find(|(k, _)| k == "mem") {
                shuffle(g, mem);
            }
            shuffle(g, &mut pairs);
            let doc = Json::Obj(pairs);
            assert_eq!(stats_from_json(&doc), old::stats_from_json(&doc), "{doc}");
        });
    }
}
