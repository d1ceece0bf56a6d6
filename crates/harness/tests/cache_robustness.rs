//! The result cache must never be able to make a run *wrong*: corrupt
//! entries fall back to re-simulation, and entries written under an older
//! simulator version salt are unreachable.

use sms_harness::cache::stats_from_json;
use sms_harness::json::{parse, Json};
use sms_harness::{CacheKey, Harness, HarnessConfig, ResultCache, RunRequest, SIM_VERSION_SALT};
use sms_sim::config::RenderConfig;
use sms_sim::geom::check::{for_cases, mutate, replay, Gen};
use sms_sim::geom::golden;
use sms_sim::gpu::SimStats;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sms-cache-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_request() -> RunRequest {
    RunRequest::new(SceneId::Wknd, StackConfig::baseline8(), RenderConfig::tiny())
}

#[test]
fn roundtrip_store_load() {
    let dir = temp_dir("roundtrip");
    let cache = ResultCache::new(&dir);
    let key = cache.key(&sample_request());
    let stats = SimStats { cycles: 77, node_visits: 5, ..Default::default() };
    cache.store(&key, &stats);
    assert_eq!(cache.load(&key), Some(stats));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_and_truncated_entries_are_misses() {
    let dir = temp_dir("corrupt");
    let cache = ResultCache::new(&dir);
    let key = cache.key(&sample_request());
    let stats = SimStats { cycles: 77, ..Default::default() };
    cache.store(&key, &stats);
    let path = cache.entry_path(&key);

    // Truncated mid-document.
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    assert_eq!(cache.load(&key), None, "truncated entry must miss, not panic");

    // Arbitrary binary garbage.
    std::fs::write(&path, [0u8, 159, 146, 150, b'{', b'}']).unwrap();
    assert_eq!(cache.load(&key), None, "binary garbage must miss, not panic");

    // Valid JSON, wrong schema.
    std::fs::write(&path, "{\"unexpected\":true}").unwrap();
    assert_eq!(cache.load(&key), None);

    // Valid envelope, missing stats fields.
    std::fs::write(
        &path,
        format!(
            "{{\"salt\":{SIM_VERSION_SALT},\"key\":{:?},\"stats\":{{\"cycles\":1}}}}",
            key.canonical
        ),
    )
    .unwrap();
    assert_eq!(cache.load(&key), None, "schema drift must miss, not mis-parse");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entry_falls_back_to_resimulation_end_to_end() {
    let dir = temp_dir("fallback");
    let harness = Harness::new(HarnessConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..HarnessConfig::default()
    });
    let req = sample_request();
    let (first, s1) = harness.run_batch(&[req]);
    assert_eq!(s1.cache_misses, 1);

    // Corrupt the entry on disk; the batch must silently re-simulate and
    // produce the same stats.
    let cache = harness.cache().unwrap();
    let path = cache.entry_path(&cache.key(&req));
    std::fs::write(&path, "not json at all").unwrap();
    let (second, s2) = harness.run_batch(&[req]);
    assert_eq!(s2.cache_hits, 0, "corrupt entry must not count as a hit");
    assert_eq!(s2.cache_misses, 1);
    assert_eq!(first[0].stats, second[0].stats);

    // And the re-simulation healed the entry: third run is a hit.
    let (third, s3) = harness.run_batch(&[req]);
    assert_eq!(s3.cache_hits, 1);
    assert_eq!(first[0].stats, third[0].stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_salt_bump_invalidates_stale_entries() {
    let dir = temp_dir("salt");
    let req = sample_request();
    let stale = SimStats { cycles: 999_999, ..Default::default() };

    // An entry written by a (simulated) older simulator version...
    let old_cache = ResultCache::with_salt(&dir, SIM_VERSION_SALT.wrapping_sub(1));
    let old_key = old_cache.key(&req);
    old_cache.store(&old_key, &stale);
    assert_eq!(old_cache.load(&old_key), Some(stale), "entry is valid under its own salt");

    // ...is a miss under the current salt: the canonical key (and with it
    // the entry path) changed.
    let new_cache = ResultCache::with_salt(&dir, SIM_VERSION_SALT);
    let new_key = new_cache.key(&req);
    assert_ne!(old_key.canonical, new_key.canonical);
    assert_ne!(old_key.hash, new_key.hash);
    assert_eq!(new_cache.load(&new_key), None, "salt bump must invalidate stale entries");

    // Even a forged stale entry *at the new path* is rejected by the salt
    // field check.
    std::fs::copy(old_cache.entry_path(&old_key), new_cache.entry_path(&new_key)).unwrap();
    assert_eq!(new_cache.load(&new_key), None, "salt mismatch inside the entry must miss");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_are_deleted_on_load_so_they_self_heal() {
    let dir = temp_dir("selfheal");
    let cache = ResultCache::new(&dir);
    let key = cache.key(&sample_request());
    cache.store(&key, &SimStats { cycles: 42, ..Default::default() });
    let path = cache.entry_path(&key);

    std::fs::write(&path, "definitely not json").unwrap();
    assert_eq!(cache.load(&key), None);
    assert!(!path.exists(), "corrupt entry must be deleted so the next store heals it");

    // A plain miss (no file) stays a plain miss.
    assert_eq!(cache.load(&key), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A byte that is not UTF-8 is damage, found by one load: once it was
/// taken for a transient read error, retried with sleeps, and left on disk.
#[test]
fn a_non_utf8_entry_is_quarantined_by_one_load() {
    let dir = temp_dir("utf8");
    let cache = ResultCache::new(&dir);
    let key = cache.key(&sample_request());
    cache.store(&key, &SimStats { cycles: 42, ..Default::default() });
    let path = cache.entry_path(&key);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = 0xFF;
    std::fs::write(&path, bytes).unwrap();

    assert_eq!(cache.load(&key), None);
    assert!(!path.exists(), "an entry that is not UTF-8 must be deleted by the load that read it");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `cache_robustness.*.entry` rows of the golden table: real entries,
/// each with the key it is stored under and the stats it holds.
fn golden_entries() -> Vec<(String, CacheKey, SimStats)> {
    include_str!("../../../goldens.txt")
        .lines()
        .filter(|row| row.starts_with("cache_robustness.") && row.contains(".entry "))
        .map(|row| {
            let (_, entry) = row.split_once(' ').unwrap();
            let doc = parse(entry).unwrap();
            let canonical = doc.get("key").and_then(Json::as_str).unwrap().to_owned();
            let stats = stats_from_json(doc.get("stats").unwrap()).unwrap();
            let key = CacheKey { hash: golden::fnv1a64(canonical.as_bytes()), canonical };
            (entry.to_owned(), key, stats)
        })
        .collect()
}

/// One generated entry: a golden entry damaged by `mutate`, loaded from
/// its own path. A load returns the stored stats or `None`; a hit with
/// other stats needs an entry without a checksum (trusted as a
/// pre-checksum entry); and a `None` leaves a file behind only for an
/// intact entry of another salt, the one plain miss a readable entry can be.
fn loads_its_stats_or_nothing(
    g: &mut Gen,
    cache: &ResultCache,
    entries: &[(String, CacheKey, SimStats)],
) {
    let donors: Vec<&[u8]> = entries.iter().map(|(entry, ..)| entry.as_bytes()).collect();
    let (entry, key, stats) = &entries[g.int(0, entries.len() - 1)];
    let bytes = mutate(g, entry.as_bytes(), &donors);
    let shown = String::from_utf8_lossy(&bytes).into_owned();
    let path = cache.entry_path(key);
    std::fs::write(&path, &bytes).unwrap();
    let doc = std::str::from_utf8(&bytes).ok().and_then(|text| parse(text).ok());
    match cache.load(key) {
        Some(got) => {
            let unsummed = doc.as_ref().is_some_and(|doc| doc.get("sum").is_none());
            assert!(got == *stats || unsummed, "a damaged entry read as other stats: {shown}");
        }
        None if path.exists() => {
            let salt = doc.as_ref().and_then(|doc| doc.u64_field("salt"));
            assert!(
                salt.is_some_and(|salt| salt != u64::from(SIM_VERSION_SALT)),
                "an unreadable entry was left in place: {shown}"
            );
        }
        None => {}
    }
}

/// Generated garbage against `ResultCache::load`, seeded from the golden
/// entries: bit flips, truncations and splices of one entry into another.
#[test]
fn garbage_entries_load_their_stats_or_nothing_and_leave_no_damage() {
    let dir = temp_dir("garbage");
    let cache = ResultCache::new(&dir);
    let entries = golden_entries();
    assert_eq!(entries.len(), 3);
    for (entry, key, stats) in &entries {
        std::fs::write(cache.entry_path(key), entry).unwrap();
        assert_eq!(cache.load(key).as_ref(), Some(stats), "every golden entry loads");
    }
    for_cases(5_000, 48, |g| loads_its_stats_or_nothing(g, &cache, &entries));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shrunk case with which the suite found non-UTF-8 entries left in
/// place (a bit flip turned one `n` into a byte above 0x7F).
#[test]
fn garbage_entry_seed_48_case_1_was_not_utf8() {
    let dir = temp_dir("garbage-48-1");
    let cache = ResultCache::new(&dir);
    let entries = golden_entries();
    replay(48, 1, 0, |g| loads_its_stats_or_nothing(g, &cache, &entries));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_stats_fail_the_checksum_and_are_quarantined() {
    let dir = temp_dir("tamper");
    let cache = ResultCache::new(&dir);
    let key = cache.key(&sample_request());
    cache.store(&key, &SimStats { cycles: 123_456, ..Default::default() });
    let path = cache.entry_path(&key);

    // Flip one digit of the stats payload: still valid JSON, still the
    // right schema — only the checksum can catch it.
    let body = std::fs::read_to_string(&path).unwrap();
    let tampered = body.replace("123456", "123457");
    assert_ne!(body, tampered, "tamper target must exist in the entry");
    std::fs::write(&path, tampered).unwrap();

    assert_eq!(cache.load(&key), None, "bit rot that parses must still miss");
    assert!(!path.exists(), "checksum-failed entry must be deleted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_entries_without_checksum_still_load() {
    let dir = temp_dir("legacy");
    let cache = ResultCache::new(&dir);
    let key = cache.key(&sample_request());
    let stats = SimStats { cycles: 99, node_visits: 3, ..Default::default() };

    // Forge a pre-checksum entry: same envelope, no `sum` field.
    let body = format!(
        "{{\"salt\":{SIM_VERSION_SALT},\"key\":{:?},\"stats\":{}}}",
        key.canonical,
        sms_harness::cache::stats_json(&stats)
    );
    std::fs::write(cache.entry_path(&key), body).unwrap();
    assert_eq!(cache.load(&key), Some(stats), "legacy entries must stay readable");
    assert!(cache.entry_path(&key).exists(), "a valid legacy entry must not be deleted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn salt_mismatches_are_misses_not_corruption() {
    let dir = temp_dir("mismatch");
    let req = sample_request();

    // A stale-salt entry forged at the current path must miss but survive
    // on disk (it is not damaged, just from another simulator version).
    let old_cache = ResultCache::with_salt(&dir, SIM_VERSION_SALT.wrapping_sub(1));
    let old_key = old_cache.key(&req);
    old_cache.store(&old_key, &SimStats { cycles: 1, ..Default::default() });
    let new_cache = ResultCache::with_salt(&dir, SIM_VERSION_SALT);
    let new_key = new_cache.key(&req);
    let forged = new_cache.entry_path(&new_key);
    std::fs::copy(old_cache.entry_path(&old_key), &forged).unwrap();
    assert_eq!(new_cache.load(&new_key), None);
    assert!(forged.exists(), "salt mismatch is a miss, not corruption — no deletion");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_injected_cache_writes_self_heal_end_to_end() {
    use sms_harness::FaultPlan;
    use std::sync::Arc;

    let dir = temp_dir("faultwrites");
    // Every write is damaged: odd writes truncated, even writes corrupted.
    let plan = Arc::new(FaultPlan::parse("cache_truncate:every=2;cache_corrupt:every=1").unwrap());
    let faulty = ResultCache::new(&dir).with_faults(Some(plan));
    let clean = ResultCache::new(&dir);
    let key = clean.key(&sample_request());
    let stats = SimStats { cycles: 7_777, ..Default::default() };

    for _ in 0..4 {
        faulty.store(&key, &stats);
        assert_eq!(clean.load(&key), None, "damaged write must never read back as a hit");
        assert!(!clean.entry_path(&key).exists(), "damaged entry must be quarantined");
    }

    // A clean writer heals the slot.
    clean.store(&key, &stats);
    assert_eq!(clean.load(&key), Some(stats));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distinct_requests_have_distinct_keys() {
    let cache = ResultCache::new("unused");
    let render = RenderConfig::tiny();
    let a = cache.key(&RunRequest::new(SceneId::Ship, StackConfig::baseline8(), render));
    let b = cache.key(&RunRequest::new(SceneId::Bunny, StackConfig::baseline8(), render));
    let c = cache.key(&RunRequest::new(SceneId::Ship, StackConfig::sms_default(), render));
    let d =
        cache.key(&RunRequest::new(SceneId::Ship, StackConfig::baseline8(), RenderConfig::fast()));
    let e = cache.key(
        &RunRequest::new(SceneId::Ship, StackConfig::baseline8(), render)
            .with_gpu(sms_sim::gpu::GpuConfig::default().with_l1_size(128 * 1024)),
    );
    let keys = [&a.canonical, &b.canonical, &c.canonical, &d.canonical, &e.canonical];
    for (i, x) in keys.iter().enumerate() {
        for y in &keys[i + 1..] {
            assert_ne!(x, y, "scene/stack/render/gpu must all be part of the key");
        }
    }
}

/// Pins what a real entry looks like on disk: the file name (the FNV hash
/// of the `{:?}`-rendered key) and every byte of the body, as the
/// `cache_robustness.<scene>.<stack>.{file,entry}` rows of the golden table
/// (`goldens.txt`, `sms_geom::golden`). WKND's predictor never probes at
/// this size, so its entry carries no `pred_*` pair; SPRNG's confirms once
/// and never mispredicts, which pins that the pair is emitted together.
/// The rows were recorded at the commit before the counter records were
/// declared by macro; a change to any of them is a cache-format change
/// that strands every existing cache.
#[test]
fn on_disk_entry_bytes_are_pinned() {
    let predictor = StackConfig::Predictor { table_bits: 12 };
    let requests = [
        (SceneId::Wknd, StackConfig::baseline8()),
        (SceneId::Wknd, predictor),
        (SceneId::Sprng, predictor),
    ]
    .map(|(scene, stack)| RunRequest::new(scene, stack, RenderConfig::tiny()));

    let dir = temp_dir("golden");
    let harness = Harness::new(HarnessConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..HarnessConfig::default()
    });
    let (_, summary) = harness.run_batch(&requests);
    assert_eq!(summary.cache_misses, requests.len());

    let cache = harness.cache().unwrap();
    let (mut names, mut rows) = (Vec::new(), Vec::new());
    for req in &requests {
        let path = cache.entry_path(&cache.key(req));
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        let case = format!("{}.{}", req.scene.name(), req.stack.label());
        rows.push((format!("{case}.file"), name.clone()));
        rows.push((format!("{case}.entry"), std::fs::read_to_string(&path).unwrap()));
        names.push(name);
    }
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    on_disk.sort();
    names.sort();
    assert_eq!(on_disk, names, "one file per entry, and no temp file left behind");
    golden::check("cache_robustness", &rows);
    let _ = std::fs::remove_dir_all(&dir);
}
