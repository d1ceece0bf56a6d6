//! The workspace's one golden table and its one 64-bit FNV-1a.
//!
//! `goldens.txt` at the workspace root holds every byte-identity suite's
//! values as `<suite>.<case> <value>` rows (a multi-line text as one
//! `<suite>.<case>:<n>` row per line, `\r` and `\\` escaped). [`check`]
//! writes it with this run's rows to `target/goldens.txt`, so re-blessing
//! is `cp target/goldens.txt goldens.txt` after a whole `cargo test` run.
//! The workspace root is found at run time from the test's working
//! directory, so a copy of the tree checks its own table even when it
//! reuses another tree's build.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// The 64-bit FNV-1a hash of no bytes (the offset basis).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the 64-bit FNV-1a hash `h` over `bytes`.
#[inline]
pub fn fnv1a64_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Serialises the read-merge-write of `target/goldens.txt` in this process.
static WRITE_LOCK: Mutex<()> = Mutex::new(());

/// Checks `suite`'s observed `(case, value)` pairs against `goldens.txt`,
/// records them in `target/goldens.txt`, and panics naming every row that
/// moved as `old → new`.
pub fn check(suite: &str, observed: &[(impl AsRef<str>, impl AsRef<str>)]) {
    let cwd = std::env::current_dir().expect("a working directory");
    let root = workspace_root(&cwd)
        .unwrap_or_else(|| panic!("no goldens.txt beside a Cargo.toml above {}", cwd.display()));
    let observed: Vec<_> = observed.iter().map(|(c, v)| (c.as_ref(), v.as_ref())).collect();
    check_in(&root.join("goldens.txt"), &root.join("target/goldens.txt"), suite, &observed);
}

/// The first directory at or above `start` that holds both `goldens.txt`
/// and `Cargo.toml`: the workspace root of a test run from any package.
fn workspace_root(start: &Path) -> Option<PathBuf> {
    let holds = |dir: &Path| dir.join("goldens.txt").is_file() && dir.join("Cargo.toml").is_file();
    start.ancestors().find(|dir| holds(dir)).map(Path::to_path_buf)
}

/// [`check`] against `committed`, writing `written`; the merge starts from
/// `written` (every suite of a run adds to it) unless `committed` is newer.
fn check_in(committed: &Path, written: &Path, suite: &str, observed: &[(&str, &str)]) {
    let table = read_lines(committed);
    let (mut moved, mut cases) = (String::new(), Vec::new());
    for (case, value) in observed {
        let key = format!("{suite}.{case}");
        assert!(!key.contains([' ', '\n', ':']), "golden key `{key}` holds a space or `:`");
        let new = rows(&key, value);
        let old: Vec<&String> = table.iter().filter(|l| of_case(l, &key)).collect();
        for i in 0..old.len().max(new.len()) {
            let (was, now) = (old.get(i).map(|r| split(r)), new.get(i).map(|r| split(r)));
            if was != now {
                let row = now.or(was).map_or("", |r| r.0);
                let (was, now) = (was.map_or("(new)", |r| r.1), now.map_or("(gone)", |r| r.1));
                moved.push_str(&format!("  {row}: {was} → {now}\n"));
            }
        }
        cases.push((key, new));
    }

    let _guard = WRITE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let mtime = |p: &Path| fs::metadata(p).and_then(|m| m.modified()).ok();
    let mut lines = if mtime(written) >= mtime(committed) { read_lines(written) } else { table };
    for (key, new) in cases {
        // In place of the case's first row, else after its suite's last.
        let at = lines.iter().position(|l| of_case(l, &key)).unwrap_or_else(|| {
            let last = lines.iter().rposition(|l| l.starts_with(&format!("{suite}.")));
            last.map_or(lines.len(), |last| last + 1)
        });
        lines.retain(|l| !of_case(l, &key));
        lines.splice(at..at, new);
    }
    let text: String = lines.iter().flat_map(|l| [l, "\n"]).collect();
    let tmp = written.with_extension(format!("{}.tmp", std::process::id()));
    fs::create_dir_all(written.parent().expect("a file has a directory"))
        .and_then(|()| fs::write(&tmp, text))
        .and_then(|()| fs::rename(&tmp, written))
        .unwrap_or_else(|e| panic!("write {}: {e}", written.display()));

    assert!(
        moved.is_empty(),
        "goldens of `{suite}` moved (old → new):\n{moved}{} holds this run's rows; \
         explain each moved row, then `cp target/goldens.txt goldens.txt`",
        written.display()
    );
}

/// The lines of `path`; none when it cannot be read (a missing table).
fn read_lines(path: &Path) -> Vec<String> {
    fs::read_to_string(path).map(|t| t.lines().map(str::to_owned).collect()).unwrap_or_default()
}

/// `value`'s rows under `key`: one row, or `key:<n>` per line of several.
fn rows(key: &str, value: &str) -> Vec<String> {
    let lines: Vec<&str> = value.split('\n').collect();
    let row = |(n, line): (usize, &&str)| {
        let key = if lines.len() > 1 { format!("{key}:{n}") } else { key.to_owned() };
        let line = line.replace('\\', "\\\\").replace('\r', "\\r");
        format!("{key}{}{line}", if line.is_empty() { "" } else { " " })
    };
    lines.iter().enumerate().map(row).collect()
}

/// A row's key and value.
fn split(row: &str) -> (&str, &str) {
    row.split_once(' ').unwrap_or((row, ""))
}

/// Whether `line` is a row of the case keyed `key` (`key` or `key:<n>`).
fn of_case(line: &str, key: &str) -> bool {
    let rest = split(line).0.strip_prefix(key);
    rest.is_some_and(|r| {
        r.is_empty() || r.strip_prefix(':').is_some_and(|n| n.parse::<u32>().is_ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    /// A fresh directory holding `committed` as `goldens.txt`; returns the
    /// committed and written table paths.
    fn table(name: &str, committed: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("sms-golden-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("goldens.txt"), committed).unwrap();
        (dir.join("goldens.txt"), dir.join("target/goldens.txt"))
    }

    #[test]
    fn the_root_is_the_nearest_directory_with_the_table_and_a_manifest() {
        let dir = std::env::temp_dir().join(format!("sms-golden-{}-root", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (root, member) = (dir.join("tree"), dir.join("tree/crates/geom"));
        fs::create_dir_all(member.join("src")).unwrap();
        for file in ["goldens.txt", "Cargo.toml", "crates/geom/Cargo.toml"] {
            fs::write(root.join(file), "").unwrap();
        }
        // A member's manifest with no table beside it is not a root, nor
        // is a table with no manifest beside it: the walk goes on up.
        fs::write(member.join("src/goldens.txt"), "").unwrap();
        assert_eq!(workspace_root(&member.join("src")), Some(root.clone()), "from inside a member");
        assert_eq!(workspace_root(&root), Some(root.clone()), "from the root itself");
        fs::remove_file(root.join("goldens.txt")).unwrap();
        assert_eq!(workspace_root(&member.join("src")), None, "no table beside a manifest");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The panic message of a failed check.
    fn failure(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the check must fail");
        *payload.downcast::<String>().unwrap()
    }

    const COMMITTED: &str = "# header\n\
        s.a 1\n\
        s.b 2\n\
        s.text:0 one\n\
        s.text:1 two\\r\n\
        s.text:2\n\
        \n\
        t.x 9\n";

    #[test]
    fn two_moved_rows_are_both_named() {
        let (committed, written) = table("two", COMMITTED);
        let observed = [("a", "1"), ("b", "3"), ("text", "one\nTWO\r\n")];
        let msg = failure(|| check_in(&committed, &written, "s", &observed));
        assert!(msg.contains("s.b: 2 → 3"), "{msg}");
        assert!(msg.contains("s.text:1: two\\r → TWO\\r"), "{msg}");
        assert!(!msg.contains("s.a"), "an unmoved row is not listed: {msg}");
    }

    #[test]
    fn a_row_missing_from_the_table_is_new() {
        let (committed, written) = table("new", COMMITTED);
        let msg = failure(|| check_in(&committed, &written, "s", &[("c", "7")]));
        assert!(msg.contains("s.c: (new) → 7"), "{msg}");
        let lines = read_lines(&written);
        assert_eq!(lines[lines.iter().position(|l| l == "s.text:2").unwrap() + 1], "s.c 7");
    }

    #[test]
    fn the_written_table_substitutes_only_the_observed_rows() {
        let (committed, written) = table("substitute", COMMITTED);
        check_in(&committed, &written, "t", &[("x", "9")]);
        assert_eq!(fs::read_to_string(&written).unwrap(), COMMITTED, "a match writes the table");
        let _ = failure(|| check_in(&committed, &written, "s", &[("text", "one\\")]));
        let want =
            COMMITTED.replace("s.text:0 one\ns.text:1 two\\r\ns.text:2\n", "s.text one\\\\\n");
        assert_eq!(fs::read_to_string(&written).unwrap(), want);
        // Copying it over the committed table is the whole re-bless.
        fs::copy(&written, &committed).unwrap();
        check_in(&committed, &written, "s", &[("text", "one\\")]);
    }

    #[test]
    fn eight_threads_lose_no_row() {
        let (committed, written) = table("threads", COMMITTED);
        let (c, w) = (&committed, &written);
        std::thread::scope(|scope| {
            for t in 0..8 {
                scope.spawn(move || {
                    for i in 0..10 {
                        let _ =
                            catch_unwind(|| check_in(c, w, "p", &[(&format!("t{t}_{i}"), "v")]));
                    }
                });
            }
        });
        let lines = read_lines(&written);
        let rows = (0..8).flat_map(|t| (0..10).map(move |i| format!("p.t{t}_{i} v")));
        let lost: Vec<String> = rows.filter(|r| !lines.contains(r)).collect();
        assert!(lost.is_empty() && lines.len() == COMMITTED.lines().count() + 80, "{lost:?}");
    }
}
