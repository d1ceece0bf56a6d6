//! The machine and environment a result was measured on, and the
//! benchmark's own hygiene: scrubbed `SMS_*` variables, `/proc` memory
//! readings, one scratch directory removed on exit.

use crate::json::{num, obj, text, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Removes every `SMS_*` variable from this process's environment (and so
/// from every child's) and returns the names removed. A stray `SMS_TRACE`,
/// `SMS_METRICS` or `SMS_FAULT` would measure a different program.
pub fn scrub_sms_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SMS_"))
        .collect();
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_path_buf()
}

/// The cargo target directory this executable was built into
/// (`<target>/<profile>/sms-benchmark`), which is always inside the
/// checkout and ignored by git.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))
}

/// `<target>/benchmark-<pid>/`, removed when dropped (also on unwind).
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let path = target_dir()?.join(format!("benchmark-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty sub-directory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One `kB` field of `/proc/<pid>/status`, in MiB; 0 when unreadable (the
/// caller's non-zero check turns that into a failure).
fn status_mib(pid: &str, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    status_mib(&pid.to_string(), "VmHWM")
}

/// Peak resident set of this process, MiB.
pub fn own_peak_rss_mib() -> f64 {
    status_mib("self", "VmHWM")
}

/// CPU seconds (user + system, all threads) a process has used so far,
/// from `/proc/<pid>/stat`; 0 when unreadable. Ticks are `USER_HZ`, which
/// Linux fixes at 100 for this file whatever the kernel's own tick is.
pub fn process_cpu_seconds(pid: u32) -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            // The command name (field 2) may contain spaces: count from its `)`.
            let mut fields = s.rsplit_once(')')?.1.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(0.0)
}

/// `(stolen, total)` CPU ticks of the whole VM since boot, from the first
/// line of `/proc/stat`. Stolen time is what the hypervisor ran something
/// else for while a virtual CPU of this machine wanted to run.
pub fn vm_cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // the guest columns are already counted in user and nice.
    (fields.get(7).copied().unwrap_or(0.0), fields.iter().take(8).sum())
}

/// Current resident set (`VmRSS`) of this process, MiB.
pub fn own_rss_mib() -> f64 {
    status_mib("self", "VmRSS")
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(cwd).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim_end().to_owned())
}

/// `git status --porcelain` paths, or `None` outside a git checkout.
pub fn git_modified_paths(root: &Path) -> Option<Vec<String>> {
    let out = command_line("git", &["status", "--porcelain", "--untracked-files=all"], root)?;
    Some(out.lines().filter(|l| l.len() > 3).map(|l| l[3..].trim().to_owned()).collect())
}

/// Everything a reader needs to judge whether two results are comparable.
pub fn header(seed: u64, seconds: f64, traced: bool, smoke: bool, scrubbed: &[String]) -> Json {
    let root = repo_root();
    let unknown = || "unknown".to_owned();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(unknown);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| unknown(), |s| s.trim().to_owned());
    let modified = git_modified_paths(&root);
    obj([
        (
            "git_hash",
            text(command_line("git", &["rev-parse", "HEAD"], &root).unwrap_or_else(unknown)),
        ),
        ("git_dirty", modified.map_or(Json::Null, |m| Json::Bool(!m.is_empty()))),
        ("rustc", text(command_line("rustc", &["-V"], &root).unwrap_or_else(unknown))),
        ("cpu", text(cpu)),
        ("nproc", num(nproc() as f64)),
        ("kernel", text(kernel)),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("traced", Json::Bool(traced)),
        ("smoke", Json::Bool(smoke)),
        ("scrubbed_env", Json::Arr(scrubbed.iter().map(|s| text(s.as_str())).collect())),
    ])
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_memory_from_proc() {
        assert!(own_rss_mib() > 0.0);
        assert!(own_peak_rss_mib() >= own_rss_mib() * 0.5);
        assert_eq!(peak_rss_mib(u32::MAX), 0.0, "an absent process reads 0, not a panic");
        assert_eq!(process_cpu_seconds(u32::MAX), 0.0);
    }

    #[test]
    fn vm_ticks_are_read_from_proc_stat() {
        let (stolen, total) = vm_cpu_ticks();
        assert!(total > 0.0 && (0.0..=total).contains(&stolen));
    }

    #[test]
    fn cpu_seconds_grow_with_work() {
        let before = process_cpu_seconds(std::process::id());
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(
            process_cpu_seconds(std::process::id()) > before,
            "60 ms of spinning is at least one tick"
        );
    }

    #[test]
    fn header_names_the_machine_and_the_run() {
        let h = header(11, 20.0, true, false, &["SMS_TRACE".to_owned()]);
        for key in ["git_hash", "git_dirty", "rustc", "cpu", "nproc", "kernel", "seed", "seconds"] {
            assert!(h.get(key).is_some(), "{key} missing from the header");
        }
        assert_eq!(h.get("seed").unwrap().as_f64(), Some(11.0));
        assert_eq!(h.get("scrubbed_env").unwrap().as_arr().len(), 1);
    }
}
