//! The fault-tolerant fleet front tier.
//!
//! ```text
//! sms-fleet [--addr HOST:PORT] [--addr-file PATH]
//!           [--backends HOST:PORT,HOST:PORT] [--spawn N] [--workers N]
//! ```
//!
//! Configuration comes from `SMS_FLEET_*` (see `FleetConfig::from_env`);
//! the flags override the environment. `--backends` adopts already
//! running `sms-serve` processes; `--spawn N` launches N of them as
//! children (the `sms-serve` binary is looked up next to this one),
//! binding ephemeral ports discovered via `--addr-file`. The two
//! compose: spawned children are appended to the adopted list.
//!
//! Children inherit the environment, so `SMS_FAULT` set here injects
//! faults into every spawned backend — handy for one-command chaos
//! smokes, but for targeted chaos start backends by hand with distinct
//! specs and adopt them with `--backends`.
//!
//! SIGTERM (or `POST /v1/drain`) drains the front tier, then drains any
//! spawned children and waits for them to exit.

use sms_harness::log;
use sms_serve::fleet::{FleetConfig, FleetServer};
use sms_serve::service::positive_arg;
use sms_serve::Client;

/// Launches one `sms-serve` child on an ephemeral port and returns it
/// with the address file it will announce itself in.
fn spawn_backend(index: usize) -> (std::process::Child, std::path::PathBuf) {
    let serve_bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("sms-serve")))
        .filter(|p| p.exists())
        .unwrap_or_else(|| std::path::PathBuf::from("sms-serve"));
    let addr_file =
        std::env::temp_dir().join(format!("sms-fleet-backend-{}-{index}.addr", std::process::id()));
    let _ = std::fs::remove_file(&addr_file);
    let child = std::process::Command::new(&serve_bin)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--addr-file")
        .arg(&addr_file)
        .spawn()
        .unwrap_or_else(|e| {
            log::error("fleet", &format!("cannot spawn {}: {e}", serve_bin.display()), &[]);
            std::process::exit(1);
        });
    (child, addr_file)
}

/// Polls a child's address file until it appears (or the child is given
/// up on after ~10s).
fn await_backend_addr(addr_file: &std::path::Path) -> String {
    for _ in 0..1000 {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            let addr = text.trim();
            if !addr.is_empty() {
                return addr.to_owned();
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    log::error(
        "fleet",
        &format!("backend never announced an address in {}", addr_file.display()),
        &[],
    );
    std::process::exit(1);
}

fn main() {
    let mut config = FleetConfig::from_env(&sms_harness::capture_env());
    let mut addr_file: Option<String> = None;
    let mut spawn_n = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("sms-fleet: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--addr-file" => addr_file = Some(value("--addr-file")),
            "--backends" => {
                config.backends.extend(
                    value("--backends")
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned),
                );
            }
            "--spawn" => spawn_n = positive_arg("sms-fleet", "--spawn", &value("--spawn")),
            "--workers" => {
                config.workers = positive_arg("sms-fleet", "--workers", &value("--workers"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: sms-fleet [--addr HOST:PORT] [--addr-file PATH] \
                     [--backends HOST:PORT,...] [--spawn N] [--workers N]"
                );
                return;
            }
            other => {
                eprintln!("sms-fleet: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let mut children = Vec::new();
    for i in 0..spawn_n {
        let (child, file) = spawn_backend(i);
        let addr = await_backend_addr(&file);
        log::info("fleet", &format!("spawned backend {i} at {addr}"), &[("backend", &addr)]);
        config.backends.push(addr);
        children.push(child);
        let _ = std::fs::remove_file(&file);
    }
    if config.backends.is_empty() {
        log::error("fleet", "no backends (use --backends, --spawn or SMS_FLEET_BACKENDS)", &[]);
        std::process::exit(2);
    }

    let backends = config.backends.clone();
    let banner = {
        let routing = format!("{} backend(s): {}", backends.len(), backends.join(", "));
        move |addr| format!("listening on {addr}, routing over {routing}")
    };
    FleetServer::run_to_exit("fleet", config, addr_file.as_deref(), banner, || {
        // Drain spawned children (a dead child just fails the drain
        // request, which is fine — wait() below reaps it either way).
        for addr in backends.iter().skip(backends.len() - children.len()) {
            let _ = Client::new(addr.clone()).post("/v1/drain", b"");
        }
        for mut child in children {
            let _ = child.wait();
        }
    });
}
