//! The resident sweep server.
//!
//! ```text
//! sms-serve [--addr HOST:PORT] [--addr-file PATH] [--workers N]
//! ```
//!
//! Configuration comes from `SMS_SERVE_*` (and the usual `SMS_CACHE_DIR`
//! etc.; see `ServeConfig::from_env`); the flags override the
//! environment. `--addr-file` writes the actually-bound address to a file
//! once listening — the CI smoke test binds port 0 and discovers the
//! ephemeral port this way.
//!
//! SIGTERM (or `POST /v1/drain`) triggers a graceful drain: stop
//! accepting, finish in-flight requests, flush the journal, exit 0.

use sms_serve::server::{ServeConfig, Server};
use sms_serve::service::positive_arg;

fn main() {
    let mut config = ServeConfig::from_env(&sms_harness::capture_env());
    let mut addr_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("sms-serve: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--addr-file" => addr_file = Some(value("--addr-file")),
            "--workers" => {
                config.workers = positive_arg("sms-serve", "--workers", &value("--workers"));
            }
            "--help" | "-h" => {
                println!("usage: sms-serve [--addr HOST:PORT] [--addr-file PATH] [--workers N]");
                return;
            }
            other => {
                eprintln!("sms-serve: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let banner = {
        let cache =
            config.cache_dir.as_deref().map_or("off".to_owned(), |p| p.display().to_string());
        let workers = config.workers;
        move |addr| format!("listening on {addr} ({workers} workers, cache {cache})")
    };
    Server::run_to_exit("serve", config, addr_file.as_deref(), banner, || {});
}
