//! Command-line client for `sms-serve`.
//!
//! ```text
//! sms-client [--addr HOST:PORT] <command> [args]
//!
//! commands:
//!   sweep --scenes A,B --configs C1,C2 [--render fast|tiny|paper] [--jsonl]
//!   probe <scene> <config> [--render MODE]
//!   health
//!   metrics
//!   drain
//! ```
//!
//! The address defaults to `SMS_SERVE_ADDR` (then `127.0.0.1:7745`).
//! Retries/backoff/deadline come from `SMS_CLIENT_*`; see
//! `ClientConfig::from_env`. `--trace` (or `SMS_TRACE_CTX`) arms
//! distributed tracing: a root trace context is generated here, rides
//! every request as `x-sms-trace`, and the trace id is reported on exit
//! so `sms-trace merge --trace <id>` can pull the request's spans out of
//! the server-side journals. Exit status: 0 on success, 1 on a server or
//! sweep failure (any failed job fails the sweep), 2 on usage errors.

use sms_harness::log;
use sms_harness::TraceContext;
use sms_serve::client::{Client, ClientConfig};

fn usage() -> ! {
    eprintln!(
        "usage: sms-client [--addr HOST:PORT] <command>\n\
         commands:\n  \
         sweep --scenes A,B --configs C1,C2 [--render fast|tiny|paper] [--jsonl]\n  \
         probe <scene> <config> [--render MODE]\n  \
         health\n  metrics\n  drain\n\
         options:\n  --addr HOST:PORT   server address\n  --trace            arm distributed tracing"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ClientConfig::from_env(&sms_harness::capture_env());
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--addr") {
        if i + 1 >= args.len() {
            usage();
        }
        config.addr = args.remove(i + 1);
        args.remove(i);
    }
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        args.remove(i);
        if config.trace.is_none() {
            config.trace = Some(TraceContext::root());
        }
    }
    let trace = config.trace;
    if let Some(ctx) = &trace {
        log::info(
            "client",
            &format!("tracing armed: trace {}", ctx.trace_hex()),
            &[("trace_id", &ctx.trace_hex())],
        );
    }
    let client = Client::with_config(config);
    let Some(command) = args.first().cloned() else { usage() };
    let rest = &args[1..];
    match command.as_str() {
        "sweep" => sweep(&client, rest),
        "probe" => probe(&client, rest),
        "health" => simple_get(&client, "/healthz"),
        "metrics" => simple_get(&client, "/metrics"),
        "drain" => match client.post("/v1/drain", &[]) {
            Ok(resp) if resp.status == 200 => print!("{}", resp.text()),
            Ok(resp) => fail(format!("{} {}", resp.status, resp.text().trim())),
            Err(e) => fail(e.to_string()),
        },
        _ => usage(),
    }
}

fn fail(message: String) -> ! {
    log::error("client", &message, &[]);
    std::process::exit(1);
}

fn simple_get(client: &Client, path: &str) {
    match client.get(path) {
        Ok(resp) if resp.status == 200 => print!("{}", resp.text()),
        Ok(resp) => fail(format!("{path}: {} {}", resp.status, resp.text().trim())),
        Err(e) => fail(format!("{path}: {e}")),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("sms-client: {flag} needs a value");
            std::process::exit(2);
        })
    })
}

fn sweep(client: &Client, args: &[String]) {
    let scenes = flag_value(args, "--scenes").unwrap_or_else(|| usage());
    let configs = flag_value(args, "--configs").unwrap_or_else(|| usage());
    let render = flag_value(args, "--render").unwrap_or_else(|| "fast".to_owned());
    let jsonl = args.iter().any(|a| a == "--jsonl");
    let scenes: Vec<&str> = scenes.split(',').filter(|s| !s.is_empty()).collect();
    let configs: Vec<&str> = configs.split(',').filter(|s| !s.is_empty()).collect();

    let outcome = match client.sweep(&scenes, &configs, &render) {
        Ok(outcome) => outcome,
        Err(e) => fail(format!("sweep: {e}")),
    };
    let mut failed = 0usize;
    for rec in &outcome.records {
        if jsonl {
            continue; // raw mode prints the summary table below instead
        }
        match &rec.outcome {
            Ok(stats) => println!(
                "{:<8} {:<20} {:>12} cycles  [{}]",
                rec.scene, rec.config, stats.cycles, rec.cache
            ),
            Err(error) => {
                failed += 1;
                println!("{:<8} {:<20} FAILED: {}", rec.scene, rec.config, one_line(error));
            }
        }
    }
    if jsonl {
        // Re-emit the stream verbatim shape: queued ids were consumed in
        // parsing, so print one object per record plus the summary.
        for rec in &outcome.records {
            match &rec.outcome {
                Ok(stats) => println!(
                    "{{\"scene\":\"{}\",\"config\":\"{}\",\"cache\":\"{}\",\"cycles\":{}}}",
                    rec.scene, rec.config, rec.cache, stats.cycles
                ),
                Err(_) => {
                    failed += 1;
                    println!(
                        "{{\"scene\":\"{}\",\"config\":\"{}\",\"failed\":true}}",
                        rec.scene, rec.config
                    );
                }
            }
        }
    }
    if let Some(summary) = &outcome.summary {
        log::info("client", &summary.to_string(), &[]);
    } else {
        fail("sweep stream ended without a batch_end summary".to_owned());
    }
    if failed > 0 {
        fail(format!("{failed} job(s) failed"));
    }
}

fn one_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}

fn probe(client: &Client, args: &[String]) {
    let positional: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && (*i == 0 || args[i - 1] != "--render"))
        .map(|(_, a)| a)
        .collect();
    let (Some(scene), Some(config)) = (positional.first(), positional.get(1)) else { usage() };
    let render = flag_value(args, "--render").unwrap_or_else(|| "fast".to_owned());
    let path = format!("/v1/jobs/{scene}/{config}?render={render}");
    match client.get(&path) {
        Ok(resp) if resp.status == 200 => print!("{}", resp.text()),
        Ok(resp) if resp.status == 404 => {
            eprintln!("sms-client: not cached: {scene}/{config} (render={render})");
            std::process::exit(1);
        }
        Ok(resp) => fail(format!("probe: {} {}", resp.status, resp.text().trim())),
        Err(e) => fail(format!("probe: {e}")),
    }
}
