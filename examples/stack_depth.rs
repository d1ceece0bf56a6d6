//! Stack-depth analysis across the benchmark suite — the data behind the
//! paper's motivation (Figs. 4 and 5).
//!
//! ```text
//! cargo run --release --example stack_depth
//! SMS_SCENES=SHIP,PARTY cargo run --release --example stack_depth
//! ```

use sms_sim::analyze::{depth_buckets, measure_all};
use sms_sim::config::RenderConfig;
use sms_sim::experiments::scene_list;
use sms_sim::report::{fmt_pct, Table};

fn main() {
    let env = sms_sim::Env::capture().reported();
    let cfg = RenderConfig::from_env(&env);
    let scenes = scene_list(&env).unwrap_or_else(|e| panic!("{e}"));
    println!("Measuring traversal-stack depths on {} scenes...\n", scenes.len());
    let (rows, total) = measure_all(&cfg, &scenes);

    let mut table =
        Table::new(["scene", "ops", "max", "mean", "median", "<=4", "5-8", "9-16", ">16"]);
    for r in &rows {
        let b = depth_buckets(&r.recorder);
        table.row([
            r.id.name().to_owned(),
            r.recorder.count().to_string(),
            r.recorder.max().to_string(),
            format!("{:.2}", r.recorder.mean()),
            r.recorder.quantile(0.5).to_string(),
            fmt_pct(b[0]),
            fmt_pct(b[1]),
            fmt_pct(b[2]),
            fmt_pct(b[3]),
        ]);
    }
    let b = depth_buckets(&total);
    table.row([
        "ALL".to_owned(),
        total.count().to_string(),
        total.max().to_string(),
        format!("{:.2}", total.mean()),
        total.quantile(0.5).to_string(),
        fmt_pct(b[0]),
        fmt_pct(b[1]),
        fmt_pct(b[2]),
        fmt_pct(b[3]),
    ]);
    println!("{table}");
    println!(
        "Paper reference (Figs. 4-5): mean 4-5, max ~30; 17% of steps need 9-16 \
         entries, 1.9% exceed 16."
    );
}
