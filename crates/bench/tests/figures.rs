//! The experiment table and its one runner, executed: every declared
//! experiment at the tiny workload on `[WKND, SHIP]` through a cache-less
//! harness, the per-cell fault path, the verdict rules, and
//! EXPERIMENTS.md against the committed `experiments/fast.json`.

use sms_bench::{check, complete, run, run_cells, select, Ctx, Report};
use sms_harness::json::{parse, Json};
use sms_harness::{Harness, HarnessConfig, RunLimits};
use sms_sim::config::RenderConfig;
use sms_sim::experiments::{experiment, Experiment, Reduction, Verdict, EXPERIMENTS, RB_SWEEP};
use sms_sim::report::Grid;
use sms_sim::scene::SceneId;

fn tiny_ctx() -> Ctx {
    let config = HarnessConfig { workers: 2, cache_dir: None, ..HarnessConfig::default() };
    Ctx {
        limits: config.limits,
        harness: Harness::new(config),
        scenes: vec![SceneId::Wknd, SceneId::Ship],
        render: RenderConfig::tiny(),
    }
}

fn by_id(id: &str) -> &'static Experiment {
    EXPERIMENTS.iter().find(|e| e.id == id).unwrap_or_else(|| panic!("no experiment `{id}`"))
}

#[test]
fn every_experiment_runs_with_its_declared_shape_and_orderings() {
    let ctx = tiny_ctx();
    for exp in EXPERIMENTS.iter() {
        let report = run(&ctx, exp).unwrap_or_else(|f| panic!("{}: {f:?}", exp.id));
        let strayed = check(exp, &report, None);
        assert!(strayed.is_empty(), "{}: {strayed:?}", exp.id);
        let Some(grid) = &report.grid else {
            assert_eq!(exp.reduction, Reduction::Custom, "{}: a matrix reduces to a grid", exp.id);
            continue;
        };
        // Rows = scenes + summary (no `deep` row: BATH, PARTY, CHSNT did not run).
        let names: Vec<&str> = grid.rows.iter().map(|r| &*r.0).collect();
        assert_eq!(names[..2], ["WKND", "SHIP"], "{}", exp.id);
        assert_eq!(names.len(), 3, "{}: {names:?}", exp.id);
        // Columns = declared columns (+ the two competitors, + Fig. 14's ratio).
        let extra = match exp.reduction {
            Reduction::Conflicts => vec!["change".to_owned()],
            _ if exp.competitors => vec!["SL".to_owned(), "PRED_12".to_owned()],
            _ => Vec::new(),
        };
        let declared: Vec<String> = exp.columns.iter().map(|c| c.label.clone()).collect();
        assert_eq!(grid.labels, [declared, extra].concat(), "{}", exp.id);
        // Every declared value exists on this run unless its row is a scene that did not run.
        for (row, col) in exp.values {
            let ran = names.contains(row);
            let key = format!("{row}.{}", grid.labels[*col]);
            assert_eq!(report.values.iter().any(|(k, _)| *k == key), ran, "{}: {key}", exp.id);
        }
    }
}

/// The scene-local claims the paper's figures rest on are verdict rules
/// of the table, so the test above (and every `figures` run that includes
/// SHIP) checks them: `RB_2` < `RB_8` < `RB_2+SMS` IPC, `+SK` conflict
/// cycles below `+SH_8`'s, `RB_2+SMS` off-chip accesses below `RB_8`'s.
#[test]
fn ship_orderings_are_declared_and_a_violation_is_reported() {
    let rule = |id: &str| {
        let orderings = by_id(id).verdicts.iter().filter(|v| matches!(v, Verdict::Ordering(..)));
        orderings.copied().collect::<Vec<_>>()
    };
    assert_eq!(rule("fig15a"), [Verdict::Ordering("SHIP", &[1, 0, 2])]);
    assert_eq!(rule("fig14"), [Verdict::Ordering("SHIP", &[1, 0])]);
    assert_eq!(rule("fig15b"), [Verdict::Ordering("SHIP", &[2, 0])]);
    let labels = by_id("fig15a").columns.iter().map(|c| c.label.clone()).collect::<Vec<_>>();
    assert_eq!(labels[..3], ["RB_8", "RB_2", "RB_2+SH_8+SK+RA"]);

    let grid = |ship: Vec<f64>| Grid {
        labels: labels.clone(),
        rows: vec![("SHIP".to_owned(), ship), ("gmean".to_owned(), vec![1.0; 8])],
    };
    let report = |ship| Report { grid: Some(grid(ship)), values: Vec::new() };
    let holds = vec![1.0, 0.7, 1.1, 0.9, 1.2, 1.3, 1.2, 1.3];
    assert!(check(by_id("fig15a"), &report(holds), None).is_empty());
    let rb2_sms_below_baseline = vec![1.0, 0.7, 0.95, 0.9, 1.2, 1.3, 1.2, 1.3];
    let strayed = check(by_id("fig15a"), &report(rb2_sms_below_baseline), None);
    assert_eq!(strayed.len(), 1, "{strayed:?}");
    assert!(strayed[0].starts_with("SHIP: columns [1, 0, 2] do not rise"), "{strayed:?}");
    // A run without SHIP has nothing to check the rule on.
    let mut no_ship = report(vec![1.0; 8]);
    no_ship.grid.as_mut().unwrap().rows.remove(0);
    assert!(check(by_id("fig15a"), &no_ship, None).is_empty());
}

#[test]
fn recorded_value_rules_compare_printed_values() {
    let recorded = parse(r#"{"t.gmean.a": "+8.7%", "t.gmean.b": "1.84x"}"#).unwrap();
    let report = |a: &str, b: &str| Report {
        grid: None,
        values: vec![("gmean.a".to_owned(), a.to_owned()), ("gmean.b".to_owned(), b.to_owned())],
    };
    let exact = experiment("t", "T", "test");
    assert_eq!(exact.verdicts, [Verdict::Exact]);
    assert!(check(&exact, &report("+8.7%", "1.84x"), Some(&recorded)).is_empty());
    let strayed = check(&exact, &report("+8.8%", "1.84x"), Some(&recorded));
    assert_eq!(strayed, ["gmean.a = +8.8% left Exact of the recorded +8.7%"]);
    // Not comparable (a subset or another tier): nothing recorded to leave.
    assert!(check(&exact, &report("+1.0%", "9.99x"), None).is_empty());

    let within = Experiment { verdicts: vec![Verdict::WithinPp(0.5)], ..exact.clone() };
    assert!(check(&within, &report("+9.2%", "1.50x"), Some(&recorded)).is_empty());
    let strayed = check(&within, &report("+9.3%", "1.84x"), Some(&recorded));
    assert_eq!(strayed, ["gmean.a = +9.3% left WithinPp(0.5) of the recorded +8.7%"]);
    // A key with no record strays under either rule.
    let unrecorded = Report { grid: None, values: vec![("new".to_owned(), "1".to_owned())] };
    for exp in [&exact, &within] {
        let strayed = check(exp, &unrecorded, Some(&recorded));
        assert!(strayed[0].ends_with("of the recorded nothing"), "{strayed:?}");
    }
}

#[test]
fn ids_are_unique_and_each_selects_its_experiment() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    for (i, id) in ids.iter().enumerate() {
        assert!(!ids[..i].contains(id), "duplicate id {id}");
        let selected = select(&[id.to_string()]).unwrap();
        assert_eq!(selected.len(), 1);
        assert!(std::ptr::eq(selected[0], &EXPERIMENTS[i]));
    }
    assert_eq!(ids[0], "table1");
    assert_eq!(ids[8], "fig13");
    // No id = every experiment, in paper order; several ids = that order.
    let all: Vec<&str> = select(&[]).unwrap().iter().map(|e| e.id).collect();
    assert_eq!(all, ids);
    let two = select(&["fig14".to_owned(), "fig13".to_owned()]).unwrap();
    assert_eq!([two[0].id, two[1].id], ["fig14", "fig13"]);
    let unknown = select(&["fig13_sms_ipc".to_owned()]).unwrap_err();
    assert!(unknown.starts_with("unknown experiment `fig13_sms_ipc` (known: table1, table2, "));
}

#[test]
fn fig15a_and_fig15b_share_the_rb_sweep_declaration() {
    let labels = |id: &str| by_id(id).columns.iter().map(|c| c.label.clone()).collect::<Vec<_>>();
    assert_eq!(labels("fig15a"), RB_SWEEP);
    assert_eq!(by_id("fig15a").columns, by_id("fig15b").columns);
    assert_ne!(by_id("fig15a").reduction, by_id("fig15b").reduction);
}

/// The bug the collapse fixes: `fig06b_l1d_size` and `ablation_stack_bypass`
/// used the panicking `run_batch`, so one watchdog abort took the whole
/// figure down mid-print. A GPU-tweak experiment now reports the cell and
/// keeps the others.
#[test]
fn a_watchdog_abort_in_a_gpu_tweak_column_is_reported_per_cell() {
    let ctx = tiny_ctx();
    let mut exp = by_id("fig06b").clone();
    exp.columns[1].limits = RunLimits { max_cycles: Some(50), ..RunLimits::none() };
    let (labels, cells) = run_cells(&ctx, &exp, &ctx.scenes);
    assert_eq!(labels, ["64KB", "16KB", "32KB", "128KB", "256KB"]);
    for row in &cells {
        for (c, cell) in row.iter().enumerate() {
            match cell {
                Ok(run) => assert!(c != 1 && run.stats.cycles > 50, "column {c}"),
                Err(e) => assert!(c == 1 && e.is_timeout(), "column {c}: {e}"),
            }
        }
    }
    let failures = complete(&ctx.scenes, &labels, cells).unwrap_err();
    assert_eq!(failures.len(), 2, "{failures:?}");
    assert!(failures[0].starts_with("FAILED WKND / 16KB: "), "{failures:?}");
    assert!(failures[1].starts_with("FAILED SHIP / 16KB: "), "{failures:?}");
    assert_eq!(run(&ctx, &exp).err(), Some(failures));
    // The SAH half of `ablation_bvh_quality` runs outside a batch, under
    // the harness-wide limits, and reports the same way.
    let watchdog = RunLimits { max_cycles: Some(50), ..RunLimits::none() };
    let failures = run(&Ctx { limits: watchdog, ..tiny_ctx() }, by_id("ablation_bvh_quality"));
    let failures = failures.err().expect("the SAH cells time out");
    assert_eq!(failures.len(), 2, "{failures:?}");
    assert!(failures[0].starts_with("FAILED WKND / binned-SAH: "), "{failures:?}");
    assert!(failures[1].starts_with("FAILED SHIP / binned-SAH: "), "{failures:?}");
}

/// Fig. 14 printed `--5.0%` for a scene whose conflicts rise under `+SK`.
#[test]
fn a_rise_in_conflict_cycles_prints_one_sign() {
    assert_eq!(sms_sim::report::fmt_improvement(1.05), "+5.0%");
    assert_eq!(sms_sim::report::fmt_improvement(0.21), "-79.0%");
}

// ---- EXPERIMENTS.md against experiments/fast.json ----

/// The text blocks of EXPERIMENTS.md: one per table row, bullet or
/// paragraph, with the typographic minus and times signs as ASCII.
fn doc_blocks() -> Vec<String> {
    let doc = include_str!("../../../EXPERIMENTS.md").replace('−', "-").replace('×', "x");
    let mut blocks = vec![String::new()];
    for line in doc.lines() {
        if line.is_empty() || line.starts_with("| ") || line.starts_with("* ") {
            blocks.push(String::new());
        }
        let block = blocks.last_mut().unwrap();
        block.push_str(line);
        block.push(' ');
    }
    blocks
}

/// `[+-]<digits>.<digits>%` tokens of `text`.
fn signed_percentages(text: &str) -> Vec<&str> {
    let mut found = Vec::new();
    for (start, sign) in text.match_indices(['+', '-']) {
        let rest = &text[start + sign.len()..];
        let digits = |s: &str| s.chars().take_while(char::is_ascii_digit).count();
        let whole = digits(rest);
        let Some(fraction) = rest[whole..].strip_prefix('.') else { continue };
        if whole > 0 && digits(fraction) > 0 && fraction[digits(fraction)..].starts_with('%') {
            found.push(&text[start..start + sign.len() + whole + 1 + digits(fraction) + 1]);
        }
    }
    found
}

#[test]
fn signed_percentage_scanner() {
    let found = signed_percentages("RB_4 -14.1% -> +6.1%; 78% of FULL, +3.5pp, (-20% … -100.0%)");
    assert_eq!(found, ["-14.1%", "+6.1%", "-100.0%"]);
}

/// Every recorded number is printed in its experiment's block of
/// EXPERIMENTS.md (the results-table row led by `**Fig. 13**`, or the
/// bullet that names `` **`ablation_stack_bypass`** ``), every declared
/// value of a matrix experiment is recorded, and a matrix figure's
/// "Measured" cell cites no signed percentage that is not recorded for it.
#[test]
fn experiments_md_cites_exactly_the_recorded_numbers() {
    let Json::Obj(recorded) = parse(include_str!("../../../experiments/fast.json")).unwrap() else {
        panic!("experiments/fast.json is one object");
    };
    let blocks = doc_blocks();
    for (key, _) in &recorded {
        let id = key.split('.').next().unwrap();
        assert!(EXPERIMENTS.iter().any(|e| e.id == id), "{key}: no experiment `{id}`");
    }
    for exp in EXPERIMENTS.iter() {
        let of_exp = |k: &&(String, Json)| k.0.starts_with(&format!("{}.", exp.id));
        let values: Vec<(&str, &str)> = recorded
            .iter()
            .filter(of_exp)
            .map(|(k, v)| (&**k, v.as_str().expect("recorded values are printed values")))
            .collect();
        for (row, col) in exp.values {
            // Fig. 14's one value is the ratio column its reduction appends.
            let label = exp.columns.get(*col).map_or("change", |c| &c.label);
            let key = format!("{}.{row}.{label}", exp.id);
            assert!(values.iter().any(|(k, _)| *k == key), "{key} is declared but not recorded");
        }
        if values.is_empty() {
            continue;
        }
        let row = blocks.iter().find(|b| b.starts_with(&format!("| **{}** ", exp.figure)));
        let bullet = blocks.iter().find(|b| b.contains(&format!("**`{}`**", exp.id)));
        let block =
            row.or(bullet).unwrap_or_else(|| panic!("EXPERIMENTS.md: no block for {}", exp.id));
        for (key, value) in &values {
            assert!(block.contains(value), "{key} = {value} is not in its block:\n{block}");
        }
        if let (Some(row), true) = (row, exp.reduction != Reduction::Custom) {
            let measured = row.split(" | ").nth(2).expect("| experiment | paper | measured |");
            for cited in signed_percentages(measured) {
                let known = values.iter().any(|(_, v)| *v == cited);
                assert!(known, "{}: EXPERIMENTS.md cites {cited}, which no key records", exp.id);
            }
        }
    }
}
