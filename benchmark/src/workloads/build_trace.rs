//! `build_trace`: BVH construction and functional traversal, no cycle
//! model. Build and trace are the write and the read side of one
//! structure, so a change that speeds one and slows the other shows here.

use super::{note_coverage, ratio, split_overhead, Ctx, Passes, Report, Series};
use crate::golden::render_digest;
use crate::host;
use crate::stats::median;
use sms_sim::bvh::BuildParams;
use sms_sim::config::RenderConfig;
use sms_sim::render::{self, PreparedScene, RenderOutput};
use sms_sim::scene::{Scene, SceneId};

/// How often setup is repeated (its median is `setup_s`).
const SETUP_PASSES: usize = 5;

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let pinned = ctx.pinned();
    let traced = ctx.traced;
    // The five largest scenes are built by both builders; two small ones
    // with very different traversal (thin long triangles; pure spheres)
    // join them for the renders.
    let (big, side): (&[SceneId], u32) = if ctx.smoke {
        (&[SceneId::Bunny, SceneId::Crnvl], 32)
    } else {
        (&[SceneId::Lands, SceneId::Robot, SceneId::Car, SceneId::Frst, SceneId::Park], 256)
    };
    let extra = [SceneId::Ship, SceneId::Wknd];
    let mut config = RenderConfig::custom(side, side, 1);
    config.seed = ctx.seed;
    let res = format!("{side}x{side}x1");
    let hlbvh = BuildParams::hlbvh(1);

    // --- setup -------------------------------------------------------------
    let (mut setup_times, mut gen_times) = (Vec::new(), Vec::new());
    let mut small: Vec<PreparedScene> = Vec::new();
    let mut prims = 0usize;
    ctx.tracer.set_armed(traced);
    for rep in 0..SETUP_PASSES {
        ctx.tracer.set_rep(rep as u32);
        let pacer = &mut ctx.pacer;
        let ((scenes, gen_s, small_s), _) = ctx.tracer.timed("setup", "", |t| {
            let (mut gen_s, mut small_s) = (0.0, 0.0);
            prims = 0;
            for id in big {
                let (scene, time) = pacer.cell(t, "scene.gen", id.name(), |_| Scene::build(*id));
                gen_s += time.paced;
                prims += scene.prims.len();
                drop(std::hint::black_box(scene));
            }
            let mut scenes = Vec::with_capacity(extra.len());
            for id in &extra {
                let (p, time) =
                    pacer.cell(t, "bvh.prepare", id.name(), |_| PreparedScene::build(*id, &config));
                small_s += time.paced;
                scenes.push(p);
            }
            (scenes, gen_s, small_s)
        });
        small = scenes;
        setup_times.push(gen_s + small_s);
        gen_times.push(gen_s);
    }

    // --- measuring window ----------------------------------------------------
    let mut default_builds: Vec<Series> = Vec::new();
    let mut hlbvh_builds: Vec<Series> = Vec::new();
    let mut renders: Vec<Series> = Vec::new();
    for id in big {
        default_builds.push(Series::new(format!("default/{id}")));
        hlbvh_builds.push(Series::new(format!("hlbvh/{id}")));
    }
    for id in big.iter().chain(&extra) {
        renders.push(Series::new(format!("default/{id}")));
    }
    let mut outputs: Vec<RenderOutput> = Vec::new();
    let mut resident_mb = 0.0;
    let mut pass_times: Vec<f64> = Vec::new();
    let mut passes = Passes::open(ctx, 1);
    loop {
        let index = passes.begin(&mut ctx.tracer);
        let (check, pacer) = (&mut ctx.check, &mut ctx.pacer);
        let rss_before = host::own_rss_mib();
        let mut check_s = 0.0;
        let ((), wall) = ctx.tracer.timed("rep", "", |t| {
            let mut built: Vec<PreparedScene> = Vec::with_capacity(big.len());
            for (i, id) in big.iter().enumerate() {
                let (p, time) = pacer.cell(t, "bvh.prepare", &default_builds[i].label, |_| {
                    PreparedScene::build(*id, &config)
                });
                default_builds[i].push(time);
                check.op(!p.scene.prims.is_empty(), || format!("{id}: empty scene"));
                built.push(p);
                let (h, time) = pacer.cell(t, "bvh.prepare", &hlbvh_builds[i].label, |_| {
                    PreparedScene::build_with(*id, &config, &hlbvh)
                });
                hlbvh_builds[i].push(time);
                // What the HLBVH builder produced is only observable by
                // traversing it: render it once, in the discarded pass.
                if index == 0 {
                    let (out, secs) = t.timed("bvh.check", &hlbvh_builds[i].label, |_| {
                        render::render(&h, &config)
                    });
                    check_s += secs;
                    pacer.rest();
                    let key = format!("{res}/{}", hlbvh_builds[i].label);
                    let ok = check.digest(&key, render_digest(&out), pinned);
                    check.op(ok, || format!("{key}: render digest mismatch"));
                } else {
                    check.op(h.scene.prims.len() == built[i].scene.prims.len(), || {
                        format!("{id}: builders disagree on the primitive count")
                    });
                }
                t.timed("bvh.drop", &hlbvh_builds[i].label, |_| drop(h));
            }
            if index == 0 {
                resident_mb = (host::own_rss_mib() - rss_before).max(0.0);
            }
            outputs.clear();
            for (i, p) in built.iter().chain(&small).enumerate() {
                let (out, time) =
                    pacer.cell(t, "bvh.trace", &renders[i].label, |_| render::render(p, &config));
                renders[i].push(time);
                let key = format!("{res}/{}", renders[i].label);
                let ok = check.digest(&key, render_digest(&out), pinned);
                check.op(ok, || format!("{key}: render digest mismatch"));
                outputs.push(out);
            }
            t.timed("bvh.drop", "default", |_| drop(built));
        });
        let cells = default_builds.iter().chain(&hlbvh_builds).chain(&renders);
        pass_times.push(cells.map(|s| s.paced[index]).sum());
        if !passes.again(wall - check_s) {
            break;
        }
    }
    let measured = passes.measured();

    // --- metrics -------------------------------------------------------------
    let total = |series: &[Series]| series.iter().map(Series::median).sum::<f64>();
    let (default_s, hlbvh_s, trace_s) =
        (total(&default_builds), total(&hlbvh_builds), total(&renders));
    let cells = default_builds.len() + hlbvh_builds.len() + renders.len();
    for series in default_builds.iter().chain(&hlbvh_builds) {
        report.timing(format!("bvh.prepare {}", series.label), &series.paced[1..]);
    }
    for series in &renders {
        report.timing(format!("bvh.trace {}", series.label), &series.paced[1..]);
    }
    report.timing("rep", &pass_times[1..]);
    report.timing("setup", &setup_times);

    report.e2e("setup_s", median(&setup_times));
    report.e2e("cells_per_s", ratio(cells as f64, default_s + hlbvh_s + trace_s));
    report.e2e("sweep_p50_ms", median(&pass_times[1..]) * 1e3);
    report.e2e("peak_rss_mb", host::own_peak_rss_mib());

    let gen_s = median(&gen_times);
    let rays: u64 = outputs.iter().map(|o| o.rays + o.shadow_rays).sum();
    // All renders' stack depths in one histogram (the first, plus the rest).
    let mut depths = outputs[0].depths.clone();
    for out in &outputs[1..] {
        depths.merge(&out.depths);
    }
    report.layer("scene.gen_s", gen_s);
    report.layer("scene.prims", prims as f64);
    report.layer("bvh.build_default_s", (default_s - gen_s).max(0.0));
    report.layer("bvh.build_hlbvh_s", (hlbvh_s - gen_s).max(0.0));
    report.layer("bvh.build_prims_per_s", ratio(2.0 * prims as f64, default_s + hlbvh_s));
    report.layer("bvh.trace_s", trace_s);
    report.layer("bvh.trace_rays_per_s", ratio(rays as f64, trace_s));
    report.layer("bvh.ns_per_ray", ratio(trace_s * 1e9, rays as f64));
    report.layer("bvh.rays", rays as f64);
    report.layer("bvh.depth_p50", depths.quantile(0.5) as f64);
    report.layer("bvh.depth_p99", depths.quantile(0.99) as f64);
    report.layer("bvh.depth_max", depths.max() as f64);
    report.layer("bvh.resident_mb", resident_mb);
    report.layer("bench.passes", measured as f64);

    let all = || default_builds.iter().chain(&hlbvh_builds).chain(&renders);
    if traced {
        report.layer("bench.trace_overhead_pct", split_overhead(all(), &passes.kept));
        note_coverage(ctx, &mut report);
    }
    report.layer("bench.speed_factor", ctx.pacer.speed_factor());
    let raw_s: f64 = all().map(Series::raw_median).sum();
    report.notes.push(format!(
        "paced {:.4} s a pass (sum of the cells' medians); as measured {raw_s:.4} s",
        default_s + hlbvh_s + trace_s
    ));
    report.notes.push(format!(
        "{cells} cells ({} builds, {} renders at {res}) x {measured} measured passes after 1 warm-up",
        default_builds.len() + hlbvh_builds.len(),
        renders.len()
    ));
    report
}
