//! Property: under any stack configuration — the stack-free `SL` and the
//! `PRED_*` competitors included — the cycle simulator renders the image
//! the functional renderer renders, the `StackValidator` stays silent and
//! the run never stalls. `sim_correctness.rs` pins five hand-picked
//! configurations; this draws them, on every scene of the suite.

mod common;

use common::sms_params;
use sms_geom::check::{for_cases, Gen};
use sms_rtunit::StackConfig;
use sms_scene::SceneId;
use sms_sim::config::{RenderConfig, SimConfig};
use sms_sim::render::{render, PreparedScene};
use sms_sim::{GpuSim, RunLimits};

/// Cases for the four scenes drawn longest (~20 ms a case).
const CASES: u64 = 64;
/// Cases for each of the other twelve scenes.
const CASES_PER_SCENE: u64 = 16;
/// Far above the longest memory round trip (~400 cycles).
const STALL_CYCLES: u64 = 10_000;

fn stack_config(g: &mut Gen) -> StackConfig {
    match g.int(0, 7) {
        0 => StackConfig::Baseline { rb_entries: g.int(1, 16) },
        1 => StackConfig::FullOnChip,
        2 => StackConfig::Stackless,
        3 => StackConfig::Predictor { table_bits: g.int(1, 13) as u32 },
        _ => {
            let realloc = g.chance(0.5);
            StackConfig::Sms(sms_params(g, 0, realloc))
        }
    }
}

fn sim_image_matches_render(id: SceneId, cases: u64) {
    let prepared = PreparedScene::build(id, &RenderConfig::tiny());
    for_cases(cases, id as u64, |g| {
        let stack = stack_config(g);
        let cfg = RenderConfig { seed: g.rng.next_u64(), ..RenderConfig::tiny() };
        let limits =
            RunLimits { validate: true, stall_cycles: Some(STALL_CYCLES), ..RunLimits::none() };
        let sim = GpuSim::new(&prepared, SimConfig::with_stack(stack, cfg))
            .with_limits(limits)
            .try_run()
            .unwrap_or_else(|fault| panic!("{id:?} {stack} seed {}: {fault}", cfg.seed));
        let reference = render(&prepared, &cfg);
        assert_eq!((sim.width, sim.image.len()), (reference.width, reference.image.len()));
        let spp = cfg.spp(id) as f32;
        for (i, (a, b)) in sim.image.iter().zip(&reference.image).enumerate() {
            let a = *a / spp;
            assert!((a - *b).length() < 1e-6, "{id:?} {stack} seed {}: pixel {i}", cfg.seed);
        }
    });
}

#[test]
fn ship() {
    sim_image_matches_render(SceneId::Ship, CASES);
}

#[test]
fn wknd() {
    sim_image_matches_render(SceneId::Wknd, CASES);
}

#[test]
fn party() {
    sim_image_matches_render(SceneId::Party, CASES);
}

#[test]
fn bunny() {
    sim_image_matches_render(SceneId::Bunny, CASES);
}

#[test]
fn sprng() {
    sim_image_matches_render(SceneId::Sprng, CASES_PER_SCENE);
}

#[test]
fn fox() {
    sim_image_matches_render(SceneId::Fox, CASES_PER_SCENE);
}

#[test]
fn lands() {
    sim_image_matches_render(SceneId::Lands, CASES_PER_SCENE);
}

#[test]
fn crnvl() {
    sim_image_matches_render(SceneId::Crnvl, CASES_PER_SCENE);
}

#[test]
fn spnza() {
    sim_image_matches_render(SceneId::Spnza, CASES_PER_SCENE);
}

#[test]
fn bath() {
    sim_image_matches_render(SceneId::Bath, CASES_PER_SCENE);
}

#[test]
fn robot() {
    sim_image_matches_render(SceneId::Robot, CASES_PER_SCENE);
}

#[test]
fn car() {
    sim_image_matches_render(SceneId::Car, CASES_PER_SCENE);
}

#[test]
fn frst() {
    sim_image_matches_render(SceneId::Frst, CASES_PER_SCENE);
}

#[test]
fn ref_scene() {
    sim_image_matches_render(SceneId::Ref, CASES_PER_SCENE);
}

#[test]
fn chsnt() {
    sim_image_matches_render(SceneId::Chsnt, CASES_PER_SCENE);
}

#[test]
fn park() {
    sim_image_matches_render(SceneId::Park, CASES_PER_SCENE);
}
