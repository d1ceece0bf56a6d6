//! Renders benchmark scenes to PPM images with the functional path tracer
//! (and optionally through the cycle simulator, which produces the
//! bit-identical image while measuring cycles).
//!
//! ```text
//! cargo run --release --example render [SCENE ...]          # functional
//! cargo run --release --example render -- --sim [SCENE ...] # via the simulator
//! ```
//!
//! Images are written to `target/renders/<scene>.ppm`.

use sms_sim::config::{RenderConfig, SimConfig};
use sms_sim::render::{render, write_ppm, PreparedScene, RenderOutput};
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--sim");
    let via_sim = !flags.is_empty();
    let args: Vec<SceneId> = names.iter().map(|s| s.parse().expect("unknown scene name")).collect();
    let scenes = if args.is_empty() {
        vec![SceneId::Wknd, SceneId::Ship, SceneId::Ref, SceneId::Bunny]
    } else {
        args
    };
    let env = sms_sim::Env::capture().reported();
    let cfg = RenderConfig::from_env(&env);

    let dir = std::path::Path::new("target/renders");
    std::fs::create_dir_all(dir)?;

    for id in scenes {
        let t0 = std::time::Instant::now();
        let prepared = PreparedScene::build(id, &cfg);
        let out: RenderOutput = if via_sim {
            let sim = sms_sim::sim::run_to_image(
                &prepared,
                &SimConfig::with_stack(StackConfig::sms_default(), cfg),
            );
            println!("{id}: simulated {} cycles at IPC {:.2}", sim.stats.cycles, sim.stats.ipc());
            RenderOutput {
                image: sim.image,
                width: sim.width,
                height: sim.height,
                // Stack depths are the functional renderer's to record.
                depths: Default::default(),
                rays: sim.stats.rays_traced,
                shadow_rays: sim.stats.shadow_rays,
            }
        } else {
            render(&prepared, &cfg)
        };
        let path = dir.join(format!("{}.ppm", id.name().to_lowercase()));
        write_ppm(&out, &path)?;
        println!(
            "{id}: {}x{}, {} rays ({} shadow), max stack depth {} -> {} [{:?}]",
            out.width,
            out.height,
            out.rays,
            out.shadow_rays,
            out.depths.max(),
            path.display(),
            t0.elapsed(),
        );
    }
    Ok(())
}
