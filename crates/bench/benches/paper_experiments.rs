//! Regenerates every table and figure of *Timeouts: Beware Surprisingly
//! High Delay* and prints them with paper-vs-measured annotations.
//!
//! Runs as a `harness = false` bench so `cargo bench --workspace` produces
//! the full reproduction transcript. Set `BEWARE_SCALE=small` for a quick
//! pass (the default is the bench scale).

use beware_bench::{experiments, ExperimentCtx, Scale};
use beware_netsim::exec::default_threads;
use std::time::Instant;

fn main() {
    // Respect `cargo bench -- --test` style filter-less invocations; any
    // argument containing "small" (or the env var) drops the scale.
    let args: Vec<String> = std::env::args().collect();
    let small = std::env::var("BEWARE_SCALE").map(|v| v == "small").unwrap_or(false)
        || args.iter().any(|a| a.contains("small"));
    let scale = if small { Scale::small() } else { Scale::bench() };
    let threads = default_threads();
    println!("== beware paper experiments (scale: {scale:?}, {threads} thread(s)) ==\n");

    let t0 = Instant::now();
    let ctx = ExperimentCtx::build(scale);
    println!(
        "[shared context] surveys {} + {} ({} + {} records), {} zmap scans — built in {:?}\n",
        ctx.survey_w.meta.display_name(),
        ctx.survey_c.meta.display_name(),
        ctx.survey_w.records.len(),
        ctx.survey_c.records.len(),
        ctx.scans.len(),
        t0.elapsed(),
    );

    let step = |name: &str, body: &dyn Fn() -> String| {
        let t = Instant::now();
        let text = body();
        println!("---- {name} ({:.3}s) ----", t.elapsed().as_secs_f64());
        println!("{text}");
    };

    step("Figure 1", &|| experiments::fig1::run(&ctx).render());
    step("Figures 2-3", &|| experiments::fig2_3::run(&ctx).render());
    step("Figure 4", &|| experiments::fig4::run(scale.seed).render());
    step("Figure 5", &|| experiments::fig5::run(&ctx).render());
    step("Table 1", &|| experiments::table1::run(&ctx).render());
    step("Table 2", &|| experiments::table2::run(&ctx).render());
    step("Figure 6", &|| experiments::fig6::run(&ctx).render());
    step("Figure 7 / Table 3", &|| experiments::fig7::run(&ctx).render());
    step("Figure 8", &|| experiments::fig8::run(&ctx).render());
    step("Figure 9", &|| experiments::fig9::run(&scale).render());
    step("Figure 10", &|| experiments::fig10::run(&ctx).render());
    step("Figure 11", &|| experiments::fig11::run(&ctx).render());
    step("Figures 12-14", &|| experiments::fig12_14::run(&ctx).render());
    step("Tables 4-6", &|| experiments::table4_6::run(&ctx).render());
    step("Table 7", &|| experiments::table7::run(&ctx).render());
    step("Ablation: broadcast filter", &|| experiments::ablation::run(&ctx).render());
    step("Section 7 recommendation", &|| experiments::recommendation::run(&ctx).render());

    println!("== all experiments regenerated in {:?} ==", t0.elapsed());
}
