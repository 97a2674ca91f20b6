//! `md_cu_fp32`: one solo `Engine` trajectory (NVE, Mix32, production
//! copper model, 864 atoms) stepped in a closed loop.

use std::time::Instant;

use deepmd::model::DeepPotModel;
use dpmd_core::Engine;
use minimd::integrate::kinetic_energy;
use minimd::sim::Simulation;
use nnet::precision::Precision;

use super::{digest, forces_finite, phase_children, repeat_setup, DIGEST_SEED, WARMUP_STEPS};
use crate::gemm::{self, set_gemm, GEMM_BUDGET};
use crate::gen::{self, CopperInput, TEMPERATURE};
use crate::record::pool_width;
use crate::spans::Tracer;
use crate::{Args, Report, Step};

/// Build the engine: model weights, precision casts, pool, initial
/// neighbour list and the initial force evaluation.
pub fn build_engine(input: &CopperInput, precision: Precision) -> Engine {
    Engine::builder()
        .copper_cells(input.cells)
        .with_model(DeepPotModel::new(input.config.clone()))
        .precision(precision)
        .temperature(TEMPERATURE)
        .nve()
        .seed(input.seed)
        .threads(pool_width())
        .build()
}

/// Count a completed step; a non-finite energy or force fails it.
fn account(r: &mut Report, etotal: f64, sim: &Simulation) {
    r.attempted += 1;
    if !(etotal.is_finite() && forces_finite(&sim.atoms)) {
        r.failed += 1;
    }
}

/// `Simulation::step` replayed through the layers' public calls, one span
/// per call. `k` is the number of steps the simulation has taken.
fn traced_step(sim: &mut Simulation, k: u64, t: &mut Tracer) -> f64 {
    let step = t.begin("step");
    t.span("minimd.integrate", || {
        sim.integrator.first_half(&mut sim.atoms, &sim.bx)
    });
    let cadence = sim.rebuild_every > 0 && (k + 1).is_multiple_of(sim.rebuild_every);
    if cadence || sim.nl.needs_rebuild(&sim.atoms, &sim.bx) {
        t.span("minimd.neighbor.build", || {
            sim.nl.build(&sim.atoms, &sim.bx)
        });
    }
    sim.atoms.zero_forces();
    let force = t.begin("deepmd.force");
    let out = sim.potential.compute(&mut sim.atoms, &sim.nl, &sim.bx);
    t.end(force);
    if let Some(p) = sim.potential.phase_times() {
        t.lay_out(force, &phase_children(p));
    }
    t.span("minimd.integrate", || {
        sim.integrator.second_half(&mut sim.atoms)
    });
    t.end(step);
    out.energy + kinetic_energy(&sim.atoms)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let input = gen::md_cu_fp32(args.seed)?;
    let mut r = Report::default();
    let (mut engine, setup_s) = repeat_setup(|| build_engine(&input, Precision::Mix32));
    let dt_fs = engine.timestep_fs();
    let atoms = input.atoms() as f64;
    let sim = engine.simulation_mut();
    for _ in 0..WARMUP_STEPS {
        let th = sim.step();
        account(&mut r, th.etotal, sim);
    }
    // Untraced runs measure the whole budget; traced runs measure half
    // untraced, then replay the same steps traced.
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let mut steps = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        let ts = Instant::now();
        let th = sim.step();
        steps.push(Step {
            ms: ts.elapsed().as_secs_f64() * 1e3,
            atom_steps: atoms,
            sim_fs: dt_fs,
        });
        account(&mut r, th.etotal, sim);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let n = steps.len() as u64;
    if !args.trace {
        r.end_to_end(&setup_s, &steps);
    } else {
        let untraced_digest = digest(&sim.atoms, DIGEST_SEED);
        let mut replay = build_engine(&input, Precision::Mix32);
        let sim2 = replay.simulation_mut();
        let mut t = Tracer::new(args.seed);
        for k in 0..WARMUP_STEPS {
            let e = traced_step(sim2, k, &mut t);
            account(&mut r, e, sim2);
        }
        t.clear();
        let t1 = Instant::now();
        for k in WARMUP_STEPS..WARMUP_STEPS + n {
            let e = traced_step(sim2, k, &mut t);
            account(&mut r, e, sim2);
        }
        let traced_s = t1.elapsed().as_secs_f64();
        let traced_digest = digest(&sim2.atoms, DIGEST_SEED);
        r.check(
            "traced_digest_equals_untraced",
            traced_digest == untraced_digest,
            format!(
                "{traced_digest:016x} vs {untraced_digest:016x} after {} steps",
                n + WARMUP_STEPS
            ),
        );
        let per = |name: &str| t.total_ms(name) / n as f64;
        r.set("minimd.neighbor.build_ms", per("minimd.neighbor.build"));
        r.set(
            "minimd.neighbor.builds",
            t.count("minimd.neighbor.build") as f64 / n as f64,
        );
        r.set("minimd.integrate.ms_per_step", per("minimd.integrate"));
        r.set("step.coverage", t.coverage("step"));
        r.set("deepmd.force.ms_per_step", per("deepmd.force"));
        r.set("deepmd.force.descriptor_ms", per("deepmd.force.descriptor"));
        r.set("deepmd.force.embedding_ms", per("deepmd.force.embedding"));
        r.set("deepmd.force.fitting_ms", per("deepmd.force.fitting"));
        r.set("deepmd.force.reduction_ms", per("deepmd.force.reduction"));
        r.set("deepmd.force.coverage", t.coverage("deepmd.force"));
        let widths = &input.config.fitting_widths;
        set_gemm(
            &mut r,
            [
                "nnet.gemm.fit_m1.f32.gflops",
                "nnet.gemm.fit_m1.f32.flops",
                "nnet.gemm.fit_m1.f32.bytes",
            ],
            gemm::f32_rate(&[(1, widths[1], widths[0])], GEMM_BUDGET),
        );
        set_gemm(
            &mut r,
            [
                "nnet.gemm.embed.f32.gflops",
                "nnet.gemm.embed.f32.flops",
                "nnet.gemm.embed.f32.bytes",
            ],
            gemm::f32_rate(&input.embedding_gemms(), GEMM_BUDGET),
        );
        r.finish_trace(t, wall_s, traced_s);
    }
    r.check(
        "energies_and_forces_finite",
        r.failed == 0,
        format!("{} of {} steps failed", r.failed, r.attempted),
    );
    Ok(r)
}
