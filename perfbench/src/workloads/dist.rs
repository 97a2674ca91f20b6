//! `dist_cu_node`: `DistributedSim` with the node-based exchange, 2,916
//! copper atoms over 32 ranks, stepped stride by stride.

use std::sync::Arc;
use std::time::Instant;

use deepmd::engine::DpEngine;
use deepmd::model::DeepPotModel;
use dpmd_comm::driver::DistributedSim;
use dpmd_comm::functional::{
    apply_forward_messages, apply_reverse_messages, build_forward_messages, build_reverse_messages,
    ExchangeScheme,
};
use dpmd_comm::plan::{ATOM_FORWARD_BYTES, ATOM_REVERSE_BYTES};
use dpmd_threads::ThreadPool;
use minimd::atoms::Atoms;
use minimd::domain::Decomposition;
use minimd::integrate::{kinetic_energy, VelocityVerlet};
use minimd::migrate::exchange_atoms;
use minimd::neighbor::{ListKind, NeighborList};
use minimd::potential::Potential;
use minimd::sim::Simulation;
use minimd::units::FEMTOSECOND;
use nnet::precision::Precision;

use super::{digest, phase_children, repeat_setup, SharedEngine, DIGEST_SEED, WARMUP_STEPS};
use crate::gen::{self, DistInput, DIST_SKIN};
use crate::record::pool_width;
use crate::spans::Tracer;
use crate::{Args, Report, Step};

/// Time-step of the distributed workload, fs.
const DT_FS: f64 = 1.0;

/// Largest gathered-position distance from the single-box reference, Å.
const MAX_DEVIATION: f64 = 1e-8;

/// Strides after which the gathered positions are compared with the
/// single-box reference (or fewer, if the run is shorter).
const CHECK_STRIDES: u64 = 60;

fn engine(input: &DistInput) -> Arc<DpEngine> {
    Arc::new(
        DpEngine::new(DeepPotModel::new(input.config.clone()), Precision::Mix32)
            .with_pool(Arc::new(ThreadPool::new(pool_width()))),
    )
}

fn integrator() -> VelocityVerlet {
    VelocityVerlet::new(DT_FS * FEMTOSECOND)
}

fn build<'p>(input: &DistInput, pot: &'p DpEngine) -> DistributedSim<'p> {
    DistributedSim::new(
        Decomposition::new(input.bx, input.nodes),
        &input.global,
        pot,
        integrator(),
        ExchangeScheme::NodeBased,
        input.rebuild_every,
    )
}

fn account(r: &mut Report, pe: f64, ke: f64) {
    r.attempted += 1;
    if !(pe.is_finite() && ke.is_finite()) {
        r.failed += 1;
    }
}

/// Keep the gathered atoms for the reference check once the run reaches
/// `CHECK_STRIDES`.
fn snapshot_at_check(sim: &DistributedSim<'_>, checked: &mut Option<(Atoms, u64)>) {
    if sim.step_index() == CHECK_STRIDES {
        *checked = Some((sim.gather(), CHECK_STRIDES));
    }
}

/// Ghost count and forward/reverse bytes of the traced strides.
#[derive(Default)]
struct CommCounts {
    ghosts: u64,
    bytes: u64,
}

/// Forward halo exchange as `DistributedSim` runs it (clear ghosts, build
/// the canonical messages, apply them).
fn exchange(sim: &mut DistributedSim<'_>, t: &mut Tracer, c: &mut CommCounts) {
    t.span("comm.exchange", || {
        for a in &mut sim.ranks {
            a.clear_ghosts();
        }
        let msgs = build_forward_messages(&sim.decomp, &sim.ranks, sim.halo, sim.scheme, false);
        apply_forward_messages(
            &sim.decomp,
            &mut sim.ranks,
            sim.halo,
            sim.scheme,
            false,
            &msgs,
        );
        c.bytes += msgs
            .iter()
            .map(|m| (m.payload.len() * ATOM_FORWARD_BYTES) as u64)
            .sum::<u64>();
    });
    c.ghosts += sim.ranks.iter().map(|a| a.nghost() as u64).sum::<u64>();
}

/// `DistributedSim::stride` replayed through the public calls it makes,
/// with the benchmark's own per-rank neighbour lists. `k` is the number of
/// strides already taken.
fn traced_stride(
    sim: &mut DistributedSim<'_>,
    nls: &mut [NeighborList],
    k: u64,
    t: &mut Tracer,
    c: &mut CommCounts,
) -> (f64, f64) {
    let stride = t.begin("step");
    t.span("minimd.integrate", || {
        for a in &mut sim.ranks {
            sim.integrator.first_half_unwrapped(a);
        }
    });
    let step = k + 1;
    if sim.rebuild_every > 0 && step.is_multiple_of(sim.rebuild_every) {
        t.span("comm.migrate", || {
            for a in &mut sim.ranks {
                a.clear_ghosts();
            }
            exchange_atoms(&sim.decomp, &mut sim.ranks);
        });
    }
    exchange(sim, t, c);
    let bx = sim.decomp.bx;
    t.span("minimd.neighbor.build", || {
        for (a, nl) in sim.ranks.iter().zip(nls.iter_mut()) {
            nl.build(a, &bx);
        }
    });
    let force = t.begin("deepmd.force");
    let mut pe = 0.0;
    for (a, nl) in sim.ranks.iter_mut().zip(nls.iter()) {
        a.zero_forces();
        let call = t.begin("deepmd.force.rank_call");
        pe += sim.potential.compute(a, nl, &bx).energy;
        t.end(call);
        if let Some(p) = sim.potential.phase_times() {
            t.lay_out(call, &phase_children(p));
        }
    }
    t.end(force);
    t.span("comm.reverse", || {
        let msgs = build_reverse_messages(&sim.ranks);
        apply_reverse_messages(&mut sim.ranks, &msgs);
        c.bytes += msgs
            .iter()
            .map(|m| (m.payload.len() * ATOM_REVERSE_BYTES) as u64)
            .sum::<u64>();
    });
    let ke = t.span("minimd.integrate", || {
        let mut ke = 0.0;
        for a in &mut sim.ranks {
            sim.integrator.second_half(a);
            ke += kinetic_energy(a);
        }
        ke
    });
    t.end(stride);
    (pe, ke)
}

/// Step a single-box `Simulation` on the same engine for `steps` steps and
/// return the largest distance between its atoms and `gathered`.
fn reference_deviation(
    input: &DistInput,
    pot: &Arc<DpEngine>,
    gathered: &Atoms,
    steps: u64,
) -> f64 {
    let mut reference = Simulation::new(
        input.bx,
        input.global.clone(),
        Box::new(SharedEngine(Arc::clone(pot))),
        integrator(),
        DIST_SKIN,
        input.rebuild_every,
    );
    for _ in 0..steps {
        reference.step();
    }
    let by_id: std::collections::BTreeMap<u64, minimd::vec3::Vec3> = (0..reference.atoms.nlocal)
        .map(|i| (reference.atoms.id[i], reference.atoms.pos[i]))
        .collect();
    let mut worst = if gathered.nlocal == by_id.len() {
        0.0f64
    } else {
        f64::INFINITY
    };
    for i in 0..gathered.nlocal {
        worst = worst.max(match by_id.get(&gathered.id[i]) {
            Some(&p) => input.bx.min_image(gathered.pos[i], p).norm(),
            None => f64::INFINITY,
        });
    }
    worst
}

pub fn run(args: &Args) -> Result<Report, String> {
    let input = gen::dist_cu_node(args.seed)?;
    let mut r = Report::default();
    // Set-up covers the engine, the partition, the first exchange and the
    // initial force evaluation. The simulation borrows its engine, so the
    // engine is kept and the simulation rebuilt from it.
    let (pot, setup_s) = repeat_setup(|| {
        let pot = engine(&input);
        drop(build(&input, &pot));
        pot
    });
    let mut sim = build(&input, &pot);
    let mut checked: Option<(Atoms, u64)> = None;
    for _ in 0..WARMUP_STEPS {
        let (pe, ke) = sim.stride();
        account(&mut r, pe, ke);
        snapshot_at_check(&sim, &mut checked);
    }
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let natoms = input.global.nlocal as f64;
    let mut steps = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        let ts = Instant::now();
        let (pe, ke) = sim.stride();
        steps.push(Step {
            ms: ts.elapsed().as_secs_f64() * 1e3,
            atom_steps: natoms,
            sim_fs: DT_FS,
        });
        account(&mut r, pe, ke);
        snapshot_at_check(&sim, &mut checked);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let n = steps.len() as u64;
    let total = n + WARMUP_STEPS;
    let (gathered, checked_at) = checked.unwrap_or_else(|| (sim.gather(), total));
    if !args.trace {
        r.end_to_end(&setup_s, &steps);
    } else {
        let untraced_digest = digest(&sim.gather(), DIGEST_SEED);
        drop(sim);
        let mut replay = build(&input, &pot);
        let skin = replay.halo - pot.cutoff();
        let mut nls: Vec<NeighborList> = (0..replay.ranks.len())
            .map(|_| NeighborList::new(pot.cutoff(), skin, ListKind::Full))
            .collect();
        let mut t = Tracer::new(args.seed);
        let mut c = CommCounts::default();
        for k in 0..WARMUP_STEPS {
            let (pe, ke) = traced_stride(&mut replay, &mut nls, k, &mut t, &mut c);
            account(&mut r, pe, ke);
        }
        t.clear();
        c = CommCounts::default();
        let t1 = Instant::now();
        for k in WARMUP_STEPS..total {
            let (pe, ke) = traced_stride(&mut replay, &mut nls, k, &mut t, &mut c);
            account(&mut r, pe, ke);
        }
        let traced_s = t1.elapsed().as_secs_f64();
        let traced_digest = digest(&replay.gather(), DIGEST_SEED);
        r.check(
            "traced_digest_equals_untraced",
            traced_digest == untraced_digest,
            format!("{traced_digest:016x} vs {untraced_digest:016x} after {total} strides"),
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
        r.set(
            "deepmd.force.coverage",
            t.coverage("deepmd.force.rank_call"),
        );
        r.set(
            "deepmd.force.rank_call_ms",
            crate::stats::mean(&t.durations_ms("deepmd.force.rank_call")),
        );
        r.set("comm.exchange_ms", per("comm.exchange"));
        r.set("comm.reverse_ms", per("comm.reverse"));
        r.set("comm.migrate_ms", per("comm.migrate"));
        r.set("comm.ghosts_per_step", c.ghosts as f64 / n as f64);
        r.set("comm.bytes_per_step", c.bytes as f64 / n as f64);
        r.finish_trace(t, wall_s, traced_s);
    }
    let deviation = reference_deviation(&input, &pot, &gathered, checked_at);
    r.check(
        "matches_single_box_reference",
        deviation <= MAX_DEVIATION,
        format!(
            "max deviation {deviation:.3e} Å after {checked_at} strides (bound {MAX_DEVIATION:e})"
        ),
    );
    if deviation > MAX_DEVIATION {
        r.failed += 1;
    }
    r.check(
        "energies_finite",
        r.failed == 0,
        format!("{} of {} strides failed", r.failed, r.attempted),
    );
    Ok(r)
}
