//! The four workloads. Each runs its untraced loop through the program's
//! own entry points for the end-to-end metrics; a traced run replays the
//! same trajectory through the layers' public functions, one span per call.

pub mod dist;
pub mod md;
pub mod model;
pub mod serve;

use std::sync::Arc;
use std::time::{Duration, Instant};

use deepmd::engine::DpEngine;
use minimd::atoms::Atoms;
use minimd::neighbor::NeighborList;
use minimd::potential::{ForcePhases, Potential, PotentialOutput};
use minimd::simbox::SimBox;

/// Set-ups per run: at least `SETUP_MIN_REPEATS`, and more while they
/// total under `SETUP_MIN_TOTAL`, so a cheap set-up is sampled enough for
/// a steady median. `setup_s` is their median.
pub const SETUP_MIN_REPEATS: usize = 5;
pub const SETUP_MAX_REPEATS: usize = 200;
pub const SETUP_MIN_TOTAL: Duration = Duration::from_millis(2000);

/// Steps run before timing starts, so caches and lazily sized buffers are
/// warm.
pub const WARMUP_STEPS: u64 = 2;

/// Build repeatedly (see `SETUP_MIN_REPEATS`), keep the last build, return
/// the wall time of each.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    let t0 = Instant::now();
    while times.len() < SETUP_MIN_REPEATS
        || (t0.elapsed() < SETUP_MIN_TOTAL && times.len() < SETUP_MAX_REPEATS)
    {
        drop(last.take());
        let ts = Instant::now();
        last = Some(build());
        times.push(ts.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Whether another unit of work (a script pass, a model sweep) that takes
/// about `unit` still ends within `budget` after `spent`. Units are never
/// cut short; the first always runs.
pub fn another_fits(spent: Duration, unit: Duration, budget: Duration) -> bool {
    spent + unit <= budget
}

/// FNV-1a over the bits of every local atom's id, position and velocity.
pub fn digest(atoms: &Atoms, mut h: u64) -> u64 {
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for i in 0..atoms.nlocal {
        mix(atoms.id[i]);
        for d in 0..3 {
            mix(atoms.pos[i][d].to_bits());
            mix(atoms.vel[i][d].to_bits());
        }
    }
    h
}

pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Whether every local force component is finite.
pub fn forces_finite(atoms: &Atoms) -> bool {
    atoms.force[..atoms.nlocal]
        .iter()
        .all(|f| f.x.is_finite() && f.y.is_finite() && f.z.is_finite())
}

/// A `Potential` over a shared engine, so a reference simulation can run on
/// the very engine the measured path uses.
pub struct SharedEngine(pub Arc<DpEngine>);

impl Potential for SharedEngine {
    fn compute(&self, atoms: &mut Atoms, nl: &NeighborList, bx: &SimBox) -> PotentialOutput {
        self.0.compute(atoms, nl, bx)
    }

    fn cutoff(&self) -> f64 {
        self.0.cutoff()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn phase_times(&self) -> Option<ForcePhases> {
        self.0.last_phases()
    }
}

/// The force phases as (span name, duration) children of a force span.
pub fn phase_children(p: ForcePhases) -> [(&'static str, std::time::Duration); 4] {
    let d = std::time::Duration::from_secs_f64;
    [
        ("deepmd.force.descriptor", d(p.descriptor_s)),
        ("deepmd.force.embedding", d(p.embedding_s)),
        ("deepmd.force.fitting", d(p.fitting_s)),
        ("deepmd.force.reduction", d(p.reduction_s)),
    ]
}
