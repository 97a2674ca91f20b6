//! Trajectory digests pinned per GEMM dispatch class.
//!
//! Solo and batched evaluation share one force evaluator, so comparing them
//! with each other can no longer catch a change of bits. These digests
//! were recorded from the separate solo evaluator that preceded the merge:
//! 864 FCC copper atoms under the production copper model, 5 NVE steps at
//! 300 K, for each precision. The test checks the active dispatch class's
//! digests (select the scalar class with `DPMD_FORCE_SCALAR=1`) and prints
//! a skip notice for a class with no recorded digests.

use dpmd_repro::core::prelude::*;
use dpmd_repro::nnet::gemm::dispatch::{active_class, DispatchClass};

const STEPS: u64 = 5;
const SEED: u64 = 2024;

/// Recorded `(class, precision, digest)` triples.
const PINNED: &[(DispatchClass, Precision, u64)] = &[
    (DispatchClass::Scalar, Precision::Mix32, 0xb1ba_f566_4e45_7d7f),
    (DispatchClass::Scalar, Precision::Mix16, 0x4d81_dec1_765a_9512),
    (DispatchClass::Scalar, Precision::Double, 0x39aa_eeb2_b54e_69d1),
    (DispatchClass::Avx2, Precision::Mix32, 0x4ef7_d835_c17a_2fb3),
    (DispatchClass::Avx2, Precision::Mix16, 0x4f21_0cf6_2da6_e13f),
    (DispatchClass::Avx2, Precision::Double, 0x39aa_eeb2_b54e_69d1),
];

/// FNV-1a over every local atom's id, position and velocity bits.
fn digest(atoms: &dpmd_repro::minimd::atoms::Atoms) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
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

fn trajectory_digest(precision: Precision, threads: usize) -> u64 {
    let mut engine = Engine::builder()
        .copper_cells(6)
        .with_model(DeepPotModel::new(DeepPotConfig::copper()))
        .precision(precision)
        .temperature(300.0)
        .nve()
        .seed(SEED)
        .threads(threads)
        .build();
    engine.run(STEPS);
    digest(&engine.simulation().atoms)
}

#[test]
fn copper_trajectory_digests_match_the_pinned_values() {
    let class = active_class();
    let pinned: Vec<_> = PINNED.iter().filter(|(c, _, _)| *c == class).collect();
    if pinned.is_empty() {
        println!("skipped: no digests recorded for dispatch class {}", class.tag());
        return;
    }
    // Pool width never changes bits (`tests/determinism.rs`), so one width
    // suffices here.
    for &&(_, precision, want) in &pinned {
        let got = trajectory_digest(precision, 2);
        assert_eq!(got, want, "{} {precision:?}: digest {got:#018x}, pinned {want:#018x}", class.tag());
    }
}
