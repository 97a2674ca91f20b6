//! The batch scheduler's hard correctness bar: a replica's bits are
//! invariant under its companions, the batch size, the admission bound and
//! the thread count. The reference steps each replica alone, every force
//! evaluation a batch of one, on one thread. Batching changes *when* GEMMs
//! run, never *what* they compute. (Solo and batched steps share one
//! evaluator; `tests/pinned_digests.rs` pins the bits themselves.)

use dpmd_core::prelude::{DeepPotConfig, DeepPotModel, Precision};
use dpmd_core::EngineBuilder;
use dpmd_serve::BatchScheduler;
use proptest::prelude::*;

fn parts(threads: usize, precision: Precision) -> dpmd_core::EngineParts {
    EngineBuilder::default()
        .copper_cells(2)
        .precision(precision)
        .with_model(DeepPotModel::new(DeepPotConfig::tiny(1, 6.0)))
        .seed(7)
        .threads(threads)
        .build_parts()
}

fn assert_bitwise_equal(batched: &BatchScheduler, solo: &BatchScheduler, ctx: &str) {
    for (rb, rs) in batched.replicas().iter().zip(solo.replicas()) {
        assert_eq!(rb.trace.len(), rs.trace.len(), "{ctx}: replica {} trace length", rb.id);
        for (tb, ts) in rb.trace.iter().zip(&rs.trace) {
            assert_eq!(tb.pe.to_bits(), ts.pe.to_bits(), "{ctx}: replica {} step {} pe", rb.id, tb.step);
            assert_eq!(tb.ke.to_bits(), ts.ke.to_bits(), "{ctx}: replica {} step {} ke", rb.id, tb.step);
            assert_eq!(
                tb.pressure.to_bits(),
                ts.pressure.to_bits(),
                "{ctx}: replica {} step {} pressure",
                rb.id,
                tb.step
            );
        }
        let (ab, as_) = (&rb.sim.atoms, &rs.sim.atoms);
        for i in 0..ab.nlocal {
            for d in 0..3 {
                assert_eq!(
                    ab.pos[i][d].to_bits(),
                    as_.pos[i][d].to_bits(),
                    "{ctx}: replica {} atom {i} pos[{d}]",
                    rb.id
                );
                assert_eq!(
                    ab.vel[i][d].to_bits(),
                    as_.vel[i][d].to_bits(),
                    "{ctx}: replica {} atom {i} vel[{d}]",
                    rb.id
                );
            }
        }
    }
}

/// Each replica alone on one thread, `steps` steps: the reference every
/// batched run is held to.
fn solo(precision: Precision, replicas: usize, steps: u64) -> BatchScheduler {
    let mut s = BatchScheduler::new(parts(1, precision), replicas, steps);
    s.run_sequential();
    s
}

/// Batched == alone, bit for bit, for batch sizes {1, 3, 8} × threads
/// {1, 2, 3, 6}: replica `r` shares its rounds with different companions
/// in each fleet.
#[test]
fn batched_trajectories_bitwise_equal_solo() {
    let steps = 6;
    let reference = solo(Precision::Mix32, 8, steps);
    for &threads in &[1usize, 2, 3, 6] {
        for &replicas in &[1usize, 3, 8] {
            let mut batched =
                BatchScheduler::new(parts(threads, Precision::Mix32), replicas, steps);
            batched.run();
            assert_bitwise_equal(&batched, &reference, &format!("{replicas} replicas, {threads} threads"));
        }
    }
}

/// The admission bound must not change any replica's bits either — it only
/// reshuffles which replicas share a fused call.
#[test]
fn admission_bound_is_bitwise_invisible() {
    let steps = 5;
    let mut unbounded = BatchScheduler::new(parts(1, Precision::Mix32), 5, steps);
    unbounded.run();
    for k in [1usize, 2, 3] {
        let mut bounded =
            BatchScheduler::new(parts(1, Precision::Mix32), 5, steps).max_in_flight(k);
        let rounds = bounded.run();
        assert!(rounds >= steps * (5 / k.max(1)) as u64 / 2, "bound {k} must add rounds");
        assert_bitwise_equal(&bounded, &unbounded, &format!("max_in_flight {k}"));
    }
}

/// Mix16 exercises the fp16 stacked first layer.
#[test]
fn mix16_batched_trajectories_bitwise_equal_solo() {
    let reference = solo(Precision::Mix16, 3, 4);
    for &threads in &[1usize, 2, 3, 6] {
        let mut batched = BatchScheduler::new(parts(threads, Precision::Mix16), 3, 4);
        batched.run();
        assert_bitwise_equal(&batched, &reference, &format!("mix16, {threads} threads"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `gemm::batched_nn_*` must equal per-call `auto_nn_*` exactly for any
    /// shape and batch size.
    #[test]
    fn batched_gemm_equals_per_call_auto(
        batch in 1usize..6,
        m in 1usize..5,
        n in 1usize..12,
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..batch * m * k).map(|_| rng.random_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..k * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut c_batched = vec![0.0f64; batch * m * n];
        nnet::gemm::batched_nn_f64(batch, m, n, k, &a, &b, &mut c_batched);
        let mut c_solo = vec![0.0f64; batch * m * n];
        for s in 0..batch {
            nnet::gemm::auto_nn_f64(m, n, k, &a[s * m * k..(s + 1) * m * k], &b, &mut c_solo[s * m * n..(s + 1) * m * n]);
        }
        prop_assert_eq!(&c_batched, &c_solo);

        let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
        let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
        let mut c32_batched = vec![0.0f32; batch * m * n];
        nnet::gemm::batched_nn_f32(batch, m, n, k, &a32, &b32, &mut c32_batched);
        let mut c32_solo = vec![0.0f32; batch * m * n];
        for s in 0..batch {
            nnet::gemm::auto_nn_f32(m, n, k, &a32[s * m * k..(s + 1) * m * k], &b32, &mut c32_solo[s * m * n..(s + 1) * m * n]);
        }
        prop_assert_eq!(&c32_batched, &c32_solo);
    }
}
