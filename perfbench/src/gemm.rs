//! GEMM rates at the shapes the workloads run, timed by calling the nnet
//! kernels directly. FLOPs and bytes per call are computed from the shape,
//! not measured.

use std::time::{Duration, Instant};

use nnet::f16::F16;
use nnet::gemm;

use crate::Report;

/// Time spent timing each GEMM shape.
pub const GEMM_BUDGET: Duration = Duration::from_millis(200);

/// One GEMM shape's measured rate plus its computed work per call.
pub struct GemmRate {
    pub gflops: f64,
    pub flops: f64,
    pub bytes: f64,
}

/// Deterministic operand values in [-1, 1).
fn operand(len: usize, salt: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| ((i.wrapping_mul(2654435761) ^ salt) % 2000) as f32 / 1000.0 - 1.0)
        .collect()
}

/// Call `f` until `budget` has passed (at least three calls) and return the
/// rate for `shapes` (m, n, k) summed per call.
fn rate(
    shapes: &[(usize, usize, usize)],
    elem_bytes: (usize, usize),
    budget: Duration,
    mut f: impl FnMut(),
) -> GemmRate {
    f(); // warm caches and lazy dispatch
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || t0.elapsed() < budget {
        f();
        calls += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    let flops: f64 = shapes
        .iter()
        .map(|&(m, n, k)| gemm::flops(m, n, k) as f64)
        .sum();
    let (ab, cb) = elem_bytes;
    let bytes: f64 = shapes
        .iter()
        .map(|&(m, n, k)| ((m * k + k * n) * ab + m * n * cb) as f64)
        .sum();
    GemmRate {
        gflops: flops * calls as f64 / secs * 1e-9,
        flops,
        bytes,
    }
}

/// f32 GEMMs through `auto_nn_f32`, one call per shape per iteration.
pub fn f32_rate(shapes: &[(usize, usize, usize)], budget: Duration) -> GemmRate {
    let bufs: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = shapes
        .iter()
        .map(|&(m, n, k)| (operand(m * k, 1), operand(k * n, 2), vec![0.0; m * n]))
        .collect();
    let mut bufs = bufs;
    rate(shapes, (4, 4), budget, || {
        for (&(m, n, k), (a, b, c)) in shapes.iter().zip(bufs.iter_mut()) {
            gemm::auto_nn_f32(m, n, k, a, b, c);
        }
        std::hint::black_box(&bufs);
    })
}

/// fp16-storage GEMM with f32 accumulation through `simd::gemm_nn_f16`.
pub fn f16_rate(m: usize, n: usize, k: usize, budget: Duration) -> GemmRate {
    let a: Vec<F16> = operand(m * k, 3).into_iter().map(F16::from_f32).collect();
    let b: Vec<F16> = operand(k * n, 4).into_iter().map(F16::from_f32).collect();
    let mut c = vec![0.0f32; m * n];
    rate(&[(m, n, k)], (2, 4), budget, || {
        gemm::simd::gemm_nn_f16(m, n, k, &a, &b, &mut c);
        std::hint::black_box(&c);
    })
}

/// Report one rate as its `[gflops, flops, bytes]` metrics.
pub fn set_gemm(r: &mut Report, names: [&'static str; 3], g: GemmRate) {
    r.set(names[0], g.gflops);
    r.set(names[1], g.flops);
    r.set(names[2], g.bytes);
}
