//! `kernels`: the functional GEMM kernels (`mmae::kernels`) alone, at every
//! precision, on a square and a ragged shape. Every simulation layer is
//! bypassed, so this is the one workload a kernel change moves.

use std::time::Instant;

use maco_isa::Precision;
use maco_mmae::kernels::{naive_reference, GemmOperands, GemmScratch};
use maco_mmae::Mmae;
use maco_sim::fold_fingerprint;
use maco_workloads::gemm::fill_random_matrix;

use crate::{median, setup_median, sub_seeds, timed, Outcome, Reference};

const PRECISIONS: [Precision; 4] = [
    Precision::Fp64,
    Precision::Fp32,
    Precision::Fp16,
    Precision::Int8,
];
const SQUARE: (usize, usize, usize) = (256, 256, 256);
/// No extent is a multiple of any tile edge, so every pass has partial tiles.
const RAGGED: (usize, usize, usize) = (203, 141, 77);
/// Rounds in the traced run (and in its untraced twin).
const TRACED_ROUNDS: usize = 20;

/// One GEMM of a round: operands, output buffer and the bits it must equal.
struct Case {
    precision: Precision,
    shape: (usize, usize, usize),
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    y: Vec<f64>,
    reference: Vec<f64>,
}

impl Case {
    fn flops(&self) -> f64 {
        let (m, n, k) = self.shape;
        2.0 * (m * n * k) as f64
    }

    fn operands(&self) -> GemmOperands<'_> {
        let (m, n, k) = self.shape;
        GemmOperands::new(&self.a, &self.b, &self.c, m, n, k)
    }

    fn run(&mut self, engine: &Mmae, scratch: &mut GemmScratch) {
        let mut y = std::mem::take(&mut self.y);
        engine.gemm_functional_with(scratch, self.operands(), self.precision, &mut y);
        self.y = y;
    }

    /// Whether the last output is bit-identical to the naive reference.
    fn matches(&self) -> bool {
        self.y.len() == self.reference.len()
            && self
                .y
                .iter()
                .zip(&self.reference)
                .all(|(y, r)| y.to_bits() == r.to_bits())
    }

    fn label(&self) -> String {
        let (m, n, k) = self.shape;
        format!("{} {m}x{n}x{k}", self.precision)
    }
}

/// Fills every case's operands from `seed` (the workload's set-up).
fn setup(seed: u64) -> Vec<Case> {
    let mut seeds = sub_seeds(seed, 3 * 2 * PRECISIONS.len()).into_iter();
    let mut cases = Vec::new();
    for shape in [SQUARE, RAGGED] {
        for precision in PRECISIONS {
            let (m, n, k) = shape;
            let mut fill = |rows, cols| {
                let mut v = Vec::new();
                fill_random_matrix(
                    seeds.next().expect("one seed per matrix"),
                    rows,
                    cols,
                    &mut v,
                );
                if precision == Precision::Int8 {
                    // [-0.5, 0.5) quantizes to all zeros; spread it over
                    // the signed 8-bit range so the integer path does work.
                    v.iter_mut().for_each(|x| *x *= 254.0);
                }
                v
            };
            cases.push(Case {
                precision,
                shape,
                a: fill(m, k),
                b: fill(k, n),
                c: fill(m, n),
                y: Vec::new(),
                reference: Vec::new(),
            });
        }
    }
    cases
}

/// Set-up plus the naive references every output is checked against.
fn prepared(seed: u64, out: &mut Outcome) -> Vec<Case> {
    let (mut cases, setup_s) = setup_median(|| setup(seed));
    out.set("setup_s", setup_s);
    for case in &mut cases {
        case.reference = naive_reference(case.operands(), case.precision);
    }
    cases
}

/// Checks a round's outputs and folds them into `fp`.
fn check_round(cases: &[Case], out: &mut Outcome, fp: &mut u64) {
    for case in cases {
        out.attempted += 1;
        out.check(case.matches(), || {
            format!("{} differs from naive_reference", case.label())
        });
        for v in &case.y {
            *fp = fold_fingerprint(*fp, v.to_bits());
        }
    }
}

/// Untraced: whole rounds of all eight GEMMs for `seconds`; the rate is the
/// median over rounds.
pub fn measure(seed: u64, seconds: f64, reference: &mut Reference) -> Outcome {
    let mut out = Outcome::default();
    let mut cases = prepared(seed, &mut out);
    let engine = Mmae::new(Default::default());
    let mut scratch = GemmScratch::new();
    let round_flops: f64 = cases.iter().map(Case::flops).sum();

    // Warm-up round: sizes the scratch arena and the output buffers.
    cases.iter_mut().for_each(|c| c.run(&engine, &mut scratch));
    let mut first = 0u64;
    check_round(&cases, &mut out, &mut first);

    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let ((), s) = timed(|| cases.iter_mut().for_each(|c| c.run(&engine, &mut scratch)));
        rates.push(round_flops / s * 1e-9);
        reference.tick();
        let mut fp = 0u64;
        check_round(&cases, &mut out, &mut fp);
        out.check(fp == first, || {
            "a round's outputs differ from the first round's".into()
        });
    }
    out.set("host_gflop_per_s", median(&mut rates));
    out.guard("fingerprint", format!("{first:016x}"));
    out.notes.push(format!(
        "{} rounds of {} GEMMs ({:.1} MFLOP each round)",
        rates.len(),
        cases.len(),
        round_flops * 1e-6
    ));
    out
}

/// Traced: [`TRACED_ROUNDS`] untraced rounds, then as many with a span
/// around every kernel call.
pub fn traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut cases = prepared(seed, &mut out);
    let engine = Mmae::new(Default::default());
    let mut scratch = GemmScratch::new();
    cases.iter_mut().for_each(|c| c.run(&engine, &mut scratch));
    let mut first = 0u64;
    check_round(&cases, &mut out, &mut first);

    let ((), untraced_s) = timed(|| {
        for _ in 0..TRACED_ROUNDS {
            cases.iter_mut().for_each(|c| c.run(&engine, &mut scratch));
        }
    });
    let mut spans: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let ((), traced_s) = timed(|| {
        for _ in 0..TRACED_ROUNDS {
            for (case, span) in cases.iter_mut().zip(&mut spans) {
                let ((), s) = timed(|| case.run(&engine, &mut scratch));
                span.push(s);
            }
        }
    });
    let mut fp = 0u64;
    check_round(&cases, &mut out, &mut fp);
    out.check(fp == first, || "traced outputs differ from untraced".into());

    let spanned: f64 = spans.iter().flatten().sum();
    for (case, span) in cases.iter().zip(&mut spans) {
        if case.shape != SQUARE {
            continue;
        }
        let s = median(span);
        let (ms, rate) = match case.precision {
            Precision::Fp64 => ("kernels.fp64_ms", "kernels.fp64_gflop_per_s"),
            Precision::Fp32 => ("kernels.fp32_ms", "kernels.fp32_gflop_per_s"),
            Precision::Fp16 => ("kernels.fp16_ms", "kernels.fp16_gflop_per_s"),
            Precision::Int8 => ("kernels.int8_ms", "kernels.int8_gflop_per_s"),
        };
        out.set(ms, s * 1e3);
        out.set(rate, case.flops() / s * 1e-9);
    }
    out.set("trace.overhead_ms", (traced_s - untraced_s) * 1e3);
    out.set("trace.unattributed_ms", (traced_s - spanned) * 1e3);
    out.guard("fingerprint", format!("{first:016x}"));
    out.notes.push(format!(
        "kernels.<p>_ms: median of {TRACED_ROUNDS} 256^3 calls; the ragged {RAGGED:?} calls \
         are spanned and checked too but not reported per precision"
    ));
    out
}
