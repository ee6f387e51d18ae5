//! Experiment E13 (symmetry quotient): canonicalization microbenchmark —
//! the sort-based fast path ([`SymmetryMode::Full`]) against the
//! brute-force group enumeration reference ([`SymmetryMode::FullEnum`]),
//! resealing the same reachable states through
//! [`VerifySystem::canonical_encoding_of`], so this measures pure
//! canonicalization cost.
//!
//! Both paths produce byte-identical encodings — asserted here on every
//! state, so the bench doubles as a parity smoke test. The interesting
//! number is the ratio: it isolates the refinement and
//! residual-enumeration win from the search around it that end-to-end
//! timings (verdictbench's `sweep`) fold in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scv_mc::{SymmetryMode, TransitionSystem, VerifySystem};
use scv_protocol::{MesiProtocol, MsiProtocol, SerialMemory, Symmetry};
use scv_types::Params;

/// A deterministic BFS prefix of reachable product states to reseal.
fn sample_states<P>(
    sys: &VerifySystem<P>,
    n: usize,
) -> Vec<<VerifySystem<P> as TransitionSystem>::State>
where
    P: Symmetry,
    P::State: Clone + Send + 'static,
{
    let mut frontier = std::collections::VecDeque::from([sys.initial()]);
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    while let Some(s) = frontier.pop_front() {
        if out.len() >= n {
            break;
        }
        if !seen.insert(sys.canonical_encoding_of(&s)) {
            continue;
        }
        for (_, next) in sys.successors(&s) {
            frontier.push_back(next);
        }
        out.push(s);
    }
    out
}

fn bench_symmetry_canon(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetry_canon");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_millis(500));

    // p = 4 keeps the uncapped group (4!·2!·2! = 96) affordable for the
    // FullEnum reference while exercising procs ⋉ blocks ⋉ values.
    let params = Params::new(4, 2, 2);
    macro_rules! case {
        ($name:literal, $mk:expr) => {{
            let fast = VerifySystem::with_symmetry($mk, SymmetryMode::Full);
            let reference = VerifySystem::with_symmetry($mk, SymmetryMode::FullEnum);
            let states = sample_states(&fast, 64);
            // Parity: the bench measures two implementations of the same
            // function, or it measures nothing.
            for s in &states {
                assert_eq!(
                    fast.canonical_encoding_of(s),
                    reference.canonical_encoding_of(s),
                    "fast/reference canonical encodings diverged on {}",
                    $name
                );
            }
            group.bench_function(BenchmarkId::new("full", $name), |b| {
                b.iter(|| {
                    for s in &states {
                        std::hint::black_box(fast.canonical_encoding_of(s));
                    }
                })
            });
            group.bench_function(BenchmarkId::new("full-enum", $name), |b| {
                b.iter(|| {
                    for s in &states {
                        std::hint::black_box(reference.canonical_encoding_of(s));
                    }
                })
            });
        }};
    }
    case!("serial", SerialMemory::new(params));
    case!("msi", MsiProtocol::new(params));
    case!("mesi", MesiProtocol::new(params));

    group.finish();
}

criterion_group!(benches, bench_symmetry_canon);
criterion_main!(benches);
