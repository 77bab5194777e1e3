//! Criterion micro-benchmarks of the Sprinklers fast path: stripe-interval
//! generation, the two LSF scheduler implementations, whole-switch `step`
//! throughput into a reusable sink, and the analytical bound computation.
//! These quantify the "constant time per slot" claim the paper makes about
//! the scheduler (§1.2) and pin the zero-allocation sink path's performance
//! baseline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sprinklers_analysis::chernoff::overload_bound;
use sprinklers_core::config::{SizingMode, SprinklersConfig};
use sprinklers_core::fifo::FifoGrid;
use sprinklers_core::lsf::{AtomicLsf, RowScanLsf};
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::ols::WeaklyUniformOls;
use sprinklers_core::packet::Packet;
use sprinklers_core::sizing::stripe_size;
use sprinklers_core::sprinklers::SprinklersSwitch;
use sprinklers_core::store::PacketStore;
use sprinklers_core::stripe::Stripe;
use sprinklers_core::switch::{CountingSink, Switch};
use sprinklers_core::voq::Voq;

/// Store `size` packets and have a VOQ (ready queue: grid queue 0) whose
/// interval is `[start, start + size)` release them as one stripe — the path
/// every stripe takes into a scheduler.
fn mk_stripe(
    store: &mut PacketStore,
    grid: &mut FifoGrid,
    n: usize,
    start: usize,
    size: usize,
    seq: u64,
) -> Stripe {
    assert!(start + size <= n);
    let mut voq = Voq::new(n, 0, start, size);
    for k in 0..size as u64 {
        let packet = Packet::new(0, 1, seq * 1000 + k, 0).with_voq_seq(seq * 1000 + k);
        let handle = store.insert(packet);
        voq.push(grid, handle, 1);
    }
    voq.release_stripe().expect("size packets fill a stripe")
}

fn bench_ols_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ols_generation");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    for n in [64usize, 256, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| WeaklyUniformOls::random(black_box(n), &mut rng));
        });
    }
    group.finish();
}

fn bench_stripe_size_rule(c: &mut Criterion) {
    c.bench_function("stripe_size_rule", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for k in 1..1000u32 {
                acc += stripe_size(black_box(f64::from(k) * 1e-5), 1024);
            }
            acc
        });
    });
}

fn bench_lsf_insert_serve(c: &mut Criterion) {
    let n = 64usize;
    let mut group = c.benchmark_group("lsf_insert_serve_cycle");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("row_scan", |b| {
        b.iter(|| {
            let mut store = PacketStore::new();
            let mut grid = FifoGrid::new(1 + RowScanLsf::queue_count(n));
            let mut s = RowScanLsf::new(n, 1);
            for seq in 0..64u64 {
                let size = 1 << (seq % 7);
                let start = ((seq as usize * 13) % n / size) * size;
                let stripe = mk_stripe(&mut store, &mut grid, n, start, size, seq);
                s.insert(&mut grid, stripe);
            }
            let mut served = 0usize;
            let mut slot = 0usize;
            while !s.is_empty() {
                if let Some((handle, ..)) = s.serve(&mut grid, slot % n) {
                    store.take(handle);
                    served += 1;
                }
                slot += 1;
            }
            black_box(served)
        });
    });
    group.bench_function("stripe_atomic", |b| {
        b.iter(|| {
            let mut store = PacketStore::new();
            let mut grid = FifoGrid::new(1 + AtomicLsf::queue_count(n));
            let mut s = AtomicLsf::new(n, 1);
            for seq in 0..64u64 {
                let size = 1 << (seq % 7);
                let start = ((seq as usize * 13) % n / size) * size;
                let stripe = mk_stripe(&mut store, &mut grid, n, start, size, seq);
                s.insert(&mut grid, stripe);
            }
            let mut served = 0usize;
            let mut slot = 0usize;
            while !s.is_empty() {
                if let Some((handle, ..)) = s.serve(&mut grid, slot % n) {
                    store.take(handle);
                    served += 1;
                }
                slot += 1;
            }
            black_box(served)
        });
    });
    group.finish();
}

fn bench_chernoff_bound(c: &mut Criterion) {
    c.bench_function("chernoff_overload_bound", |b| {
        b.iter(|| overload_bound(black_box(2048), black_box(0.93)));
    });
}

/// Slots/sec of `Switch::step` into a reusable sink — the perf baseline of
/// the zero-allocation fast path.  The switch is preloaded and kept busy with
/// a deterministic one-packet-per-input arrival pattern, and the sink is a
/// `CountingSink` reused across every slot, so the measured loop allocates
/// nothing in steady state.
fn bench_step_into_reusable_sink(c: &mut Criterion) {
    let slots_per_iter = 4_096u64;
    let mut group = c.benchmark_group("sprinklers_step_into_sink");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Elements(slots_per_iter));
    for n in [16usize, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let load = 0.9;
            let matrix = TrafficMatrix::uniform(n, load);
            b.iter(|| {
                let mut switch = SprinklersSwitch::new(
                    SprinklersConfig::new(n).with_sizing(SizingMode::FromMatrix(matrix.clone())),
                    7,
                );
                let mut sink = CountingSink::default();
                let mut voq_seq = vec![0u64; n * n];
                for slot in 0..slots_per_iter {
                    // Deterministic near-saturating admissible pattern: input i
                    // sends to output (i + slot) mod n, skipping one input per
                    // slot to stay below capacity.
                    for input in 0..n {
                        if input as u64 == slot % n as u64 {
                            continue;
                        }
                        let output = (input + slot as usize) % n;
                        let key = input * n + output;
                        let mut p =
                            Packet::new(input, output, slot, slot).with_voq_seq(voq_seq[key]);
                        voq_seq[key] += 1;
                        p.arrival_slot = slot;
                        switch.arrive(p);
                    }
                    switch.step(slot, &mut sink);
                }
                black_box(sink.total())
            });
        });
    }
    group.finish();
}

/// The batched companion of `sprinklers_step_into_sink`: slots/sec of
/// `Switch::step_batch` through a `Box<dyn Switch>` (the same dispatch path
/// the engine uses) at batch ∈ {1, 16, 64} and n = 64, in the arrival-sparse
/// regime that batching targets — the shape of the engine's drain phase,
/// which is 50k arrival-free slots per run under the default `RunConfig`.
///
/// Each window injects one burst (one packet per input) and then steps the
/// window in `batch`-sized chunks: the switch goes busy for the ~2N slots
/// the burst needs to cross both fabrics and is empty for the rest.  The
/// window length (48k slots) matches the default `RunConfig`'s 50k-slot
/// drain phase, so the idle:busy ratio is the one a real engine run ends
/// with.  Every batch size steps the *exact same* switch trajectory (that is
/// the `step_batch` equivalence contract), so the measured difference is
/// purely what the batch amortizes: one virtual call per chunk instead of
/// per slot, the hoisted `slot mod N` fabric phase, and the empty-switch
/// elision that lets one call skip the idle tail the slot-at-a-time loop
/// must still visit call by call.  batch=1 is the PR 1 baseline loop;
/// batch=64 is the engine's default.
fn bench_step_batch_into_sink(c: &mut Criterion) {
    let n = 64usize;
    let window = 49_152u32;
    let windows_per_iter = 1u64;
    let slots_per_iter = windows_per_iter * u64::from(window);
    let mut group = c.benchmark_group("sprinklers_step_into_sink_batched");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Elements(slots_per_iter));
    for batch in [1u32, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            // Dyn-boxed on purpose: the per-call dispatch cost is part of
            // what the batch amortizes in the real engine.
            let mut switch: Box<dyn Switch> = Box::new(SprinklersSwitch::new(
                SprinklersConfig::new(n).with_sizing(SizingMode::FixedSize(1)),
                7,
            ));
            let mut sink = CountingSink::default();
            let mut voq_seq = vec![0u64; n * n];
            let mut slot = 0u64;
            b.iter(|| {
                for w in 0..windows_per_iter {
                    // One burst per window: input i sends a single packet to
                    // output (i + w) mod n (a permutation, so trivially
                    // admissible), then the window drains and idles.
                    for input in 0..n {
                        let output = (input + w as usize) % n;
                        let key = input * n + output;
                        let p = Packet::new(input, output, slot, slot).with_voq_seq(voq_seq[key]);
                        voq_seq[key] += 1;
                        switch.arrive(p);
                    }
                    // Step the window in `batch`-sized chunks.
                    let mut done = 0u32;
                    while done < window {
                        let count = batch.min(window - done);
                        switch.step_batch(slot + u64::from(done), count, &mut sink);
                        done += count;
                    }
                    slot += u64::from(window);
                }
                black_box(sink.total())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ols_generation,
    bench_stripe_size_rule,
    bench_lsf_insert_serve,
    bench_step_into_reusable_sink,
    bench_step_batch_into_sink,
    bench_chernoff_bound
);
criterion_main!(benches);
