//! Criterion benches for the cryptographic substrate: RECTANGLE block
//! operations, CTR pad generation, per-block CBC-MAC and key expansion —
//! the per-fetch costs behind every SOFIA cycle model parameter.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sofia_crypto::{ctr, mac, CounterBlock, Key80, KeySet, Nonce, Rectangle};

fn bench_rectangle(c: &mut Criterion) {
    let cipher = Rectangle::new(&Key80::from_seed(1));
    let mut g = c.benchmark_group("rectangle");
    g.throughput(Throughput::Bytes(8));
    g.bench_function("encrypt_block", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = cipher.encrypt_block(black_box(x));
            x
        })
    });
    g.finish();

    c.bench_function("key_schedule", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            Rectangle::new(&Key80::from_seed(black_box(seed)))
        })
    });
}

fn bench_ctr_and_mac(c: &mut Criterion) {
    let keys = KeySet::from_seed(2).expand();
    let nonce = Nonce::new(7);
    c.bench_function("ctr_pad_per_word", |b| {
        let mut pc = 0x100u32;
        b.iter(|| {
            pc = pc.wrapping_add(4) & 0xFF_FFFC;
            let counter = CounterBlock::from_edge(nonce, pc, pc.wrapping_add(4) & 0xFF_FFFC);
            ctr::apply(&keys.ctr, counter, black_box(0xDEAD_BEEF))
        })
    });
    c.bench_function("cbc_mac_exec_block", |b| {
        let words = [1u32, 2, 3, 4, 5, 6];
        b.iter(|| mac::mac_words(&keys.mac_exec, black_box(&words), 6))
    });
}

criterion_group!(benches, bench_rectangle, bench_ctr_and_mac);
criterion_main!(benches);
