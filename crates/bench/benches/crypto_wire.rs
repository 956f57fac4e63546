//! Criterion benchmarks of the crypto substrate (SHA-256, HMAC, CRC-32,
//! authenticators), the wire codec, and a durable node's snapshot cut.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use gencon_app::{Folder, KvApp, KvCmd, KvOp};
use gencon_core::{History, SelectionMsg};
use gencon_crypto::{crc32::crc32, hmac_sha256, sha256, KeyStore};
use gencon_net::Wire;
use gencon_store::Snapshot;
use gencon_types::{AppliedSlot, Batch, Phase, ProcessId, ProcessSet};

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let kib = vec![0xa5u8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("sha256_1kib", |b| {
        b.iter(|| sha256(std::hint::black_box(&kib)))
    });
    group.bench_function("hmac_sha256_1kib", |b| {
        b.iter(|| hmac_sha256(b"key", std::hint::black_box(&kib)))
    });
    let mib: Vec<u8> = (0..1 << 20).map(|i: u32| (i * 31 + 7) as u8).collect();
    group.throughput(Throughput::Bytes(1 << 20));
    group.bench_function("crc32_1mib", |b| {
        b.iter(|| crc32(std::hint::black_box(&mib)))
    });
    group.finish();

    let mut auth_group = c.benchmark_group("authenticators");
    for n in [4usize, 16, 64] {
        let stores = KeyStore::dealer(n, 7);
        auth_group.bench_function(format!("authenticate_n{n}"), |b| {
            b.iter(|| {
                stores[0].authenticate(std::hint::black_box(b"digest-32-bytes-digest-32-bytes!"))
            })
        });
        let auth = stores[0].authenticate(b"digest-32-bytes-digest-32-bytes!");
        auth_group.bench_function(format!("verify_n{n}"), |b| {
            b.iter(|| {
                stores[1].verify(
                    ProcessId::new(0),
                    std::hint::black_box(b"digest-32-bytes-digest-32-bytes!"),
                    &auth,
                )
            })
        });
    }
    auth_group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let mut history = History::initial(7u64);
    for p in 1..=10u64 {
        history.record(7, Phase::new(p));
    }
    let msg = SelectionMsg {
        vote: 7u64,
        ts: Phase::new(10),
        history,
        selector: ProcessSet::range(0, 16),
    };
    group.bench_function("encode_selection_msg", |b| {
        b.iter(|| std::hint::black_box(&msg).to_bytes())
    });
    let bytes = msg.to_bytes();
    group.bench_function("decode_selection_msg", |b| {
        b.iter(|| {
            let mut buf = bytes.clone();
            SelectionMsg::<u64>::decode(&mut buf).unwrap()
        })
    });
    group.finish();
}

/// A durable node's periodic cut at the benchmark's `kv-small-durable`
/// shape: 65,536 keys, 16-byte values, an 8,192-slot dedup window of 8
/// commands per slot. One iteration folds and encodes the cut and
/// builds its `Snapshot` (the SHA-256 pass).
fn bench_snapshot_cut(c: &mut Criterion) {
    const SLOTS: u64 = 8_192;
    const PER_SLOT: u64 = 8;
    let log: Vec<AppliedSlot<KvCmd>> = (0..SLOTS)
        .map(|slot| AppliedSlot {
            slot,
            offset: slot * PER_SLOT,
            batch: Batch::new(
                (slot * PER_SLOT..(slot + 1) * PER_SLOT)
                    .map(|id| KvCmd {
                        id,
                        op: KvOp::Put {
                            key: id.to_le_bytes().to_vec(),
                            value: [id.to_le_bytes(), (!id).to_le_bytes()].concat(),
                        },
                    })
                    .collect(),
            ),
        })
        .collect();
    let mut folder = Folder::<KvApp>::default();
    folder.absorb(&log, SLOTS);
    let mut group = c.benchmark_group("store");
    group.throughput(Throughput::Bytes(folder.fold(SLOTS).len() as u64));
    group.bench_function("snapshot_cut", |b| {
        b.iter(|| {
            let state = folder.fold(SLOTS);
            Snapshot::new(SLOTS, folder.applied_len(), state)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(30);
    targets = bench_crypto, bench_wire, bench_snapshot_cut
}
criterion_main!(benches);
