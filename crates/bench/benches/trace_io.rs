//! Trace serialization throughput (the NDJSON codec).

use bench::{bench_ecosystem, bench_trace};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netsim::codec::{read_trace, read_trace_lossy, write_trace};
use netsim::stream::ChunkReader;
use netsim::Trace;
use std::hint::black_box;

/// Records `trace_io/read_chunks` decodes per iteration — the element
/// count `bench_gate` divides by, so it is fixed here and not left to the
/// generated trace's length.
const CHUNKED_RECORDS: usize = 16_384;

fn trace_io(c: &mut Criterion) {
    let eco = bench_ecosystem();
    let trace = bench_trace(&eco);
    let mut buf = Vec::new();
    write_trace(&trace, &mut buf).expect("write");
    let bytes = buf.len() as u64;

    let mut group = c.benchmark_group("trace_io");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(bytes));

    group.bench_function("write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(bytes as usize);
            write_trace(black_box(&trace), &mut out).expect("write");
            black_box(out)
        })
    });

    group.bench_function("read", |b| {
        b.iter(|| black_box(read_trace(black_box(buf.as_slice())).expect("read")))
    });

    // The lossy reader on a clean trace: its resync machinery should cost
    // well under 10% over the strict path (the robustness tax).
    group.bench_function("read_lossy_clean", |b| {
        b.iter(|| black_box(read_trace_lossy(black_box(buf.as_slice())).expect("read")))
    });

    // The loop the stream router runs: `ChunkReader` at the streaming
    // default of 8192 records per chunk, through a `Read` (so the in-place
    // line framer works against a real `BufReader` refill pattern), over a
    // fixed record count so `bench_gate` can hold an ns/record ceiling.
    assert!(trace.records.len() >= CHUNKED_RECORDS, "bench trace shrank");
    let head = Trace {
        meta: trace.meta.clone(),
        records: trace.records[..CHUNKED_RECORDS].to_vec(),
    };
    let mut head_buf = Vec::new();
    write_trace(&head, &mut head_buf).expect("write");
    group.throughput(Throughput::Bytes(head_buf.len() as u64));
    group.bench_function("read_chunks", |b| {
        b.iter(|| {
            let reader = ChunkReader::new(black_box(head_buf.as_slice()), 8192).expect("open");
            let mut records = 0usize;
            for chunk in reader {
                records += chunk.records.len();
                black_box(chunk);
            }
            assert_eq!(records, CHUNKED_RECORDS);
        })
    });
    group.finish();
}

criterion_group!(benches, trace_io);
criterion_main!(benches);
