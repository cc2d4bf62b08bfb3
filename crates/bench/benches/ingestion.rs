//! Ingestion throughput of the two readers: text and binary.
//!
//! BENCH_pr2.json showed the PR 2 stream path spending ~2× the batch
//! wall-clock on moldyn, dominated by per-line parsing and interning rather
//! than detection — the opposite of what a constant-work-per-event
//! algorithm should look like.  This bench isolates pure ingestion (drain a
//! reader, count events, run no detector) over the same file in each
//! encoding, so the decision table in README's "Ingestion pipeline" section
//! stays backed by numbers.

use std::fs::File;
use std::io::BufReader;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rapid_gen::{benchmarks, emit};
use rapid_trace::format::{BinReader, StreamReader};

const EVENTS: usize = 20_000;

fn ingestion(c: &mut Criterion) {
    let model = benchmarks::benchmark_scaled("moldyn", EVENTS).expect("known benchmark");
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let std_path = dir.join(format!("rapid-ingest-{pid}.std"));
    let rwf_path = dir.join(format!("rapid-ingest-{pid}.rwf"));
    emit::write_trace_file(&model.trace, &std_path).expect("write std fixture");
    emit::write_trace_file(&model.trace, &rwf_path).expect("write rwf fixture");
    let events = model.trace.len();

    let mut group = c.benchmark_group("ingestion_moldyn_20k");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events as u64));
    fn drain(
        reader: impl Iterator<Item = Result<rapid_trace::Event, rapid_trace::format::ParseError>>,
    ) -> usize {
        let mut count = 0;
        for event in reader {
            black_box(event.expect("fixture parses"));
            count += 1;
        }
        count
    }

    group.bench_function("text_bufread", |b| {
        b.iter(|| {
            let file = File::open(&std_path).expect("fixture exists");
            assert_eq!(drain(StreamReader::std(BufReader::new(file))), events);
        })
    });
    group.bench_function("binary", |b| {
        b.iter(|| {
            assert_eq!(drain(BinReader::open(&rwf_path).expect("fixture opens")), events);
        })
    });
    group.finish();

    std::fs::remove_file(&std_path).ok();
    std::fs::remove_file(&rwf_path).ok();
}

criterion_group!(benches, ingestion);
criterion_main!(benches);
