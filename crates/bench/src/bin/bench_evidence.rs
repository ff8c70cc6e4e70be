//! Evidence-archive benchmark: builds the on-disk case archive from one
//! analyzed quarter, then measures what the serving layer actually pays —
//! build throughput, archive size vs the in-memory footprint it replaces,
//! postings-intersection latency per ranked rule, and cold vs cached
//! block fetches — and writes `BENCH_evidence.json`.
//!
//! Scale via `MARAS_SCALE` as usual (`paper` default, `small`, `test`).

use maras_bench::{generate_quarter, percentile, run_pipeline};
use maras_core::PipelineConfig;
use maras_evidence::{build_archive, BuildConfig, EvidenceReader};
use maras_faers::CaseReport;
use serde_json::Value;
use std::time::Instant;

/// Repetitions of each timed fetch/intersection loop.
const PASSES: usize = 20;

/// Rough resident-set cost of keeping a report in memory: the struct
/// itself plus owned vector elements. Interned strings are shared across
/// reports, so their (amortized) heap cost is deliberately excluded —
/// this is the *lower* bound the archive competes against.
fn in_memory_bytes(r: &CaseReport) -> usize {
    std::mem::size_of::<CaseReport>()
        + r.drugs.len() * std::mem::size_of::<maras_faers::DrugEntry>()
        + r.reactions.len() * std::mem::size_of::<maras_faers::IStr>()
        + r.outcomes.len()
}

fn main() {
    let corpus = generate_quarter(1);
    let result = run_pipeline(&corpus, 0, PipelineConfig::default());
    assert!(!result.ranked.is_empty(), "benchmark quarter mined no clusters");
    let n_reports = result.quarter.reports.len();

    let path = std::env::temp_dir().join(format!("bench-evidence-{}.evid", std::process::id()));

    // Build throughput.
    let t = Instant::now();
    let summary = build_archive(
        &result,
        &corpus.drug_vocab,
        &corpus.adr_vocab,
        &path,
        BuildConfig::default(),
    )
    .expect("build archive");
    let build_secs = t.elapsed().as_secs_f64();
    // The archive stores one record per transaction tid (the cleaned,
    // deduplicated survivors), so size comparisons use exactly those
    // records' resident footprint, not the whole raw quarter's.
    let n_records = summary.n_records;
    let memory_bytes: usize = result
        .encoded
        .source_indices
        .iter()
        .map(|&i| in_memory_bytes(&result.quarter.reports[i]))
        .sum();
    println!(
        "build: {n_reports} input reports -> {n_records} archived in {build_secs:.3}s \
         ({:.0} records/s)",
        n_records as f64 / build_secs
    );
    println!(
        "size: {} archive bytes vs >= {memory_bytes} resident bytes ({:.2} bytes/record on disk)",
        summary.file_bytes,
        summary.file_bytes as f64 / n_records as f64
    );

    let reader = EvidenceReader::open(&path).expect("open archive");

    // Postings intersection per ranked rule (the /cluster/N/reports hot
    // path before any block is touched).
    let rules: Vec<(Vec<String>, Vec<String>)> = result
        .ranked
        .iter()
        .map(|rm| {
            let rule = &rm.cluster.target;
            (
                result.encoded.names(&rule.drugs, &corpus.drug_vocab, &corpus.adr_vocab),
                result.encoded.names(&rule.adrs, &corpus.drug_vocab, &corpus.adr_vocab),
            )
        })
        .collect();
    let mut cover_ns: Vec<u64> = Vec::with_capacity(rules.len() * PASSES);
    let mut total_tids = 0usize;
    for _ in 0..PASSES {
        for (drugs, adrs) in &rules {
            let t = Instant::now();
            let tids = reader.cover(drugs, adrs);
            cover_ns.push(t.elapsed().as_nanos() as u64);
            total_tids += tids.len();
        }
    }
    cover_ns.sort_unstable();
    println!(
        "cover: {} rules x {PASSES} passes, {} tids total; ns/rule p50 {}, p99 {}",
        rules.len(),
        total_tids / PASSES,
        percentile(&cover_ns, 0.50),
        percentile(&cover_ns, 0.99),
    );

    // Cold vs cached page fetch: the first page of the top rule's cover,
    // with the block cache dropped before every cold fetch.
    let (drugs, adrs) = &rules[0];
    let tids = reader.cover(drugs, adrs);
    let page: Vec<u32> = tids.iter().copied().take(20).collect();
    let mut cold_us: Vec<u64> = Vec::with_capacity(PASSES);
    let mut hot_us: Vec<u64> = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        reader.clear_cache();
        let t = Instant::now();
        let reports = reader.reports_for(&page).expect("cold fetch");
        cold_us.push(t.elapsed().as_micros() as u64);
        assert_eq!(reports.len(), page.len());
        let t = Instant::now();
        let reports = reader.reports_for(&page).expect("hot fetch");
        hot_us.push(t.elapsed().as_micros() as u64);
        assert_eq!(reports.len(), page.len());
    }
    cold_us.sort_unstable();
    hot_us.sort_unstable();
    println!(
        "fetch page of {}: cold us p50 {} p99 {}; cached us p50 {} p99 {}",
        page.len(),
        percentile(&cold_us, 0.50),
        percentile(&cold_us, 0.99),
        percentile(&hot_us, 0.50),
        percentile(&hot_us, 0.99),
    );

    let json = Value::obj([
        ("input_reports", Value::from(n_reports)),
        ("archived_records", Value::from(n_records)),
        (
            "build",
            Value::obj([
                ("seconds", Value::from(build_secs)),
                ("records_per_sec", Value::from(n_records as f64 / build_secs)),
                ("file_bytes", Value::from(summary.file_bytes)),
                ("data_bytes", Value::from(summary.data_bytes)),
                ("blocks", Value::from(summary.n_blocks)),
                ("symbols", Value::from(summary.n_symbols)),
                ("bytes_per_record", Value::from(summary.file_bytes as f64 / n_records as f64)),
                ("resident_bytes_lower_bound", Value::from(memory_bytes)),
            ]),
        ),
        (
            "cover",
            Value::obj([
                ("rules", Value::from(rules.len())),
                ("passes", Value::from(PASSES)),
                ("ns_p50", Value::from(percentile(&cover_ns, 0.50))),
                ("ns_p99", Value::from(percentile(&cover_ns, 0.99))),
            ]),
        ),
        (
            "fetch",
            Value::obj([
                ("page", Value::from(page.len())),
                ("cold_us_p50", Value::from(percentile(&cold_us, 0.50))),
                ("cold_us_p99", Value::from(percentile(&cold_us, 0.99))),
                ("cached_us_p50", Value::from(percentile(&hot_us, 0.50))),
                ("cached_us_p99", Value::from(percentile(&hot_us, 0.99))),
            ]),
        ),
    ]);
    let out = "BENCH_evidence.json";
    std::fs::write(out, serde_json::to_string_pretty(&json).expect("render json"))
        .expect("write BENCH_evidence.json");
    println!("wrote {out}");
    std::fs::remove_file(&path).ok();
}
