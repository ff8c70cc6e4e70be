//! Deep-dive surveillance workflow: what a safety evaluator runs *after*
//! MARAS surfaces a signal —
//!
//! 1. **trend** — does the signal persist / grow across the year's quarters?
//! 2. **report** — a self-contained HTML review of the final quarter's
//!    ranking, with per-signal trend sparklines.
//!
//! ```sh
//! cargo run --release --example surveillance_deep_dive
//! ```

use maras::core::{KnowledgeBase, Pipeline, PipelineConfig, TrendTracker};
use maras::faers::{SynthConfig, Synthesizer};
use maras::report::{html_report_with_trends, ReportConfig};

fn main() {
    let mut synth = Synthesizer::new(SynthConfig::default());
    let (dv, av) = (synth.drug_vocab().clone(), synth.adr_vocab().clone());
    let pipeline = Pipeline::new(PipelineConfig::default().with_min_support(8));

    // ---- 1. trend across the year --------------------------------------
    let mut tracker = TrendTracker::new();
    let mut last_result = None;
    for quarter in synth.generate_year(2014) {
        let id = quarter.id;
        let result = pipeline.run(quarter, &dv, &av);
        tracker.ingest(id, &result);
        last_result = Some(result);
    }
    let result = last_result.expect("four quarters analyzed");

    println!("=== persistent signals (present in all 4 quarters), best first ===");
    let mut shown = 0;
    for trend in tracker.trends() {
        if !trend.is_persistent() {
            continue;
        }
        let drugs: Vec<String> = result.encoded.names(&trend.drugs, &dv, &av);
        let supports: Vec<String> = trend.points.iter().map(|p| p.support.to_string()).collect();
        println!(
            "  [{}] mean score {:.3} · support by quarter: {}",
            drugs.join(" + "),
            trend.mean_score(),
            supports.join(" -> ")
        );
        shown += 1;
        if shown == 5 {
            break;
        }
    }
    let emerging = tracker.emerging(2);
    println!("\n{} signals have strictly growing support (emerging shortlist)", emerging.len());

    // ---- 2. the deliverable: an HTML report with trend sparklines --------
    let kb = KnowledgeBase::literature_validated();
    let html = html_report_with_trends(
        &result,
        &dv,
        &av,
        &kb,
        &ReportConfig {
            title: "MARAS 2014 full-year review (Q4 ranking)".into(),
            ..Default::default()
        },
        Some(&tracker),
    );
    std::fs::create_dir_all("target/gallery").expect("mkdir");
    std::fs::write("target/gallery/year_report.html", html).expect("write report");
    println!("\nwrote target/gallery/year_report.html (open in a browser)");
}
