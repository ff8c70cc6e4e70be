//! End-to-end tests of the `maras` binary: generate → analyze → render →
//! study, via real process invocations.

use std::path::PathBuf;
use std::process::{Command, Output};

fn maras(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maras")).args(args).output().expect("spawn maras binary")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maras_cli_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn demo_prints_planted_signals() {
    let out = maras(&["demo"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("drug-drug-interaction signals"), "{stdout}");
    assert!(stdout.contains("IBUPROFEN"), "{stdout}");
}

#[test]
fn help_and_error_paths() {
    let out = maras(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let bad = maras(&["frobnicate"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown command"));

    let missing = maras(&["analyze"]);
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--dir"));

    let badq = maras(&["analyze", "--dir", "/nonexistent", "--quarter", "2014Q9"]);
    assert!(!badq.status.success());
    assert!(String::from_utf8_lossy(&badq.stderr).contains("quarter must be 1-4"));

    // A θ outside [0, 1] is a usage error, reported before any file is read.
    for (theta, shown) in [("1.5", "1.5"), ("nan", "NaN")] {
        let bad =
            maras(&["analyze", "--dir", "/nonexistent", "--quarter", "2014Q1", "--theta", theta]);
        assert_eq!(bad.status.code(), Some(1), "--theta {theta}");
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert!(stderr.contains(&format!("--theta must be in [0, 1], got {shown}")), "{stderr}");
    }
}

#[test]
fn generate_analyze_render_roundtrip() {
    let dir = tmpdir("roundtrip");
    let dir_s = dir.to_str().unwrap();

    let gen = maras(&["generate", "--out", dir_s, "--reports", "900", "--seed", "5"]);
    assert!(gen.status.success(), "stderr: {}", String::from_utf8_lossy(&gen.stderr));
    for f in ["DEMO14Q1.txt", "DRUG14Q3.txt", "REAC14Q4.txt", "OUTC14Q2.txt", "drug_vocab.txt"] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    let json = dir.join("signals.json");
    let analyze = maras(&[
        "analyze",
        "--dir",
        dir_s,
        "--quarter",
        "2014Q1",
        "--min-support",
        "4",
        "--top",
        "5",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(analyze.status.success(), "stderr: {}", String::from_utf8_lossy(&analyze.stderr));
    let stdout = String::from_utf8_lossy(&analyze.stdout);
    assert!(stdout.contains("MCACs"), "{stdout}");
    assert!(stdout.contains("#1 ["), "{stdout}");
    assert!(stdout.contains("ingest [strict]"), "{stdout}");
    // The JSON export parses and carries the ingest report + ranked views.
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(parsed["quarter"], "2014 Q1");
    assert_eq!(parsed["ingest"]["clean"], true);
    assert_eq!(parsed["ingest"]["quarantined"], 0usize);
    assert!(parsed["ingest"]["rows_read"].as_u64().unwrap() > 0);
    let rows = parsed["rules"].as_array().unwrap();
    assert!(!rows.is_empty() && rows.len() <= 5);
    assert!(rows[0]["drugs"].as_array().unwrap().len() >= 2);
    assert_eq!(rows[0]["rank"], 1);

    let figs = dir.join("figs");
    let render = maras(&[
        "render",
        "--dir",
        dir_s,
        "--quarter",
        "2014Q1",
        "--out",
        figs.to_str().unwrap(),
        "--min-support",
        "4",
        "--dark",
    ]);
    assert!(render.status.success(), "stderr: {}", String::from_utf8_lossy(&render.stderr));
    let pano = std::fs::read_to_string(figs.join("panoramagram.svg")).unwrap();
    assert!(pano.starts_with("<svg"));
    assert!(pano.contains("#1a1a19"), "dark surface expected in --dark output");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_with_drug_filter() {
    let dir = tmpdir("filter");
    let dir_s = dir.to_str().unwrap();
    let gen = maras(&["generate", "--out", dir_s, "--reports", "900", "--seed", "6"]);
    assert!(gen.status.success());
    let out = maras(&[
        "analyze",
        "--dir",
        dir_s,
        "--quarter",
        "2014Q2",
        "--min-support",
        "4",
        "--drug",
        "PROGRAF",
        "--top",
        "3",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        assert!(line.contains("PROGRAF"), "filtered line without drug: {line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn theta_and_measure_set_the_exclusiveness_under_every_rank_by() {
    let dir = tmpdir("rank_by");
    let dir_s = dir.to_str().unwrap();
    let gen = maras(&["generate", "--out", dir_s, "--reports", "900", "--seed", "5"]);
    assert!(gen.status.success(), "stderr: {}", String::from_utf8_lossy(&gen.stderr));

    // (drugs, adrs) → served exclusiveness of every cluster of one run.
    let exclusiveness = |tag: &str, extra: &[&str]| {
        let json = dir.join(format!("{tag}.json"));
        let mut args = vec!["analyze", "--dir", dir_s, "--quarter", "2014Q1"];
        args.extend(["--min-support", "6", "--top", "100000", "--json", json.to_str().unwrap()]);
        args.extend(extra);
        let out = maras(&args);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let parsed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let rows = parsed["rules"].as_array().unwrap().clone();
        assert!(!rows.is_empty(), "{tag}: no clusters");
        rows.into_iter()
            .map(|r| {
                let key = format!("{} => {}", r["drugs"], r["adrs"]);
                (key, r["scores"]["exclusiveness"].as_f64().unwrap())
            })
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    let lift_09 = ["--theta", "0.9", "--measure", "lift"];
    let by_prr = exclusiveness("prr", &[&["--rank-by", "prr"][..], &lift_09].concat());
    let by_excl = exclusiveness("excl", &[&["--rank-by", "exclusiveness"][..], &lift_09].concat());
    let by_prr_default = exclusiveness("prr_default", &["--rank-by", "prr"]);

    let mut shared = 0;
    for (key, value) in &by_prr {
        if let Some(want) = by_excl.get(key) {
            assert_eq!(value, want, "{key}: --rank-by prr served another exclusiveness");
            shared += 1;
        }
    }
    assert_eq!(shared, by_excl.len(), "both runs rank the same clusters");
    // The settings do reach the PRR ranking: they move some cluster's value.
    assert!(by_prr.iter().any(|(key, value)| by_prr_default.get(key) != Some(value)));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dirty_data_modes_and_exit_codes() {
    let dir = tmpdir("dirty");
    let dir_s = dir.to_str().unwrap();
    let gen = maras(&["generate", "--out", dir_s, "--reports", "900", "--seed", "9"]);
    assert!(gen.status.success(), "stderr: {}", String::from_utf8_lossy(&gen.stderr));

    // Plant an orphan DRUG row: pid 1 can never exist in DEMO (real
    // primaryids are case_id*100 + version >= 100).
    let drug_path = dir.join("DRUG14Q1.txt");
    let mut drug = std::fs::read_to_string(&drug_path).unwrap();
    drug.push_str("1$1$PS$BOGUS\n");
    std::fs::write(&drug_path, drug).unwrap();

    // Strict (the default) fails with exit 1, naming the offense.
    let strict = maras(&["analyze", "--dir", dir_s, "--quarter", "2014Q1"]);
    assert_eq!(strict.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(stderr.contains("unknown primaryid 1"), "{stderr}");

    // Lenient quarantines the row and analyzes the rest.
    let lenient =
        maras(&["analyze", "--dir", dir_s, "--quarter", "2014Q1", "--ingest-mode", "lenient"]);
    assert!(lenient.status.success(), "stderr: {}", String::from_utf8_lossy(&lenient.stderr));
    let stdout = String::from_utf8_lossy(&lenient.stdout);
    assert!(stdout.contains("ingest [lenient]"), "{stdout}");
    assert!(stdout.contains("1 quarantined (orphan: 1)"), "{stdout}");

    // A zero-row budget turns that quarantine into exit code 2.
    let blown = maras(&[
        "analyze",
        "--dir",
        dir_s,
        "--quarter",
        "2014Q1",
        "--ingest-mode",
        "lenient",
        "--max-bad-rows",
        "0",
    ]);
    assert_eq!(blown.status.code(), Some(2), "budget exceeded must exit 2");
    assert!(String::from_utf8_lossy(&blown.stderr).contains("error budget"));

    // The year runner degrades Q1 and keeps the other quarters.
    let year = maras(&["year", "--dir", dir_s, "--ingest-mode", "lenient"]);
    assert!(year.status.success(), "stderr: {}", String::from_utf8_lossy(&year.stderr));
    let stdout = String::from_utf8_lossy(&year.stdout);
    assert!(stdout.contains("2014 Q1: degraded"), "{stdout}");
    assert!(stdout.contains("3 ok, 1 degraded, 0 failed of 4 quarters"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_and_serve_check_roundtrip() {
    let dir = tmpdir("snapshot");
    let dir_s = dir.to_str().unwrap();
    let gen = maras(&["generate", "--out", dir_s, "--reports", "900", "--seed", "11"]);
    assert!(gen.status.success(), "stderr: {}", String::from_utf8_lossy(&gen.stderr));

    let snap = dir.join("2014Q1.snap");
    let snap_s = snap.to_str().unwrap();
    let json = dir.join("snapshot.json");
    let made = maras(&[
        "snapshot",
        "--dir",
        dir_s,
        "--quarter",
        "2014Q1",
        "--min-support",
        "4",
        "--out",
        snap_s,
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(made.status.success(), "stderr: {}", String::from_utf8_lossy(&made.stderr));
    let stdout = String::from_utf8_lossy(&made.stdout);
    assert!(stdout.contains("clusters"), "{stdout}");
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(parsed["quarter"], "2014 Q1");
    assert_eq!(parsed["format_version"], maras::serve::FORMAT_VERSION);
    assert!(parsed["clusters"].as_u64().unwrap() > 0);

    // `serve --check` validates the file and exits 0 without binding.
    let check_json = dir.join("check.json");
    let check =
        maras(&["serve", "--snapshot", snap_s, "--check", "--json", check_json.to_str().unwrap()]);
    assert!(check.status.success(), "stderr: {}", String::from_utf8_lossy(&check.stderr));
    assert!(String::from_utf8_lossy(&check.stdout).contains("loaded"));
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&check_json).unwrap()).unwrap();
    assert_eq!(parsed["quarter"], "2014 Q1");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_refuses_corrupt_snapshot_with_structured_error() {
    let dir = tmpdir("serve_corrupt");

    // Not a snapshot at all: bad magic, exit 1, structured --json error.
    let bogus = dir.join("bogus.snap");
    std::fs::write(&bogus, b"definitely not a maras snapshot, but >= header size").unwrap();
    let err_json = dir.join("error.json");
    let out = maras(&[
        "serve",
        "--snapshot",
        bogus.to_str().unwrap(),
        "--check",
        "--json",
        err_json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("snapshot:"), "{stderr}");
    assert!(stderr.contains("bad magic"), "{stderr}");
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&err_json).unwrap()).unwrap();
    assert_eq!(parsed["error"]["code"], "snapshot");
    assert!(parsed["error"]["message"].as_str().unwrap().contains("bad magic"));

    // Missing file: still exit 1 with the structured envelope.
    let gone = dir.join("missing.snap");
    let out = maras(&["serve", "--snapshot", gone.to_str().unwrap(), "--check"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("snapshot:"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evidence_build_check_and_serve_roundtrip() {
    let dir = tmpdir("evidence");
    let dir_s = dir.to_str().unwrap();
    let gen = maras(&["generate", "--out", dir_s, "--reports", "900", "--seed", "17"]);
    assert!(gen.status.success(), "stderr: {}", String::from_utf8_lossy(&gen.stderr));

    // Build the archive standalone, with a JSON summary.
    let evid = dir.join("2014Q1.evid");
    let evid_s = evid.to_str().unwrap();
    let json = dir.join("evidence.json");
    let built = maras(&[
        "evidence",
        "build",
        "--dir",
        dir_s,
        "--quarter",
        "2014Q1",
        "--min-support",
        "4",
        "--block-size",
        "64",
        "--out",
        evid_s,
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(built.status.success(), "stderr: {}", String::from_utf8_lossy(&built.stderr));
    let stdout = String::from_utf8_lossy(&built.stdout);
    assert!(stdout.contains("evidence v1"), "{stdout}");
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert!(parsed["records"].as_u64().unwrap() > 0);
    assert!(parsed["blocks"].as_u64().unwrap() > 0);
    assert!(parsed["file_bytes"].as_u64().unwrap() > 0);

    // `evidence check` re-reads every block and exits 0.
    let check = maras(&["evidence", "check", "--archive", evid_s]);
    assert!(check.status.success(), "stderr: {}", String::from_utf8_lossy(&check.stderr));
    assert!(String::from_utf8_lossy(&check.stdout).contains("ok:"));

    // `snapshot --evidence` writes the pair from one analysis run, and
    // `serve --check` validates snapshot + archive together.
    let snap = dir.join("2014Q1.snap");
    let snap_s = snap.to_str().unwrap();
    let evid2 = dir.join("pair.evid");
    let made = maras(&[
        "snapshot",
        "--dir",
        dir_s,
        "--quarter",
        "2014Q1",
        "--min-support",
        "4",
        "--out",
        snap_s,
        "--evidence",
        evid2.to_str().unwrap(),
    ]);
    assert!(made.status.success(), "stderr: {}", String::from_utf8_lossy(&made.stderr));
    assert!(evid2.exists());
    let check =
        maras(&["serve", "--snapshot", snap_s, "--evidence", evid2.to_str().unwrap(), "--check"]);
    assert!(check.status.success(), "stderr: {}", String::from_utf8_lossy(&check.stderr));
    assert!(String::from_utf8_lossy(&check.stdout).contains("evidence for 2014 Q1"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evidence_error_paths_are_typed() {
    let dir = tmpdir("evidence_err");

    // Missing subcommand and unknown flags are usage errors.
    let out = maras(&["evidence"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("subcommand"));

    // A corrupt archive is refused by `evidence check` with exit 1.
    let bogus = dir.join("bogus.evid");
    std::fs::write(&bogus, b"not an evidence archive at all, but past header length").unwrap();
    let out = maras(&["evidence", "check", "--archive", bogus.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("evidence:"), "{stderr}");
    assert!(stderr.contains("magic"), "{stderr}");

    // `serve --evidence` refuses the same file at startup.
    let out = maras(&[
        "serve",
        "--snapshot",
        "/nonexistent.snap",
        "--evidence",
        bogus.to_str().unwrap(),
        "--check",
    ]);
    assert_eq!(out.status.code(), Some(1), "snapshot load fails first");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn year_trace_and_timings_emit_observability_artifacts() {
    let dir = tmpdir("trace");
    let dir_s = dir.to_str().unwrap();
    let gen = maras(&["generate", "--out", dir_s, "--reports", "600", "--seed", "13"]);
    assert!(gen.status.success(), "stderr: {}", String::from_utf8_lossy(&gen.stderr));

    let trace = dir.join("trace.json");
    let out = maras(&[
        "year",
        "--dir",
        dir_s,
        "--min-support",
        "4",
        "--trace",
        trace.to_str().unwrap(),
        "--timings",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote Chrome trace"));

    // The trace file is valid Chrome trace-event JSON covering every
    // pipeline stage, with non-zero durations.
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = parsed["traceEvents"].as_array().expect("traceEvents");
    assert!(!events.is_empty());
    for stage in ["ingest", "clean", "mine", "rules", "mcac"] {
        let ev = events
            .iter()
            .find(|e| e["name"] == stage)
            .unwrap_or_else(|| panic!("no {stage:?} event in trace"));
        assert!(ev["dur"].as_f64().unwrap() > 0.0, "{stage} duration must be non-zero");
    }

    // --timings prints the indented span table on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("span"), "{stderr}");
    assert!(stderr.contains("total ms"), "{stderr}");
    assert!(stderr.contains("  clean"), "indented stage rows expected: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn study_reports_both_encodings() {
    let out = maras(&["study", "--participants", "20", "--seed", "3"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("contextual glyph"), "{stdout}");
    assert!(stdout.contains("two") && stdout.contains("three") && stdout.contains("four"));
}
