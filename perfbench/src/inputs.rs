//! Seeded inputs, written as FAERS `$` files before anything is timed.
//!
//! Quarters are rendered through `faults::corrupt_quarter(..).write_dir`
//! (fault rate 0 for clean quarters), which writes each table with one
//! buffered `fs::write`; `ascii::write_quarter_dir` writes through an
//! unbuffered `File` and takes seconds, so it is never used here.
//!
//! The vocabularies and drug profiles come from one fixed generator seed,
//! as a real drug and reaction vocabulary would; `--seed` picks which
//! reports are drawn (through the quarter's year, which keys the
//! generator's per-quarter stream) and where faults land. Every seed thus
//! gives the same kind and amount of work up to sampling noise: with the
//! whole generator keyed by `--seed`, two seeds' quarters gave 430 and 602
//! artifact bytes per report and took 2.1 and 3.5 s from `$` files to a
//! live server.

use maras::faers::ascii::QuarantineReason;
use maras::faers::{
    corrupt_quarter, FaultConfig, FaultKind, PlantedInteraction, QuarterId, SynthConfig,
    Synthesizer, Vocabulary,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the generator's vocabularies and drug profiles.
pub const WORLD_SEED: u64 = 2014;

/// The year whose quarters `seed` draws.
pub fn year_of(seed: u64) -> u16 {
    2014 + (seed % 1000) as u16
}

/// Share of data rows corrupted per `year_ingest` quarter.
pub const YEAR_FAULT_RATE: f64 = 0.01;

/// Row-level fault kinds: everything but header damage.
const ROW_FAULTS: [FaultKind; 5] = [
    FaultKind::TruncateFields,
    FaultKind::InjectDelimiter,
    FaultKind::NonNumericWeight,
    FaultKind::OrphanRow,
    FaultKind::DuplicatePrimaryid,
];

/// A year on disk.
pub struct YearInputs {
    /// Directory holding the `$` files and vocabularies.
    pub dir: PathBuf,
    /// The quarters, in order.
    pub ids: Vec<QuarterId>,
    /// Per quarter, the quarantine counts a lenient read must report.
    pub expected: Vec<Vec<(QuarantineReason, usize)>>,
    /// DEMO data rows across the year, as written.
    pub demo_rows: usize,
    /// Seconds spent generating and writing.
    pub prepare_s: f64,
}

/// One clean quarter on disk.
pub struct QuarterInputs {
    /// Directory holding the `$` files and vocabularies.
    pub dir: PathBuf,
    /// The quarter.
    pub id: QuarterId,
    /// The interactions the generator planted.
    pub planted: Vec<PlantedInteraction>,
    /// DEMO data rows, as written.
    pub demo_rows: usize,
    /// Seconds spent generating and writing.
    pub prepare_s: f64,
}

/// The snapshot and evidence archive built from a quarter.
pub struct Artifacts {
    /// The MARASNAP snapshot.
    pub snap: PathBuf,
    /// The MARAEVID evidence archive.
    pub evid: PathBuf,
}

impl Artifacts {
    /// Both files, named inside `dir`.
    pub fn in_dir(dir: &Path) -> Artifacts {
        Artifacts { snap: dir.join("quarter.snap"), evid: dir.join("quarter.evid") }
    }

    /// Their sizes in bytes, 0 for a missing file.
    pub fn bytes(&self) -> (u64, u64) {
        let len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
        (len(&self.snap), len(&self.evid))
    }
}

fn write_vocab(path: &Path, vocab: &Vocabulary) -> std::io::Result<()> {
    let mut out = String::new();
    for (_, term) in vocab.iter() {
        out.push_str(term);
        out.push('\n');
    }
    std::fs::write(path, out)
}

fn write_vocabs(dir: &Path, synth: &Synthesizer) -> std::io::Result<()> {
    write_vocab(&dir.join("drug_vocab.txt"), synth.drug_vocab())?;
    write_vocab(&dir.join("adr_vocab.txt"), synth.adr_vocab())
}

/// Reads the vocabulary files the way `maras` does, building their spell
/// indexes: the batch workloads' set-up.
pub fn read_vocabs(dir: &Path) -> std::io::Result<(Vocabulary, Vocabulary)> {
    let read = |name: &str| -> std::io::Result<Vocabulary> {
        let text = std::fs::read_to_string(dir.join(name))?;
        Ok(Vocabulary::from_terms(text.lines().map(str::to_string)))
    };
    Ok((read("drug_vocab.txt")?, read("adr_vocab.txt")?))
}

/// A paper-scale year (4 quarters) with 1% seeded row-level faults per
/// quarter and no header damage.
pub fn write_year(dir: &Path, seed: u64) -> std::io::Result<YearInputs> {
    let started = Instant::now();
    std::fs::create_dir_all(dir)?;
    let mut synth = Synthesizer::new(SynthConfig::paper_scale(WORLD_SEED));
    let mut ids = Vec::new();
    let mut expected = Vec::new();
    let mut demo_rows = 0;
    for quarter in synth.generate_year(year_of(seed)) {
        let faults =
            FaultConfig::new(seed ^ (u64::from(quarter.id.quarter) << 32), YEAR_FAULT_RATE)
                .with_kinds(&ROW_FAULTS);
        let corrupted = corrupt_quarter(&quarter, &faults);
        corrupted.write_dir(dir)?;
        ids.push(quarter.id);
        expected.push(corrupted.expected_reason_counts());
        demo_rows += corrupted.demo.lines().count().saturating_sub(1);
    }
    write_vocabs(dir, &synth)?;
    Ok(YearInputs {
        dir: dir.to_path_buf(),
        ids,
        expected,
        demo_rows,
        prepare_s: started.elapsed().as_secs_f64(),
    })
}

/// One clean paper-scale quarter (Q1 of [`year_of`] the seed).
pub fn write_quarter(dir: &Path, seed: u64) -> std::io::Result<QuarterInputs> {
    let started = Instant::now();
    std::fs::create_dir_all(dir)?;
    let config = SynthConfig::paper_scale(WORLD_SEED);
    let planted = config.interactions.clone();
    let mut synth = Synthesizer::new(config);
    let id = QuarterId::new(year_of(seed), 1);
    let quarter = synth.generate_quarter(id);
    let demo_rows = quarter.reports.len();
    corrupt_quarter(&quarter, &FaultConfig::new(seed, 0.0)).write_dir(dir)?;
    write_vocabs(dir, &synth)?;
    Ok(QuarterInputs {
        dir: dir.to_path_buf(),
        id,
        planted,
        demo_rows,
        prepare_s: started.elapsed().as_secs_f64(),
    })
}
