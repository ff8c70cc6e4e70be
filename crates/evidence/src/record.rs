//! Varint-packed columnar block codec for [`CaseReport`]s.
//!
//! A block holds up to `block_size` consecutive records. Fixed-width
//! demographics/outcome columns come first (case id, version, report type,
//! sex, age, weight, country, event date — one column at a time, so runs of
//! similar values pack tightly), then a variable-length payload per record
//! (drug entries, reaction terms, outcome codes). Strings never appear in a
//! block: drugs, reactions and countries are symbol ids into the archive's
//! shared dictionary, interned through `faers::intern` on decode.

use maras_faers::intern::IStr;
use maras_faers::model::{CaseReport, DrugEntry, DrugRole, Outcome, ReportType, Sex};
use maras_format::{put_varint, Cursor, FormatError};

fn report_type_code(t: ReportType) -> u8 {
    match t {
        ReportType::Expedited => 0,
        ReportType::Periodic => 1,
        ReportType::Direct => 2,
    }
}

fn report_type_from(code: u8) -> Result<ReportType, FormatError> {
    match code {
        0 => Ok(ReportType::Expedited),
        1 => Ok(ReportType::Periodic),
        2 => Ok(ReportType::Direct),
        _ => Err(FormatError::Corrupt("unknown report-type code")),
    }
}

fn sex_code(s: Sex) -> u8 {
    match s {
        Sex::Female => 0,
        Sex::Male => 1,
        Sex::Unknown => 2,
    }
}

fn sex_from(code: u8) -> Result<Sex, FormatError> {
    match code {
        0 => Ok(Sex::Female),
        1 => Ok(Sex::Male),
        2 => Ok(Sex::Unknown),
        _ => Err(FormatError::Corrupt("unknown sex code")),
    }
}

fn role_code(r: DrugRole) -> u8 {
    match r {
        DrugRole::PrimarySuspect => 0,
        DrugRole::SecondarySuspect => 1,
        DrugRole::Concomitant => 2,
        DrugRole::Interacting => 3,
    }
}

fn role_from(code: u8) -> Result<DrugRole, FormatError> {
    match code {
        0 => Ok(DrugRole::PrimarySuspect),
        1 => Ok(DrugRole::SecondarySuspect),
        2 => Ok(DrugRole::Concomitant),
        3 => Ok(DrugRole::Interacting),
        _ => Err(FormatError::Corrupt("unknown drug-role code")),
    }
}

fn outcome_code(o: Outcome) -> u8 {
    // Index into `Outcome::ALL` — stable as long as ALL is.
    Outcome::ALL.iter().position(|&x| x == o).unwrap() as u8
}

fn outcome_from(code: u8) -> Result<Outcome, FormatError> {
    Outcome::ALL.get(code as usize).copied().ok_or(FormatError::Corrupt("unknown outcome code"))
}

fn put_opt_f32(buf: &mut Vec<u8>, v: Option<f32>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put_varint(buf, u64::from(x.to_bits()));
        }
    }
}

fn opt_f32(c: &mut Cursor<'_>) -> Result<Option<f32>, FormatError> {
    match c.u8()? {
        0 => Ok(None),
        1 => {
            let bits = c.varint()?;
            let bits =
                u32::try_from(bits).map_err(|_| FormatError::Corrupt("f32 bits overflow"))?;
            Ok(Some(f32::from_bits(bits)))
        }
        _ => Err(FormatError::Corrupt("bad Option tag")),
    }
}

fn put_opt_u32(buf: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put_varint(buf, u64::from(x));
        }
    }
}

fn opt_u32(c: &mut Cursor<'_>) -> Result<Option<u32>, FormatError> {
    match c.u8()? {
        0 => Ok(None),
        1 => {
            let v = c.varint()?;
            let v = u32::try_from(v).map_err(|_| FormatError::Corrupt("u32 overflow"))?;
            Ok(Some(v))
        }
        _ => Err(FormatError::Corrupt("bad Option tag")),
    }
}

/// Encodes a block of records. `sym` maps a string to its dictionary id;
/// the builder guarantees every string is present.
pub fn encode_block(reports: &[&CaseReport], mut sym: impl FnMut(&str) -> u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(reports.len() * 48);
    for r in reports {
        put_varint(&mut buf, r.case_id);
    }
    for r in reports {
        put_varint(&mut buf, u64::from(r.version));
    }
    for r in reports {
        buf.push(report_type_code(r.report_type));
    }
    for r in reports {
        buf.push(sex_code(r.sex));
    }
    for r in reports {
        put_opt_f32(&mut buf, r.age);
    }
    for r in reports {
        put_opt_f32(&mut buf, r.weight_kg);
    }
    for r in reports {
        put_varint(&mut buf, u64::from(sym(&r.country)));
    }
    for r in reports {
        put_opt_u32(&mut buf, r.event_date);
    }
    for r in reports {
        put_varint(&mut buf, r.drugs.len() as u64);
        for d in &r.drugs {
            put_varint(&mut buf, u64::from(sym(&d.name)));
            buf.push(role_code(d.role));
        }
        put_varint(&mut buf, r.reactions.len() as u64);
        for reac in &r.reactions {
            put_varint(&mut buf, u64::from(sym(reac)));
        }
        put_varint(&mut buf, r.outcomes.len() as u64);
        for &o in &r.outcomes {
            buf.push(outcome_code(o));
        }
    }
    buf
}

/// The fewest bytes a record takes in a block: one in each of the eight
/// columns and one for each of its three collection lengths.
const MIN_RECORD_BYTES: usize = 11;

/// Decodes a block of exactly `n` records against the symbol dictionary.
pub fn decode_block(
    bytes: &[u8],
    n: usize,
    symbols: &[IStr],
) -> Result<Vec<CaseReport>, FormatError> {
    let lookup = |id: u64| -> Result<IStr, FormatError> {
        symbols
            .get(usize::try_from(id).map_err(|_| FormatError::Corrupt("symbol id overflow"))?)
            .cloned()
            .ok_or(FormatError::Corrupt("symbol id out of range"))
    };
    let mut c = Cursor::new(bytes);
    let case_ids = c.items(n, MIN_RECORD_BYTES, Cursor::varint)?;
    let versions = c.items(n, MIN_RECORD_BYTES, |c| {
        u32::try_from(c.varint()?).map_err(|_| FormatError::Corrupt("version overflow"))
    })?;
    let report_types = c.items(n, MIN_RECORD_BYTES, |c| report_type_from(c.u8()?))?;
    let sexes = c.items(n, MIN_RECORD_BYTES, |c| sex_from(c.u8()?))?;
    let ages = c.items(n, MIN_RECORD_BYTES, opt_f32)?;
    let weights = c.items(n, MIN_RECORD_BYTES, opt_f32)?;
    let countries = c.items(n, MIN_RECORD_BYTES, |c| lookup(c.varint()?))?;
    let event_dates = c.items(n, MIN_RECORD_BYTES, opt_u32)?;
    // What is left is the per-record payloads: three lengths at least.
    let mut out = Vec::with_capacity(c.capacity_for(n, 3));
    for i in 0..n {
        let n_drugs = c.varint()? as usize;
        let drugs = c.items(n_drugs, 2, |c| {
            Ok(DrugEntry { name: lookup(c.varint()?)?, role: role_from(c.u8()?)? })
        })?;
        let n_reac = c.varint()? as usize;
        let reactions = c.items(n_reac, 1, |c| lookup(c.varint()?))?;
        let n_outc = c.varint()? as usize;
        let outcomes = c.items(n_outc, 1, |c| outcome_from(c.u8()?))?;
        out.push(CaseReport {
            case_id: case_ids[i],
            version: versions[i],
            report_type: report_types[i],
            age: ages[i],
            sex: sexes[i],
            weight_kg: weights[i],
            country: countries[i].clone(),
            event_date: event_dates[i],
            drugs,
            reactions,
            outcomes,
        });
    }
    if !c.is_exhausted() {
        return Err(FormatError::Corrupt("trailing bytes after block payload"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_faers::intern::SymbolTable;
    use rustc_hash::FxHashMap;

    fn sample(case_id: u64) -> CaseReport {
        CaseReport {
            case_id,
            version: 2,
            report_type: ReportType::Expedited,
            age: Some(63.5),
            sex: Sex::Female,
            weight_kg: None,
            country: "US".into(),
            event_date: Some(20140117),
            drugs: vec![
                DrugEntry::new("IBUPROFEN", DrugRole::PrimarySuspect),
                DrugEntry::new("WARFARIN", DrugRole::Interacting),
            ],
            reactions: vec!["Acute renal failure".into(), "Nausea".into()],
            outcomes: vec![Outcome::Hospitalization, Outcome::Other],
        }
    }

    #[test]
    fn block_roundtrips() {
        let reports = vec![sample(1), sample(77), sample(12345)];
        let mut ids: FxHashMap<String, u32> = FxHashMap::default();
        let mut dict: Vec<String> = Vec::new();
        let refs: Vec<&CaseReport> = reports.iter().collect();
        let bytes = encode_block(&refs, |s| {
            *ids.entry(s.to_string()).or_insert_with(|| {
                dict.push(s.to_string());
                (dict.len() - 1) as u32
            })
        });
        let mut table = SymbolTable::new();
        let symbols: Vec<IStr> = dict.iter().map(|s| table.intern(s)).collect();
        let decoded = decode_block(&bytes, reports.len(), &symbols).unwrap();
        assert_eq!(decoded, reports);
    }

    #[test]
    fn decode_rejects_bad_enum_codes_and_truncation() {
        let reports = [sample(9)];
        let refs: Vec<&CaseReport> = reports.iter().collect();
        let bytes = encode_block(&refs, |_| 0);
        let mut table = SymbolTable::new();
        let symbols = vec![table.intern("X")];
        // Truncate anywhere — typed error, never a panic.
        for cut in 0..bytes.len() {
            let res = decode_block(&bytes[..cut], 1, &symbols);
            assert!(res.is_err(), "cut at {cut} decoded");
        }
        // Flip every byte — either a typed error or a decode that differs,
        // but never a panic (checksums catch silent differences upstream).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            let _ = decode_block(&bad, 1, &symbols);
        }
        // A record count far beyond what the bytes can hold is refused
        // before anything is reserved for it.
        let res = decode_block(&bytes, 1 << 40, &symbols);
        assert!(matches!(res, Err(FormatError::Truncated)));
    }

    #[test]
    fn outcome_codes_cover_all() {
        for o in Outcome::ALL {
            assert_eq!(outcome_from(outcome_code(o)).unwrap(), o);
        }
        assert!(outcome_from(7).is_err());
    }
}
