//! Drug and ADR vocabularies with a spelling index.
//!
//! FAERS drug strings are free text: the paper's Table 5.1 counts 33k–38k
//! *distinct strings* per quarter, most of them spelling/formulation
//! variants of a much smaller canonical vocabulary. The cleaning stage
//! (§5.2 step 1: "remove duplication and correct misspellings") needs a
//! dictionary plus approximate lookup; this module supplies both. Fuzzy
//! lookup goes through a symmetric-delete index (FastSS; Bocek, Hunt &
//! Stiller 2007): each term is posted under the hash of every string it
//! reaches by deleting up to two chars, so a query costs a few dozen hash
//! probes and a banded Levenshtein check per candidate.
//!
//! The seed lists contain **every drug and ADR the thesis names** (Tables
//! 3.1 & 5.2, the three case studies, and the Aspirin/Warfarin intro
//! example) so the qualitative findings reproduce verbatim; procedural
//! names extend each vocabulary to any requested size.

use rustc_hash::FxHashMap;
use std::sync::{Arc, OnceLock};

/// Levenshtein edit distance (two-row DP over chars).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let lb = b.chars().count();
    let mut prev: Vec<usize> = (0..=lb).collect();
    let mut cur = vec![0; lb + 1];
    for (i, ca) in a.chars().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.chars().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[lb]
}

/// Levenshtein distance if ≤ `max`, else `None`. The DP is confined to
/// the diagonal band `|i − j| ≤ max`, where every alignment of at most
/// `max` edits lies, and stops at the first row whose band exceeds `max`,
/// so a check costs O(max · len) rather than O(len²).
pub fn levenshtein_within(a: &str, b: &str, max: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    banded(&a, &b, max, &mut Vec::new())
}

/// [`levenshtein_within`] over chars, into a caller-owned DP row.
/// `row[j]` holds the distance of `a[..i]` to `b[..j]`, capped at
/// `max + 1`, which also stands for every cell outside the band.
fn banded(a: &[char], b: &[char], max: usize, row: &mut Vec<usize>) -> Option<usize> {
    if a.len().abs_diff(b.len()) > max {
        return None;
    }
    // No distance exceeds the longer length, so clamping there changes no
    // answer and keeps `max + 1` from overflowing.
    let max = max.min(a.len().max(b.len()));
    let over = max + 1;
    row.clear();
    row.extend((0..=b.len()).map(|j| j.min(over)));
    for (i, &ca) in (1usize..).zip(a) {
        let lo = i.saturating_sub(max).max(1);
        let hi = (i + max).min(b.len());
        let mut diag = row[lo - 1];
        // Column `lo − 1` is outside the band unless it is column 0.
        let mut left = if lo == 1 { i.min(over) } else { over };
        row[lo - 1] = left;
        let mut row_min = left;
        for j in lo..=hi {
            let cell = (diag + usize::from(ca != b[j - 1])).min(row[j] + 1).min(left + 1);
            diag = row[j];
            row[j] = cell.min(over);
            left = row[j];
            row_min = row_min.min(left);
        }
        if row_min > max {
            return None;
        }
    }
    Some(row[b.len()]).filter(|&d| d <= max)
}

/// The largest radius the spelling index serves; [`Vocabulary::nearest`]
/// clamps larger ones to it.
const MAX_RADIUS: usize = 2;

/// The longest term, in chars, the spelling index posts; longer terms
/// resolve only exactly. A term of `n` chars posts O(n²) deletions, so the
/// cap bounds the index at ≈5,000 postings per term whatever a vocabulary
/// file or snapshot holds; 100 chars is MedDRA's limit for a term name.
const MAX_INDEXED_CHARS: usize = 100;

/// Odd multiplier of the polynomial deletion hash.
const HASH_BASE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Calls `f` with the hash of every string `s` reaches by deleting at most
/// `radius` (≤ 2) chars, once per way of reaching it. With `P` the
/// polynomial prefix hashes of `s` and `D[k] = P[k] − P[k+1]`, deleting
/// char `j` gives `P[n] + D[j]·B^(n−1−j)`, and then deleting an earlier
/// char `h` adds `D[h]·B^(n−2−h)`: O(1) per variant, and no string built.
fn for_each_deletion(s: &[char], radius: usize, dp: &mut Vec<(u64, u64)>, mut f: impl FnMut(u64)) {
    // dp[k] = (D[k], B^k)
    dp.clear();
    let (mut full, mut pow) = (0u64, 1u64);
    for &c in s {
        let next = full.wrapping_mul(HASH_BASE).wrapping_add(u64::from(c) + 1);
        dp.push((full.wrapping_sub(next), pow));
        (full, pow) = (next, pow.wrapping_mul(HASH_BASE));
    }
    f(full);
    if radius == 0 {
        return;
    }
    let n = s.len();
    for j in 0..n {
        let one = full.wrapping_add(dp[j].0.wrapping_mul(dp[n - 1 - j].1));
        f(one);
        if radius > 1 {
            for h in 0..j {
                f(one.wrapping_add(dp[h].0.wrapping_mul(dp[n - 2 - h].1)));
            }
        }
    }
}

/// The symmetric-delete spelling index. Strings within `r ≤ 2` edits
/// reach a common string by deleting at most `r` chars from each, so every
/// match shares a hash with one of the query's own deletions; a hash
/// collision only adds a candidate, which the distance check rejects.
#[derive(Debug)]
struct DeleteIndex {
    /// `(deletion hash, term id)`, sorted and deduplicated.
    postings: Vec<(u64, u32)>,
    /// `postings[starts[b]..starts[b + 1]]` holds the hashes whose top
    /// bits (all but `shift`) are `b`.
    starts: Vec<u32>,
    shift: u32,
    /// The longest posted term, in chars.
    max_chars: usize,
}

impl DeleteIndex {
    fn build(terms: &[String]) -> Self {
        let (mut postings, mut chars, mut dp) = (Vec::new(), Vec::new(), Vec::new());
        let mut max_chars = 0;
        for (id, term) in (0u32..).zip(terms) {
            chars.clear();
            chars.extend(term.chars());
            if chars.len() > MAX_INDEXED_CHARS {
                continue;
            }
            max_chars = max_chars.max(chars.len());
            for_each_deletion(&chars, MAX_RADIUS, &mut dp, |h| postings.push((h, id)));
        }
        postings.sort_unstable();
        postings.dedup();
        let bits = postings.len().max(2).next_power_of_two().trailing_zeros();
        let shift = 64 - bits;
        let mut starts = vec![0u32; (1 << bits) + 1];
        for &(h, _) in &postings {
            starts[(h >> shift) as usize + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        DeleteIndex { postings, starts, shift, max_chars }
    }

    /// The ids posted under hash `h`.
    fn ids(&self, h: u64) -> impl Iterator<Item = u32> + '_ {
        let b = (h >> self.shift) as usize;
        let bucket = &self.postings[self.starts[b] as usize..self.starts[b + 1] as usize];
        bucket.iter().filter(move |&&(k, _)| k == h).map(|&(_, id)| id)
    }
}

/// Every drug name the thesis mentions, plus common real-world drugs.
pub const SEED_DRUGS: &[&str] = &[
    // Table 3.1 / Table 5.2 / case studies / intro examples:
    "ZOMETA",
    "PRILOSEC",
    "XOLAIR",
    "SINGULAIR",
    "PREDNISONE",
    "ZANTAC",
    "METHOTREXATE",
    "PROGRAF",
    "NEXIUM",
    "TUMS",
    "AMBIEN",
    "MELPHALAN",
    "MYLANTA",
    "ROLAIDS",
    "FLUDARABINE",
    "IBUPROFEN",
    "METAMIZOLE",
    "PREVACID",
    "ASPIRIN",
    "WARFARIN",
    "PEPCID",
    // Withdrawn drugs named in §1.1:
    "POSICOR",
    "TROGLITAZONE",
    "CERIVASTATIN",
    // Related-work example (Tatonetti): paroxetine + pravastatin.
    "PAROXETINE",
    "PRAVASTATIN",
    // Common co-reported drugs to fill the head of the Zipf curve:
    "ACETAMINOPHEN",
    "METFORMIN",
    "LISINOPRIL",
    "ATORVASTATIN",
    "SIMVASTATIN",
    "OMEPRAZOLE",
    "AMLODIPINE",
    "METOPROLOL",
    "LOSARTAN",
    "GABAPENTIN",
    "HYDROCHLOROTHIAZIDE",
    "SERTRALINE",
    "FUROSEMIDE",
    "INSULIN",
    "LEVOTHYROXINE",
    "PANTOPRAZOLE",
    "PREGABALIN",
    "RAMIPRIL",
    "CLOPIDOGREL",
    "RIVAROXABAN",
    "APIXABAN",
    "DIGOXIN",
    "AMIODARONE",
    "SPIRONOLACTONE",
    "TRAMADOL",
    "OXYCODONE",
    "MORPHINE",
    "FENTANYL",
    "CELECOXIB",
    "NAPROXEN",
    "DICLOFENAC",
    "DULOXETINE",
    "VENLAFAXINE",
    "FLUOXETINE",
    "CITALOPRAM",
    "ESCITALOPRAM",
    "MIRTAZAPINE",
    "QUETIAPINE",
    "OLANZAPINE",
    "RISPERIDONE",
    "ARIPIPRAZOLE",
    "LAMOTRIGINE",
    "LEVETIRACETAM",
    "CARBAMAZEPINE",
    "VALPROATE",
    "PHENYTOIN",
    "ALLOPURINOL",
    "COLCHICINE",
    "HUMIRA",
    "ENBREL",
    "REMICADE",
    "RITUXAN",
    "AVASTIN",
    "HERCEPTIN",
    "GLEEVEC",
    "REVLIMID",
    "VELCADE",
    "TYSABRI",
    "COPAXONE",
    "GILENYA",
    "TECFIDERA",
    "LIPITOR",
    "CRESTOR",
    "PLAVIX",
    "COUMADIN",
    "XARELTO",
    "ELIQUIS",
    "LANTUS",
    "VICTOZA",
    "JANUVIA",
    "SYNTHROID",
    "ADVAIR",
    "SPIRIVA",
    "SYMBICORT",
    "VENTOLIN",
    "LYRICA",
    "CYMBALTA",
    "ABILIFY",
    "SEROQUEL",
    "ZOLOFT",
    "LEXAPRO",
    "PROZAC",
    "XANAX",
    "VALIUM",
    "ATIVAN",
    "KLONOPIN",
    "ADDERALL",
    "RITALIN",
    "CONCERTA",
    "TACROLIMUS",
    "CYCLOSPORINE",
    "MYCOPHENOLATE",
    "AZATHIOPRINE",
    "SIROLIMUS",
    "CISPLATIN",
    "CARBOPLATIN",
    "PACLITAXEL",
    "DOCETAXEL",
    "DOXORUBICIN",
    "CYCLOPHOSPHAMIDE",
    "VINCRISTINE",
    "ETOPOSIDE",
    "GEMCITABINE",
    "CAPECITABINE",
    "IRINOTECAN",
    "OXALIPLATIN",
    "BORTEZOMIB",
    "LENALIDOMIDE",
    "THALIDOMIDE",
    "DEXAMETHASONE",
    "HYDROCORTISONE",
    "BUDESONIDE",
];

/// Every ADR preferred term the thesis mentions, plus common MedDRA-style
/// terms.
pub const SEED_ADRS: &[&str] = &[
    // Table 3.1 / Table 5.2 / case studies:
    "Asthma",
    "Osteoporosis",
    "Chronic graft versus host disease",
    "Acute graft versus host disease",
    "Osteonecrosis of jaw",
    "Drug ineffective",
    "Granulocyte colony-stimulating factor nos",
    "Anxiety",
    "Osteoarthritis",
    "Neuropathy peripheral",
    "Pain",
    "Anaemia",
    "Acute renal failure",
    // Intro example (Aspirin+Warfarin) and related work:
    "Haemorrhage",
    "Blood glucose increased",
    // Common MedDRA preferred terms:
    "Nausea",
    "Vomiting",
    "Diarrhoea",
    "Headache",
    "Dizziness",
    "Fatigue",
    "Pyrexia",
    "Rash",
    "Pruritus",
    "Urticaria",
    "Dyspnoea",
    "Cough",
    "Oedema peripheral",
    "Hypotension",
    "Hypertension",
    "Tachycardia",
    "Bradycardia",
    "Atrial fibrillation",
    "Myocardial infarction",
    "Cardiac failure",
    "Cerebrovascular accident",
    "Syncope",
    "Convulsion",
    "Tremor",
    "Somnolence",
    "Insomnia",
    "Depression",
    "Confusional state",
    "Hallucination",
    "Renal failure",
    "Renal impairment",
    "Hepatotoxicity",
    "Hepatic function abnormal",
    "Jaundice",
    "Pancreatitis",
    "Gastrointestinal haemorrhage",
    "Abdominal pain",
    "Constipation",
    "Dyspepsia",
    "Decreased appetite",
    "Weight decreased",
    "Weight increased",
    "Alopecia",
    "Arthralgia",
    "Myalgia",
    "Back pain",
    "Muscular weakness",
    "Rhabdomyolysis",
    "Neutropenia",
    "Thrombocytopenia",
    "Leukopenia",
    "Pancytopenia",
    "Febrile neutropenia",
    "Sepsis",
    "Pneumonia",
    "Urinary tract infection",
    "Hypersensitivity",
    "Anaphylactic reaction",
    "Stevens-Johnson syndrome",
    "Toxic epidermal necrolysis",
    "QT prolonged",
    "Torsade de pointes",
    "Deep vein thrombosis",
    "Pulmonary embolism",
    "Interstitial lung disease",
    "Hyperkalaemia",
    "Hypokalaemia",
    "Hyponatraemia",
    "Hypoglycaemia",
    "Hyperglycaemia",
    "Blood pressure increased",
    "Hepatic enzyme increased",
    "Blood creatinine increased",
    "Fall",
    "Fracture",
    "Bone pain",
    "Malaise",
    "Asthenia",
    "Chest pain",
    "Palpitations",
    "Visual impairment",
    "Tinnitus",
    "Vertigo",
    "Dry mouth",
    "Dysgeusia",
    "Paraesthesia",
    "Hypoaesthesia",
    "Memory impairment",
    "Drug interaction",
    "Condition aggravated",
    "Disease progression",
    "Death",
    "Completed suicide",
    "Suicidal ideation",
    "Off label use",
    "Overdose",
    "Drug hypersensitivity",
    "Injection site reaction",
    "Infusion related reaction",
    "Mucosal inflammation",
    "Stomatitis",
    "Dysphagia",
];

/// A canonical vocabulary of terms (drugs or ADRs) with a dense id space and
/// a symmetric-delete spelling index.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    entries: Vec<String>,
    index: FxHashMap<String, u32>,
    /// `(case-folded term, id)` sorted by the folded term — the binary-search
    /// backbone of [`Vocabulary::iter_prefix`] autocomplete.
    folded_sorted: Vec<(String, u32)>,
    /// Built on the first fuzzy lookup (exact hits never need it) and
    /// shared by clones.
    deletes: Arc<OnceLock<DeleteIndex>>,
}

impl Vocabulary {
    /// Builds a vocabulary from explicit terms. Terms are kept verbatim;
    /// duplicates (after exact match) are dropped.
    pub fn from_terms<I: IntoIterator<Item = String>>(terms: I) -> Self {
        let mut entries = Vec::new();
        let mut index = FxHashMap::default();
        for t in terms {
            if index.contains_key(&t) {
                continue;
            }
            let id = entries.len() as u32;
            index.insert(t.clone(), id);
            entries.push(t);
        }
        let mut folded_sorted: Vec<(String, u32)> =
            entries.iter().enumerate().map(|(i, t)| (t.to_ascii_lowercase(), i as u32)).collect();
        folded_sorted.sort_unstable();
        Vocabulary { entries, index, folded_sorted, deletes: Arc::default() }
    }

    /// A drug vocabulary of exactly `n` canonical names: the seed drugs
    /// first (in order — so planted case-study drugs have stable ids),
    /// then procedurally generated names.
    pub fn drugs(n: usize) -> Self {
        let mut terms: Vec<String> = SEED_DRUGS.iter().map(|s| s.to_string()).collect();
        let mut i = 0usize;
        while terms.len() < n {
            let name = procedural_drug_name(i);
            if !terms.contains(&name) {
                terms.push(name);
            }
            i += 1;
        }
        terms.truncate(n);
        Vocabulary::from_terms(terms)
    }

    /// An ADR vocabulary of exactly `n` canonical preferred terms.
    pub fn adrs(n: usize) -> Self {
        let mut terms: Vec<String> = SEED_ADRS.iter().map(|s| s.to_string()).collect();
        let mut i = 0usize;
        while terms.len() < n {
            let name = procedural_adr_term(i);
            if !terms.contains(&name) {
                terms.push(name);
            }
            i += 1;
        }
        terms.truncate(n);
        Vocabulary::from_terms(terms)
    }

    /// Number of canonical terms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Canonical term by id.
    pub fn term(&self, id: u32) -> &str {
        &self.entries[id as usize]
    }

    /// Exact lookup.
    pub fn id_of(&self, term: &str) -> Option<u32> {
        self.index.get(term).copied()
    }

    /// Fuzzy lookup: the closest canonical term within `max_dist` edits,
    /// ties broken by the lesser term. The spelling index serves radii up
    /// to 2, so a larger `max_dist` is clamped to 2, and it leaves out terms
    /// over 100 chars, which only an exact match finds.
    ///
    /// ```
    /// use maras_faers::Vocabulary;
    /// let vocab = Vocabulary::drugs(200);
    /// let (id, distance) = vocab.nearest("IBUPROFFEN", 2).unwrap();
    /// assert_eq!(vocab.term(id), "IBUPROFEN");
    /// assert_eq!(distance, 1);
    /// assert!(vocab.nearest("ZZZZZZZZZ", 2).is_none());
    /// ```
    pub fn nearest(&self, query: &str, max_dist: usize) -> Option<(u32, usize)> {
        if let Some(id) = self.id_of(query) {
            return Some((id, 0));
        }
        let radius = max_dist.min(MAX_RADIUS);
        if radius == 0 {
            return None;
        }
        let index = self.deletes.get_or_init(|| DeleteIndex::build(&self.entries));
        let query: Vec<char> = query.chars().collect();
        // No posted term is within `radius` of a longer query, and a query's
        // deletions grow with the square of its length.
        if query.len() > index.max_chars + radius {
            return None;
        }
        let mut candidates = Vec::new();
        for_each_deletion(&query, radius, &mut Vec::new(), |h| candidates.extend(index.ids(h)));
        candidates.sort_unstable();
        candidates.dedup();
        let (mut best, mut term, mut row) = (None::<(usize, u32)>, Vec::new(), Vec::new());
        for id in candidates {
            term.clear();
            term.extend(self.term(id).chars());
            let bound = best.map_or(radius, |(d, _)| d);
            let Some(d) = banded(&query, &term, bound, &mut row) else { continue };
            if best.is_none_or(|(bd, bid)| (d, self.term(id)) < (bd, self.term(bid))) {
                best = Some((d, id));
            }
        }
        best.map(|(d, id)| (id, d))
    }

    /// Iterates over `(id, term)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.entries.iter().enumerate().map(|(i, t)| (i as u32, t.as_str()))
    }

    /// Case-insensitive prefix iteration: every `(id, term)` whose canonical
    /// term starts with `prefix` (ASCII case-folded), in case-folded
    /// lexicographic order. Sub-linear via binary search over a sorted
    /// folded index — the autocomplete backbone of the serving layer.
    ///
    /// ```
    /// use maras_faers::Vocabulary;
    /// let v = Vocabulary::drugs(200);
    /// let hits: Vec<&str> = v.iter_prefix("warf").map(|(_, t)| t).collect();
    /// assert_eq!(hits, ["WARFARIN"]);
    /// assert_eq!(v.iter_prefix("zzzz").count(), 0);
    /// ```
    pub fn iter_prefix<'a>(&'a self, prefix: &str) -> impl Iterator<Item = (u32, &'a str)> + 'a {
        let folded = prefix.to_ascii_lowercase();
        let start = self.folded_sorted.partition_point(|(t, _)| t.as_str() < folded.as_str());
        self.folded_sorted[start..]
            .iter()
            .take_while(move |(t, _)| t.starts_with(&folded))
            .map(|&(_, id)| (id, self.term(id)))
    }
}

const DRUG_PREFIX: &[&str] = &[
    "AB", "CAR", "DEX", "FLU", "GLI", "KET", "LAM", "MEV", "NOR", "OXA", "PER", "QUI", "RAL",
    "SUL", "TER", "VAL", "XIM", "ZAL", "BEN", "DOR",
];
const DRUG_MID: &[&str] = &[
    "A", "I", "O", "U", "AVO", "ITRA", "ETO", "OBA", "UVI", "AXI", "OMI", "ERA", "ILO", "UTA",
    "ANDO",
];
const DRUG_SUFFIX: &[&str] = &[
    "MAB", "NIB", "PRIL", "SARTAN", "STATIN", "ZOLE", "CILLIN", "MYCIN", "PAM", "LOL", "DIPINE",
    "FLOXACIN", "TIDINE", "SETRON", "GLIPTIN", "PROFEN", "BARBITAL", "CAINE", "DRONATE", "VIR",
];

/// Deterministic pseudo-pharmaceutical name for index `i`.
pub fn procedural_drug_name(i: usize) -> String {
    let p = DRUG_PREFIX[i % DRUG_PREFIX.len()];
    let m = DRUG_MID[(i / DRUG_PREFIX.len()) % DRUG_MID.len()];
    let s = DRUG_SUFFIX[(i / (DRUG_PREFIX.len() * DRUG_MID.len())) % DRUG_SUFFIX.len()];
    let gen = i / (DRUG_PREFIX.len() * DRUG_MID.len() * DRUG_SUFFIX.len());
    if gen == 0 {
        format!("{p}{m}{s}")
    } else {
        format!("{p}{m}{s} {gen}")
    }
}

const ADR_SITE: &[&str] = &[
    "Hepatic",
    "Renal",
    "Cardiac",
    "Gastric",
    "Dermal",
    "Ocular",
    "Neural",
    "Pulmonary",
    "Vascular",
    "Splenic",
    "Thyroid",
    "Adrenal",
    "Pancreatic",
    "Muscular",
    "Osseous",
    "Lymphatic",
    "Biliary",
    "Urethral",
    "Retinal",
    "Cochlear",
];
const ADR_KIND: &[&str] = &[
    "disorder",
    "failure",
    "necrosis",
    "oedema",
    "haemorrhage",
    "hypertrophy",
    "atrophy",
    "inflammation",
    "neoplasm",
    "stenosis",
    "fibrosis",
    "calcification",
    "ulceration",
    "perforation",
    "dysplasia",
];

/// Deterministic MedDRA-style preferred term for index `i`.
pub fn procedural_adr_term(i: usize) -> String {
    let s = ADR_SITE[i % ADR_SITE.len()];
    let k = ADR_KIND[(i / ADR_SITE.len()) % ADR_KIND.len()];
    let gen = i / (ADR_SITE.len() * ADR_KIND.len());
    if gen == 0 {
        format!("{s} {k}")
    } else {
        format!("{s} {k} type {gen}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "xy"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("ASPIRIN", "ASPRIN"), 1);
        assert_eq!(levenshtein("WARFARIN", "WARFERIN"), 1);
    }

    #[test]
    fn levenshtein_within_band() {
        assert_eq!(levenshtein_within("IBUPROFEN", "IBUPROFEN", 2), Some(0));
        assert_eq!(levenshtein_within("IBUPROFEN", "IBUPROFFEN", 2), Some(1));
        assert_eq!(levenshtein_within("IBUPROFEN", "METAMIZOLE", 2), None);
        assert_eq!(levenshtein_within("AB", "ABCDEFG", 2), None); // length gap
    }

    /// The brute-force answer `nearest` must give: the least
    /// `(distance, term)` over every term within `min(max_dist, 2)` edits.
    fn scan(v: &Vocabulary, query: &str, max_dist: usize) -> Option<(u32, usize)> {
        v.iter()
            .map(|(id, t)| (levenshtein(query, t), t, id))
            .filter(|&(d, _, _)| d <= max_dist.min(MAX_RADIUS))
            .min()
            .map(|(d, _, id)| (id, d))
    }

    #[test]
    fn nearest_finds_neighbors() {
        let v = Vocabulary::from_terms(
            ["ASPIRIN", "WARFARIN", "PROGRAF", "PREVACID", "PRILOSEC"].map(String::from),
        );
        assert_eq!(v.nearest("ASPRIN", 1), Some((0, 1)));
        assert_eq!(v.nearest("WARFERIN", 2), Some((1, 1)));
        assert_eq!(v.nearest("PROGRAFFF", 2), Some((2, 2)));
        assert_eq!(v.nearest("PROGRAFFF", 1), None);
        assert_eq!(v.nearest("XYZZY", 2), None);
    }

    #[test]
    fn duplicate_terms_keep_the_first_id() {
        let v = Vocabulary::from_terms(["ASPIRIN", "ASPIRIN", "TUMS"].map(String::from));
        assert_eq!(v.len(), 2);
        assert_eq!(v.nearest("ASPIRIN", 0), Some((0, 0)));
        assert_eq!(v.nearest("ASPIRINE", 2), Some((0, 1)));
        assert_eq!(v.nearest("TUMS", 2), Some((1, 0)));
    }

    #[test]
    fn nearest_matches_a_linear_scan_and_clamps_the_radius() {
        let v = Vocabulary::from_terms((0..400).map(procedural_drug_name));
        let queries = [
            "ABAMAB",
            "CARINIB",
            "XIMOPRIL",
            "KETUSTATIN",
            "NOPE",
            "",
            "A",
            "ABA",
            "PERAMAB",
            "SULOLOL",
            "VALANDOVIR",
            "ZALUVIMYCIN",
        ];
        for max_dist in 0..=4 {
            for query in queries {
                assert_eq!(
                    v.nearest(query, max_dist),
                    scan(&v, query, max_dist),
                    "{query} @ {max_dist}"
                );
            }
        }
        // Three edits from ABAMAB, and nothing is closer: a radius of 3
        // searches at 2 and finds nothing.
        let closest = v.iter().map(|(_, t)| levenshtein("ABAMABXYZ", t)).min();
        assert_eq!(closest, Some(3));
        assert_eq!(v.nearest("ABAMABXYZ", 3), None);
    }

    #[test]
    fn long_terms_resolve_only_exactly_and_long_queries_end_early() {
        let long = "A".repeat(MAX_INDEXED_CHARS + 1);
        let v = Vocabulary::from_terms([long.clone(), "ASPIRIN".to_string()]);
        assert_eq!(v.nearest(&long, 2), Some((0, 0)));
        assert_eq!(v.nearest(&long[1..], 2), None);
        assert_eq!(v.nearest("ASPIRINN", 2), Some((1, 1)));
        // A request line's worth of query would have ≈1.3e8 deletions.
        assert_eq!(v.nearest(&"ASPIRIN".repeat(2340), 2), None);
    }

    #[test]
    fn index_is_built_on_the_first_fuzzy_lookup_and_shared_by_clones() {
        let v = Vocabulary::drugs(200);
        let clone = v.clone();
        assert_eq!(v.nearest("IBUPROFEN", 2).map(|(_, d)| d), Some(0));
        assert_eq!(v.nearest("IBUPROFFEN", 0), None);
        assert!(v.deletes.get().is_none(), "exact hits and radius 0 need no index");
        let hit = v.nearest("IBUPROFFEN", 2);
        assert!(hit.is_some() && clone.deletes.get().is_some());
        assert_eq!(clone.nearest("IBUPROFFEN", 2), hit);
    }

    #[test]
    fn drug_vocabulary_contains_case_study_drugs() {
        let v = Vocabulary::drugs(500);
        assert_eq!(v.len(), 500);
        for d in ["IBUPROFEN", "METAMIZOLE", "METHOTREXATE", "PROGRAF", "PREVACID", "NEXIUM"] {
            assert!(v.id_of(d).is_some(), "{d} missing");
        }
        // Seed order is stable: ZOMETA is id 0.
        assert_eq!(v.id_of("ZOMETA"), Some(0));
    }

    #[test]
    fn adr_vocabulary_contains_case_study_terms() {
        let v = Vocabulary::adrs(300);
        assert_eq!(v.len(), 300);
        for a in ["Acute renal failure", "Drug ineffective", "Osteoporosis", "Asthma"] {
            assert!(v.id_of(a).is_some(), "{a} missing");
        }
    }

    #[test]
    fn vocabulary_nearest_corrects_typos() {
        let v = Vocabulary::drugs(200);
        let (id, d) = v.nearest("IBUPROFFEN", 2).unwrap();
        assert_eq!(v.term(id), "IBUPROFEN");
        assert_eq!(d, 1);
        let (id, d) = v.nearest("PREDNISONE", 2).unwrap();
        assert_eq!(v.term(id), "PREDNISONE");
        assert_eq!(d, 0);
    }

    #[test]
    fn procedural_names_unique_over_wide_range() {
        let mut names: Vec<String> = (0..5000).map(procedural_drug_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5000);
        let mut terms: Vec<String> = (0..2000).map(procedural_adr_term).collect();
        terms.sort_unstable();
        terms.dedup();
        assert_eq!(terms.len(), 2000);
    }

    #[test]
    fn prefix_iteration_is_case_insensitive_and_sorted() {
        let v = Vocabulary::drugs(500);
        let hits: Vec<&str> = v.iter_prefix("PR").map(|(_, t)| t).collect();
        assert!(hits.contains(&"PREDNISONE"));
        assert!(hits.contains(&"PRILOSEC"));
        assert!(hits.contains(&"PROGRAF"));
        // Sorted by the case-folded term.
        let folded: Vec<String> = hits.iter().map(|t| t.to_ascii_lowercase()).collect();
        assert!(folded.windows(2).all(|w| w[0] <= w[1]), "{folded:?}");
        // Lower-case query reaches the same set.
        let lower: Vec<&str> = v.iter_prefix("pr").map(|(_, t)| t).collect();
        assert_eq!(hits, lower);
        // Matches a brute-force scan.
        let mut expect: Vec<&str> = v
            .iter()
            .filter(|(_, t)| t.to_ascii_lowercase().starts_with("pr"))
            .map(|(_, t)| t)
            .collect();
        expect.sort_unstable_by_key(|t| t.to_ascii_lowercase());
        assert_eq!(hits, expect);
        // Empty prefix enumerates the whole vocabulary.
        assert_eq!(v.iter_prefix("").count(), v.len());
    }

    #[test]
    fn vocabulary_iter_roundtrips_ids() {
        let v = Vocabulary::drugs(50);
        for (id, term) in v.iter() {
            assert_eq!(v.id_of(term), Some(id));
            assert_eq!(v.term(id), term);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn levenshtein_is_metric(
                a in "[A-Z]{0,8}", b in "[A-Z]{0,8}", c in "[A-Z]{0,8}"
            ) {
                let dab = levenshtein(&a, &b);
                let dba = levenshtein(&b, &a);
                prop_assert_eq!(dab, dba); // symmetry
                prop_assert_eq!(dab == 0, a == b); // identity
                // triangle inequality
                prop_assert!(levenshtein(&a, &c) <= dab + levenshtein(&b, &c));
            }

            #[test]
            fn levenshtein_within_is_the_capped_distance(
                ascii in ("[A-E]{0,10}", "[A-E]{0,10}"),
                wide in ("[aé√]{0,8}", "[aé√]{0,8}"),
                max in 0usize..4,
            ) {
                for (a, b) in [ascii, wide] {
                    let want = Some(levenshtein(&a, &b)).filter(|&d| d <= max);
                    prop_assert_eq!(levenshtein_within(&a, &b, max), want, "{:?} {:?} @ {}", a, b, max);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// A three-letter alphabet makes distance ties common, and ids
            /// in draw order (duplicates dropped) are not in term order, so
            /// the (distance, term) tie-break is exercised, along with
            /// multi-byte chars, the empty query and terms under 3 chars.
            #[test]
            fn nearest_agrees_with_a_scan_over_a_tiny_alphabet(
                words in proptest::collection::vec("[abé]{0,5}", 1..40),
                query in "[abé]{0,6}",
                max_dist in 0usize..4,
            ) {
                let v = Vocabulary::from_terms(words);
                prop_assert_eq!(v.nearest(&query, max_dist), scan(&v, &query, max_dist), "{:?}", query);
            }
        }
    }
}
