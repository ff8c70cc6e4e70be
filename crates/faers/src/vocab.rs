//! Drug and ADR vocabularies with a spelling index.
//!
//! FAERS drug strings are free text: the paper's Table 5.1 counts 33k–38k
//! *distinct strings* per quarter, most of them spelling/formulation
//! variants of a much smaller canonical vocabulary. The cleaning stage
//! (§5.2 step 1: "remove duplication and correct misspellings") needs a
//! dictionary plus approximate lookup; this module supplies both, with a
//! BK-tree over Levenshtein distance for sub-linear fuzzy search.
//!
//! The seed lists contain **every drug and ADR the thesis names** (Tables
//! 3.1 & 5.2, the three case studies, and the Aspirin/Warfarin intro
//! example) so the qualitative findings reproduce verbatim; procedural
//! names extend each vocabulary to any requested size.

use rustc_hash::FxHashMap;

/// Levenshtein edit distance (two-row DP).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let mut prev = Vec::new();
    let mut cur = Vec::new();
    levenshtein_buf(a, b, &mut prev, &mut cur)
}

/// [`levenshtein`] into caller-owned DP rows, so a tight loop (the BK-tree
/// walk) computes distances without touching the allocator. The strings
/// are walked as char iterators directly — the two-row recurrence only
/// needs sequential access, never random indexing.
fn levenshtein_buf(a: &str, b: &str, prev: &mut Vec<usize>, cur: &mut Vec<usize>) -> usize {
    let lb = b.chars().count();
    if a.is_empty() {
        return lb;
    }
    if lb == 0 {
        return a.chars().count();
    }
    prev.clear();
    prev.extend(0..=lb);
    cur.clear();
    cur.resize(lb + 1, 0);
    for (i, ca) in a.chars().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.chars().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(prev, cur);
    }
    prev[lb]
}

/// Levenshtein distance if ≤ `max`, else `None` (banded DP; the spelling
/// corrector only cares about small distances, so the band keeps lookups
/// linear in the string length).
pub fn levenshtein_within(a: &str, b: &str, max: usize) -> Option<usize> {
    let la = a.chars().count();
    let lb = b.chars().count();
    if la.abs_diff(lb) > max {
        return None;
    }
    let d = levenshtein(a, b);
    (d <= max).then_some(d)
}

/// Whether a BK walk can skip `node` *and* its whole subtree without
/// computing the edit distance.
///
/// Length difference lower-bounds edit distance: `d ≥ |len(q) − len(t)|`.
/// If that bound already exceeds `radius + max_edge` (the largest child
/// edge), then the node is no candidate (`d > radius`) and no child
/// survives the triangle-inequality filter either: a child is visited only
/// when `cd ≥ d − radius`, but `d − radius > max_edge ≥ cd` for every
/// child. So the subtree is unreachable and the Levenshtein DP — the
/// dominant cost per visited node — can be skipped wholesale.
fn prune_subtree(query_len: usize, node: &BkNode, radius: usize) -> bool {
    let bound = query_len.abs_diff(node.term.chars().count());
    if bound <= radius {
        return false;
    }
    let max_edge = node.children.iter().map(|&(cd, _)| cd).max().unwrap_or(0);
    bound > radius + max_edge
}

/// A BK-tree over Levenshtein distance: metric-tree fuzzy lookup.
#[derive(Debug, Clone, Default)]
pub struct BkTree {
    nodes: Vec<BkNode>,
}

#[derive(Debug, Clone)]
struct BkNode {
    term: String,
    /// Payload (vocabulary id).
    id: u32,
    /// Children keyed by distance-to-this-node.
    children: Vec<(usize, usize)>,
}

impl BkTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        BkTree { nodes: Vec::new() }
    }

    /// Number of stored terms.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts a term with an id. Duplicate terms are ignored (first id wins).
    pub fn insert(&mut self, term: &str, id: u32) {
        if self.nodes.is_empty() {
            self.nodes.push(BkNode { term: term.to_string(), id, children: Vec::new() });
            return;
        }
        let mut cur = 0usize;
        loop {
            let d = levenshtein(term, &self.nodes[cur].term);
            if d == 0 {
                return; // already present
            }
            match self.nodes[cur].children.iter().find(|&&(cd, _)| cd == d) {
                Some(&(_, child)) => cur = child,
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(BkNode { term: term.to_string(), id, children: Vec::new() });
                    self.nodes[cur].children.push((d, idx));
                    return;
                }
            }
        }
    }

    /// All terms within `max_dist` of `query`, as `(term, id, distance)`.
    pub fn lookup(&self, query: &str, max_dist: usize) -> Vec<(&str, u32, usize)> {
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return out;
        }
        let query_len = query.chars().count();
        let mut stack = vec![0usize];
        let (mut prev, mut cur) = (Vec::new(), Vec::new());
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx];
            if prune_subtree(query_len, node, max_dist) {
                continue;
            }
            let d = levenshtein_buf(query, &node.term, &mut prev, &mut cur);
            if d <= max_dist {
                out.push((node.term.as_str(), node.id, d));
            }
            // Triangle inequality: children at distance within [d-max, d+max].
            for &(cd, child) in &node.children {
                if cd + max_dist >= d && cd <= d + max_dist {
                    stack.push(child);
                }
            }
        }
        out
    }

    /// The closest term within `max_dist`, ties broken lexicographically for
    /// determinism.
    ///
    /// Unlike [`BkTree::lookup`] this never materializes the candidate set:
    /// it walks the tree tracking the best hit so far, shrinking the search
    /// radius to the best distance as it improves. The radius stays
    /// *inclusive* (children within `[d - best, d + best]` are visited) so
    /// equal-distance candidates remain reachable for the lexicographic
    /// tie-break — this agrees with `lookup(..).min()` on every input.
    pub fn nearest(&self, query: &str, max_dist: usize) -> Option<(&str, u32, usize)> {
        if self.nodes.is_empty() {
            return None;
        }
        let query_len = query.chars().count();
        let mut best: Option<(usize, usize)> = None; // (distance, node index)
        let mut radius = max_dist;
        let mut stack = vec![0usize];
        let (mut prev, mut cur) = (Vec::new(), Vec::new());
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx];
            if prune_subtree(query_len, node, radius) {
                continue;
            }
            let d = levenshtein_buf(query, &node.term, &mut prev, &mut cur);
            let better = match best {
                None => d <= radius,
                Some((bd, bi)) => d < bd || (d == bd && node.term < self.nodes[bi].term),
            };
            if better {
                best = Some((d, idx));
                radius = d;
            }
            for &(cd, child) in &node.children {
                if cd + radius >= d && cd <= d + radius {
                    stack.push(child);
                }
            }
        }
        best.map(|(d, idx)| (self.nodes[idx].term.as_str(), self.nodes[idx].id, d))
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
/// a BK-tree spelling index.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    entries: Vec<String>,
    index: FxHashMap<String, u32>,
    bk: BkTree,
    /// `(case-folded term, id)` sorted by the folded term — the binary-search
    /// backbone of [`Vocabulary::iter_prefix`] autocomplete.
    folded_sorted: Vec<(String, u32)>,
}

impl Vocabulary {
    /// Builds a vocabulary from explicit terms. Terms are kept verbatim;
    /// duplicates (after exact match) are dropped.
    pub fn from_terms<I: IntoIterator<Item = String>>(terms: I) -> Self {
        let mut entries = Vec::new();
        let mut index = FxHashMap::default();
        let mut bk = BkTree::new();
        for t in terms {
            if index.contains_key(&t) {
                continue;
            }
            let id = entries.len() as u32;
            index.insert(t.clone(), id);
            bk.insert(&t, id);
            entries.push(t);
        }
        let mut folded_sorted: Vec<(String, u32)> =
            entries.iter().enumerate().map(|(i, t)| (t.to_ascii_lowercase(), i as u32)).collect();
        folded_sorted.sort_unstable();
        Vocabulary { entries, index, bk, folded_sorted }
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

    /// Fuzzy lookup: the closest canonical term within `max_dist` edits.
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
        // Exact match short-circuits the tree walk.
        if let Some(id) = self.id_of(query) {
            return Some((id, 0));
        }
        self.bk.nearest(query, max_dist).map(|(_, id, d)| (id, d))
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

    #[test]
    fn bktree_lookup_finds_neighbors() {
        let mut t = BkTree::new();
        for (i, w) in ["ASPIRIN", "WARFARIN", "PROGRAF", "PREVACID", "PRILOSEC"].iter().enumerate()
        {
            t.insert(w, i as u32);
        }
        assert_eq!(t.len(), 5);
        let hits = t.lookup("ASPRIN", 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, "ASPIRIN");
        assert_eq!(t.nearest("WARFERIN", 2).unwrap().0, "WARFARIN");
        assert!(t.nearest("XYZZY", 2).is_none());
    }

    #[test]
    fn bktree_duplicate_insert_ignored() {
        let mut t = BkTree::new();
        t.insert("ASPIRIN", 0);
        t.insert("ASPIRIN", 7);
        assert_eq!(t.len(), 1);
        assert_eq!(t.nearest("ASPIRIN", 0).unwrap().1, 0);
    }

    #[test]
    fn bktree_matches_linear_scan() {
        let words: Vec<String> = (0..200).map(procedural_drug_name).collect();
        let mut t = BkTree::new();
        for (i, w) in words.iter().enumerate() {
            t.insert(w, i as u32);
        }
        for query in ["ABAMAB", "CARINIB", "XIMOPRIL", "KETUSTATIN", "NOPE"] {
            let mut expect: Vec<&str> =
                words.iter().filter(|w| levenshtein(query, w) <= 2).map(|w| w.as_str()).collect();
            expect.sort_unstable();
            let mut got: Vec<&str> = t.lookup(query, 2).into_iter().map(|(w, _, _)| w).collect();
            got.sort_unstable();
            assert_eq!(got, expect, "query {query}");
        }
    }

    #[test]
    fn bktree_nearest_agrees_with_lookup_min() {
        // The shrinking-radius walk must agree with the materialize-then-min
        // legacy definition, including lexicographic tie-breaks.
        let words: Vec<String> = (0..400).map(procedural_drug_name).collect();
        let mut t = BkTree::new();
        for (i, w) in words.iter().enumerate() {
            t.insert(w, i as u32);
        }
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
        for max_dist in 0..=3 {
            for query in queries {
                let via_lookup = t
                    .lookup(query, max_dist)
                    .into_iter()
                    .min_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(b.0)));
                assert_eq!(t.nearest(query, max_dist), via_lookup, "query {query} @ {max_dist}");
            }
        }
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
            fn bktree_nearest_agrees_with_scan(
                words in proptest::collection::btree_set("[A-Z]{1,6}", 1..30),
                query in "[A-Z]{1,6}",
            ) {
                let words: Vec<String> = words.into_iter().collect();
                let mut t = BkTree::new();
                for (i, w) in words.iter().enumerate() {
                    t.insert(w, i as u32);
                }
                let best_scan = words
                    .iter()
                    .map(|w| (levenshtein(&query, w), w.clone()))
                    .filter(|&(d, _)| d <= 2)
                    .min();
                let best_tree = t.nearest(&query, 2).map(|(w, _, d)| (d, w.to_string()));
                prop_assert_eq!(best_tree, best_scan);
            }
        }
    }
}
