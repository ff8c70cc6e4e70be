//! The Contextual Glyph (thesis §4, Fig. 4.1).
//!
//! Geometry is computed separately from rendering so the layout invariants
//! are testable: the inner circle's radius encodes the target rule's
//! confidence; each surrounding annular sector's depth (arc distance from
//! the inner circle) encodes one contextual rule's confidence; sectors start
//! at 12 o'clock, laid out clockwise by antecedent cardinality (largest
//! first, matching `Mcac::levels`), same-cardinality sectors sharing a color
//! (darker = larger) and ordered by confidence.

use crate::svg::SvgDoc;
use crate::theme::Theme;
use maras_mcac::Mcac;
use maras_rules::DrugAdrRule;
use std::f64::consts::{PI, TAU};

/// Rendering parameters for one glyph.
#[derive(Debug, Clone)]
pub struct GlyphConfig {
    /// Square canvas side in px.
    pub size: f64,
    /// Outer margin in px (grows automatically when labels are shown).
    pub margin: f64,
    /// Gap between the inner circle and the sector band, px.
    pub ring_gap: f64,
    /// Render the zoom-in view (Fig. 4.3): per-sector drug labels and
    /// confidence values.
    pub show_labels: bool,
    /// Optional caption under the glyph.
    pub caption: Option<String>,
    /// Color theme (light by default; dark is a selected palette, not an
    /// inversion).
    pub theme: Theme,
}

impl Default for GlyphConfig {
    fn default() -> Self {
        GlyphConfig {
            size: 220.0,
            margin: 10.0,
            ring_gap: 3.0,
            show_labels: false,
            caption: None,
            theme: Theme::default(),
        }
    }
}

impl GlyphConfig {
    /// The Fig. 4.3 zoom-in view: larger canvas with sector labels.
    pub fn zoomed() -> Self {
        GlyphConfig {
            size: 480.0,
            margin: 90.0,
            ring_gap: 4.0,
            show_labels: true,
            caption: None,
            theme: Theme::default(),
        }
    }
}

/// One contextual rule's sector.
#[derive(Debug, Clone)]
pub struct SectorGeometry {
    /// Start angle (radians, screen space, 0 at 3 o'clock).
    pub start_angle: f64,
    /// End angle.
    pub end_angle: f64,
    /// Outer radius of the sector arc.
    pub outer_radius: f64,
    /// Context level index (0 = largest cardinality), selecting the color.
    pub level_index: usize,
    /// Antecedent cardinality of the rule.
    pub cardinality: usize,
    /// The contextual rule's confidence (drives `outer_radius`).
    pub confidence: f64,
    /// Index of the rule within the flattened context (tooltip lookup).
    pub rule_index: usize,
}

/// Full glyph layout.
#[derive(Debug, Clone)]
pub struct GlyphGeometry {
    /// Canvas center.
    pub center: (f64, f64),
    /// Inner-circle radius (∝ target confidence).
    pub inner_radius: f64,
    /// Inner radius of the sector band.
    pub band_inner: f64,
    /// Maximum outer radius a full-confidence sector reaches.
    pub band_outer: f64,
    /// The sectors, in layout order (12 o'clock, clockwise).
    pub sectors: Vec<SectorGeometry>,
    /// Target rule confidence.
    pub target_confidence: f64,
}

impl GlyphGeometry {
    /// Computes the layout of a cluster under a configuration.
    pub fn from_cluster(cluster: &Mcac, config: &GlyphConfig) -> Self {
        let caption_space = if config.caption.is_some() { 18.0 } else { 0.0 };
        let half = config.size / 2.0;
        let center = (half, half - caption_space / 2.0);
        let max_outer = half - config.margin - caption_space / 2.0;
        // Reserve a sector band at least as deep as the largest inner circle.
        let inner_max = max_outer * 0.42;
        let p = cluster.target.confidence().clamp(0.0, 1.0);
        // Keep a visible nucleus even at low confidence.
        let inner_radius = inner_max * (0.15 + 0.85 * p);
        let band_inner = inner_max + config.ring_gap;
        let band_outer = max_outer;

        let n_sectors: usize = cluster.context_size();
        let step = TAU / n_sectors.max(1) as f64;
        let mut sectors = Vec::with_capacity(n_sectors);
        let mut angle = -PI / 2.0; // 12 o'clock
        let mut rule_index = 0usize;
        for (level_index, level) in cluster.levels().enumerate() {
            for rule in level {
                let c = rule.stats(&cluster.target.stats).confidence().clamp(0.0, 1.0);
                // Depth ∝ confidence, with a sliver floor so empty context
                // slots remain visible (Def. 3.5.2 demands the full powerset).
                let depth = (band_outer - band_inner) * c;
                let outer_radius = (band_inner + depth).max(band_inner + 1.5);
                sectors.push(SectorGeometry {
                    start_angle: angle,
                    end_angle: angle + step,
                    outer_radius,
                    level_index,
                    cardinality: rule.n_drugs(),
                    confidence: c,
                    rule_index,
                });
                angle += step;
                rule_index += 1;
            }
        }
        GlyphGeometry {
            center,
            inner_radius,
            band_inner,
            band_outer,
            sectors,
            target_confidence: p,
        }
    }
}

/// Renders a cluster as a contextual glyph. `namer` supplies human-readable
/// rule descriptions for hover titles and zoom labels; without it, item ids
/// are shown.
pub fn glyph_svg(
    cluster: &Mcac,
    config: &GlyphConfig,
    namer: Option<&dyn Fn(&DrugAdrRule) -> String>,
) -> SvgDoc {
    let geom = GlyphGeometry::from_cluster(cluster, config);
    let theme = config.theme;
    let mut doc = SvgDoc::new(config.size, config.size, theme.surface);
    let (cx, cy) = geom.center;
    let n_levels = cluster.levels().count();
    let describe = |rule: &DrugAdrRule| -> String {
        match namer {
            Some(f) => f(rule),
            None => rule.to_string(),
        }
    };

    // Context sectors first (under the inner circle), with a 2px surface
    // stroke as the spacer between adjacent fills.
    for s in &geom.sectors {
        let rule = &cluster.context[s.rule_index].to_rule(&cluster.target);
        let fill = theme.level_color(s.level_index, n_levels);
        let title = format!("{} (conf {:.2})", describe(rule), s.confidence);
        doc.annular_sector(
            cx,
            cy,
            geom.band_inner,
            s.outer_radius,
            s.start_angle,
            s.end_angle,
            fill,
            Some((theme.surface, 2.0)),
            Some(&title),
        );
        if config.show_labels {
            let mid = (s.start_angle + s.end_angle) / 2.0;
            let r = geom.band_outer + 10.0;
            let (lx, ly) = (cx + r * mid.cos(), cy + r * mid.sin());
            let anchor = if mid.cos() > 0.15 {
                "start"
            } else if mid.cos() < -0.15 {
                "end"
            } else {
                "middle"
            };
            let label = format!("{} · {:.2}", describe(rule), s.confidence);
            doc.text(lx, ly, &label, 10.0, theme.text_secondary, anchor, false);
        }
    }

    // Target rule nucleus.
    let target_title =
        format!("{} (conf {:.2})", describe(&cluster.target), geom.target_confidence);
    doc.circle(
        cx,
        cy,
        geom.inner_radius,
        theme.target,
        Some((theme.surface, 2.0)),
        Some(&target_title),
    );
    // Direct label: the one number that matters (the target's confidence).
    doc.text(
        cx,
        cy + 4.0,
        &format!("{:.2}", geom.target_confidence),
        12.0,
        theme.surface,
        "middle",
        true,
    );

    // Fig. 4.1's "# of Drugs" legend: one swatch per context level, shown
    // in the zoom view where there is room.
    if config.show_labels {
        let lx = 10.0;
        let mut ly = 20.0;
        doc.text(lx, ly, "# of Drugs", 11.0, theme.text_primary, "start", true);
        for (level_index, level) in cluster.levels().enumerate() {
            ly += 16.0;
            doc.rect(lx, ly - 9.0, 11.0, 11.0, theme.level_color(level_index, n_levels));
            doc.text(
                lx + 16.0,
                ly,
                &level[0].n_drugs().to_string(),
                10.0,
                theme.text_secondary,
                "start",
                false,
            );
        }
        ly += 16.0;
        doc.rect(lx, ly - 9.0, 11.0, 11.0, theme.target);
        doc.text(lx + 16.0, ly, "target rule", 10.0, theme.text_secondary, "start", false);
    }

    if let Some(caption) = &config.caption {
        doc.text(
            config.size / 2.0,
            config.size - 6.0,
            caption,
            11.0,
            theme.text_primary,
            "middle",
            false,
        );
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_mining::{Item, ItemSet, TransactionDb};

    fn cluster(rows: &[&[u32]], drugs: &[u32], adrs: &[u32]) -> Mcac {
        let db =
            TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect());
        let t = DrugAdrRule::from_parts(
            ItemSet::from_ids(drugs.iter().copied()),
            ItemSet::from_ids(adrs.iter().copied()),
            &db,
        );
        Mcac::build(t, &db)
    }

    fn three_drug_cluster() -> Mcac {
        cluster(&[&[0, 1, 2, 10], &[0, 1, 2, 10], &[0, 10], &[1, 3], &[2, 4]], &[0, 1, 2], &[10])
    }

    #[test]
    fn sectors_cover_the_full_circle() {
        let g = GlyphGeometry::from_cluster(&three_drug_cluster(), &GlyphConfig::default());
        assert_eq!(g.sectors.len(), 6); // 2^3 - 2
        let step = TAU / 6.0;
        for (i, s) in g.sectors.iter().enumerate() {
            assert!((s.end_angle - s.start_angle - step).abs() < 1e-9);
            assert!((s.start_angle - (-PI / 2.0 + i as f64 * step)).abs() < 1e-9);
        }
        // Last sector ends back at 12 o'clock.
        let last = g.sectors.last().unwrap();
        assert!((last.end_angle - (3.0 * PI / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn sector_depth_tracks_confidence() {
        let g = GlyphGeometry::from_cluster(&three_drug_cluster(), &GlyphConfig::default());
        for s in &g.sectors {
            assert!(s.outer_radius >= g.band_inner);
            assert!(s.outer_radius <= g.band_outer + 1e-9);
        }
        // Higher-confidence sectors reach further out.
        let mut by_conf = g.sectors.clone();
        by_conf.sort_by(|a, b| a.confidence.partial_cmp(&b.confidence).unwrap());
        for w in by_conf.windows(2) {
            assert!(w[0].outer_radius <= w[1].outer_radius + 1e-9);
        }
    }

    #[test]
    fn inner_radius_grows_with_target_confidence() {
        let strong = cluster(&[&[0, 1, 10], &[0, 1, 10]], &[0, 1], &[10]);
        let weak = cluster(&[&[0, 1, 10], &[0, 1, 11], &[0, 1, 12], &[0, 1, 13]], &[0, 1], &[10]);
        let cfg = GlyphConfig::default();
        let gs = GlyphGeometry::from_cluster(&strong, &cfg);
        let gw = GlyphGeometry::from_cluster(&weak, &cfg);
        assert!(gs.target_confidence > gw.target_confidence);
        assert!(gs.inner_radius > gw.inner_radius);
    }

    #[test]
    fn levels_ordered_largest_cardinality_first() {
        let g = GlyphGeometry::from_cluster(&three_drug_cluster(), &GlyphConfig::default());
        let cards: Vec<usize> = g.sectors.iter().map(|s| s.cardinality).collect();
        assert_eq!(cards, vec![2, 2, 2, 1, 1, 1]);
        assert!(g.sectors[0].level_index < g.sectors[5].level_index);
    }

    #[test]
    fn svg_renders_with_titles_and_caption() {
        let c = three_drug_cluster();
        let cfg = GlyphConfig { caption: Some("rank #1 · 0.42".into()), ..Default::default() };
        let svg = glyph_svg(&c, &cfg, None).render();
        assert!(svg.contains("<title>"));
        assert!(svg.contains("rank #1"));
        assert!(svg.contains(crate::theme::LIGHT.target));
    }

    #[test]
    fn zoomed_view_labels_sectors() {
        let c = three_drug_cluster();
        let namer = |r: &DrugAdrRule| format!("CTX{}", r.drugs.len());
        let svg = glyph_svg(&c, &GlyphConfig::zoomed(), Some(&namer)).render();
        assert!(svg.contains("CTX1"));
        assert!(svg.contains("CTX2"));
        // Fig 4.1 legend present in zoom view only.
        assert!(svg.contains("# of Drugs"));
        assert!(svg.contains("target rule"));
        let plain = glyph_svg(&c, &GlyphConfig::default(), Some(&namer)).render();
        assert!(!plain.contains("# of Drugs"));
    }
}
