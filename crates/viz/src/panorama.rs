//! The panoramagram of glyphs (thesis Fig. 4.2): the ranked clusters as a
//! small-multiple grid, best first, so an analyst can scan for the "large
//! core, shallow ring" signature and compare similarly-ranked groups.

use crate::glyph::{glyph_svg, GlyphConfig};
use crate::svg::SvgDoc;
use crate::theme::Theme;
use maras_mcac::RankedMcac;
use maras_rules::DrugAdrRule;

/// Grid layout parameters.
#[derive(Debug, Clone)]
pub struct PanoramaConfig {
    /// Glyphs per row.
    pub columns: usize,
    /// Side of each glyph cell, px.
    pub cell: f64,
    /// Overall title.
    pub title: String,
    /// Color theme (propagated to every glyph cell).
    pub theme: Theme,
}

impl Default for PanoramaConfig {
    fn default() -> Self {
        PanoramaConfig {
            columns: 5,
            cell: 180.0,
            title: "MARAS ranked drug-drug interactions".into(),
            theme: Theme::default(),
        }
    }
}

/// Renders ranked clusters as a glyph grid. `namer` labels rules for hover
/// titles (canonical names); captions carry rank and score.
pub fn panorama_svg(
    ranked: &[RankedMcac],
    config: &PanoramaConfig,
    namer: Option<&dyn Fn(&DrugAdrRule) -> String>,
) -> SvgDoc {
    let cols = config.columns.max(1);
    let rows = ranked.len().div_ceil(cols).max(1);
    let header = 36.0;
    let width = cols as f64 * config.cell;
    let height = header + rows as f64 * config.cell;
    let mut doc = SvgDoc::new(width, height, config.theme.surface);
    doc.text(12.0, 22.0, &config.title, 14.0, config.theme.text_primary, "start", true);

    for (i, r) in ranked.iter().enumerate() {
        let col = i % cols;
        let row = i / cols;
        let cfg = GlyphConfig {
            size: config.cell,
            margin: 8.0,
            caption: Some(format!("#{} · excl {:.3}", i + 1, r.score)),
            theme: config.theme,
            ..Default::default()
        };
        let cell = glyph_svg(&r.cluster, &cfg, namer);
        doc.embed(&cell, col as f64 * config.cell, header + row as f64 * config.cell);
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_mcac::{rank_clusters, RankingMethod};
    use maras_mining::{Item, ItemSet, TransactionDb};

    fn ranked_fixture(n: usize) -> Vec<RankedMcac> {
        let db = TransactionDb::new(vec![
            vec![Item(0), Item(1), Item(10)],
            vec![Item(0), Item(1), Item(10)],
            vec![Item(0), Item(2)],
            vec![Item(1), Item(3)],
        ]);
        (0..n)
            .map(|i| {
                let t = DrugAdrRule::from_parts(
                    ItemSet::from_ids([0u32, 1]),
                    ItemSet::from_ids([10u32]),
                    &db,
                );
                let mut ranked = rank_clusters(vec![t], &db, RankingMethod::default())
                    .pop()
                    .expect("fixture rule is multi-drug");
                ranked.score = 1.0 - i as f64 * 0.1;
                ranked
            })
            .collect()
    }

    #[test]
    fn grid_dimensions_fit_all_glyphs() {
        let ranked = ranked_fixture(7);
        let cfg = PanoramaConfig {
            columns: 3,
            cell: 100.0,
            title: "test".into(),
            theme: Theme::default(),
        };
        let doc = panorama_svg(&ranked, &cfg, None);
        assert_eq!(doc.width(), 300.0);
        assert_eq!(doc.height(), 36.0 + 3.0 * 100.0); // ceil(7/3)=3 rows
        let svg = doc.render();
        assert_eq!(svg.matches("transform=\"translate(").count(), 7);
        assert!(svg.contains("#1"));
        assert!(svg.contains("#7"));
    }

    #[test]
    fn empty_ranking_still_renders_title() {
        let doc = panorama_svg(&[], &PanoramaConfig::default(), None);
        let svg = doc.render();
        assert!(svg.contains("MARAS ranked"));
    }

    #[test]
    fn captions_carry_scores() {
        let ranked = ranked_fixture(2);
        let svg = panorama_svg(&ranked, &PanoramaConfig::default(), None).render();
        assert!(svg.contains("excl 1.000"));
        assert!(svg.contains("excl 0.900"));
    }
}
