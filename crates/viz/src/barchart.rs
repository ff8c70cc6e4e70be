//! Bar charts: the MCAC bar-chart baseline (Fig. 5.3) and the grouped bar
//! charts of the evaluation figures (Fig. 5.1's rule-space reduction and
//! Fig. 5.2's user-study accuracy).
//!
//! Mark rules from the data-viz method: thin bars with 4px rounded
//! data-ends anchored to the baseline, ≥2px surface gaps between adjacent
//! fills, one axis, recessive grid, text in ink tokens, a legend for ≥2
//! series plus selective direct labels (never a number on every mark).

use crate::color;
use crate::svg::SvgDoc;
use crate::theme::Theme;
use maras_mcac::Mcac;
use maras_rules::DrugAdrRule;

/// One x-axis group of a grouped bar chart.
#[derive(Debug, Clone)]
pub struct BarGroup {
    /// Group label (e.g. "Q1").
    pub label: String,
    /// One value per series.
    pub values: Vec<f64>,
}

/// Configuration for [`grouped_bars`].
#[derive(Debug, Clone)]
pub struct GroupedBarConfig {
    /// Chart title.
    pub title: String,
    /// Series names (legend entries); must match `BarGroup::values` length.
    pub series: Vec<String>,
    /// One fill per series.
    pub colors: Vec<&'static str>,
    /// Log₁₀ y-axis (Fig. 5.1 style); values must be ≥ 0 and are plotted as
    /// `log10(max(v, 1))`.
    pub log10: bool,
    /// Render values as percentages (Fig. 5.2 style, 0–100 axis).
    pub percent: bool,
    /// Canvas size.
    pub width: f64,
    /// Canvas height.
    pub height: f64,
    /// Color theme.
    pub theme: Theme,
}

impl Default for GroupedBarConfig {
    fn default() -> Self {
        GroupedBarConfig {
            title: String::new(),
            series: Vec::new(),
            colors: vec![color::SERIES_BLUE, color::SERIES_AQUA, color::TARGET],
            log10: false,
            percent: false,
            width: 560.0,
            height: 360.0,
            theme: Theme::default(),
        }
    }
}

const MARGIN_LEFT: f64 = 56.0;
const MARGIN_RIGHT: f64 = 16.0;
const MARGIN_TOP: f64 = 48.0;
const MARGIN_BOTTOM: f64 = 36.0;

/// Renders a grouped bar chart.
///
/// # Panics
/// Panics if groups disagree on series count or the config lacks colors.
pub fn grouped_bars(groups: &[BarGroup], config: &GroupedBarConfig) -> SvgDoc {
    let n_series = config.series.len();
    assert!(n_series >= 1, "at least one series");
    assert!(config.colors.len() >= n_series, "one color per series");
    for g in groups {
        assert_eq!(g.values.len(), n_series, "group {} series mismatch", g.label);
    }

    let theme = config.theme;
    let mut doc = SvgDoc::new(config.width, config.height, theme.surface);
    let plot_w = config.width - MARGIN_LEFT - MARGIN_RIGHT;
    let plot_h = config.height - MARGIN_TOP - MARGIN_BOTTOM;
    let x0 = MARGIN_LEFT;
    let y0 = MARGIN_TOP;
    let baseline = y0 + plot_h;

    // Scale.
    let transform = |v: f64| -> f64 {
        if config.log10 {
            v.max(1.0).log10()
        } else {
            v
        }
    };
    let raw_max = groups.iter().flat_map(|g| g.values.iter().copied()).fold(0.0f64, f64::max);
    let y_max = if config.percent {
        100.0
    } else if config.log10 {
        transform(raw_max).ceil().max(1.0)
    } else {
        nice_ceiling(raw_max)
    };
    let y_of = |v: f64| baseline - (transform(v) / y_max).clamp(0.0, 1.0) * plot_h;

    // Title + legend (legend is mandatory at ≥2 series).
    doc.text(x0, 20.0, &config.title, 13.0, theme.text_primary, "start", true);
    if n_series >= 2 {
        let mut lx = x0;
        let ly = 34.0;
        for (i, name) in config.series.iter().enumerate() {
            doc.rect(lx, ly - 8.0, 10.0, 10.0, config.colors[i]);
            doc.text(lx + 14.0, ly, name, 10.0, theme.text_secondary, "start", false);
            lx += 14.0 + 7.0 * name.len() as f64 + 18.0;
        }
    }

    // Grid + y labels.
    let n_ticks = if config.log10 { y_max as usize } else { 4 };
    for t in 0..=n_ticks {
        let frac = t as f64 / n_ticks as f64;
        let y = baseline - frac * plot_h;
        doc.line(x0, y, x0 + plot_w, y, theme.grid, 1.0);
        let label = if config.log10 {
            format!("1E+{:02}", (frac * y_max).round() as u32)
        } else if config.percent {
            format!("{}%", (frac * y_max).round() as u32)
        } else {
            format!("{}", (frac * y_max).round() as u64)
        };
        doc.text(x0 - 6.0, y + 3.0, &label, 9.0, theme.text_secondary, "end", false);
    }

    // Bars.
    let group_w = plot_w / groups.len().max(1) as f64;
    let gap = 2.0;
    let bar_w = ((group_w * 0.72) / n_series as f64 - gap).max(3.0);
    for (gi, g) in groups.iter().enumerate() {
        let gx = x0 + gi as f64 * group_w + group_w * 0.14;
        for (si, &v) in g.values.iter().enumerate() {
            let bx = gx + si as f64 * (bar_w + gap);
            let by = y_of(v);
            let h = baseline - by;
            if h > 0.0 {
                let title = format!("{} · {}: {}", g.label, config.series[si], format_value(v));
                doc.bar_rounded_top(bx, by, bar_w, h, 4.0, config.colors[si], Some(&title));
            }
        }
        doc.text(
            gx + (bar_w + gap) * n_series as f64 / 2.0,
            baseline + 16.0,
            &g.label,
            10.0,
            theme.text_secondary,
            "middle",
            false,
        );
    }
    // Baseline axis on top of bars.
    doc.line(x0, baseline, x0 + plot_w, baseline, theme.text_secondary, 1.0);
    doc
}

fn nice_ceiling(v: f64) -> f64 {
    if v <= 0.0 {
        return 1.0;
    }
    let mag = 10f64.powf(v.log10().floor());
    let n = v / mag;
    let nice = if n <= 1.0 {
        1.0
    } else if n <= 2.0 {
        2.0
    } else if n <= 5.0 {
        5.0
    } else {
        10.0
    };
    nice * mag
}

fn format_value(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.0}", v)
    } else if v == v.trunc() {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

/// The Fig. 5.3 baseline visualization: one MCAC as a bar chart — target
/// rule first (orange), then every contextual rule (blue ramp by
/// cardinality), confidence on the y-axis.
pub fn mcac_barchart(
    cluster: &Mcac,
    title: &str,
    namer: Option<&dyn Fn(&DrugAdrRule) -> String>,
) -> SvgDoc {
    mcac_barchart_themed(cluster, title, namer, Theme::default())
}

/// [`mcac_barchart`] with an explicit theme.
pub fn mcac_barchart_themed(
    cluster: &Mcac,
    title: &str,
    namer: Option<&dyn Fn(&DrugAdrRule) -> String>,
    theme: Theme,
) -> SvgDoc {
    let n_bars = 1 + cluster.context_size();
    let width = (n_bars as f64 * 34.0 + MARGIN_LEFT + MARGIN_RIGHT).max(320.0);
    let height = 300.0;
    let mut doc = SvgDoc::new(width, height, theme.surface);
    let plot_w = width - MARGIN_LEFT - MARGIN_RIGHT;
    let plot_h = height - MARGIN_TOP - MARGIN_BOTTOM;
    let baseline = MARGIN_TOP + plot_h;
    let describe = |rule: &DrugAdrRule| -> String {
        match namer {
            Some(f) => f(rule),
            None => rule.to_string(),
        }
    };

    doc.text(MARGIN_LEFT, 20.0, title, 13.0, theme.text_primary, "start", true);
    // y grid: confidence 0..1.
    for t in 0..=4 {
        let frac = t as f64 / 4.0;
        let y = baseline - frac * plot_h;
        doc.line(MARGIN_LEFT, y, MARGIN_LEFT + plot_w, y, theme.grid, 1.0);
        doc.text(
            MARGIN_LEFT - 6.0,
            y + 3.0,
            &format!("{frac:.2}"),
            9.0,
            theme.text_secondary,
            "end",
            false,
        );
    }

    let bar_w = (plot_w / n_bars as f64 - 2.0).clamp(4.0, 28.0);
    let step = plot_w / n_bars as f64;
    let n_levels = cluster.levels().count();
    let mut x = MARGIN_LEFT + (step - bar_w) / 2.0;

    // Target bar (direct label: the headline number).
    let p = cluster.target.confidence().clamp(0.0, 1.0);
    let h = p * plot_h;
    doc.bar_rounded_top(
        x,
        baseline - h,
        bar_w,
        h,
        4.0,
        theme.target,
        Some(&format!("target: {} (conf {:.2})", describe(&cluster.target), p)),
    );
    doc.text(
        x + bar_w / 2.0,
        baseline - h - 4.0,
        &format!("{p:.2}"),
        9.0,
        theme.text_primary,
        "middle",
        true,
    );
    doc.text(x + bar_w / 2.0, baseline + 14.0, "R", 9.0, theme.text_secondary, "middle", true);
    x += step;

    for (level_index, level) in cluster.levels().enumerate() {
        for (ri, rule) in level.iter().map(|r| r.to_rule(&cluster.target)).enumerate() {
            let c = rule.confidence().clamp(0.0, 1.0);
            let h = (c * plot_h).max(1.0);
            let fill = theme.level_color(level_index, n_levels);
            doc.bar_rounded_top(
                x,
                baseline - h,
                bar_w,
                h,
                4.0,
                fill,
                Some(&format!("{} (conf {:.2})", describe(&rule), c)),
            );
            doc.text(
                x + bar_w / 2.0,
                baseline + 14.0,
                &format!("R{}{}", rule.n_drugs(), (b'a' + ri as u8) as char),
                9.0,
                theme.text_secondary,
                "middle",
                false,
            );
            x += step;
        }
    }
    doc.line(MARGIN_LEFT, baseline, MARGIN_LEFT + plot_w, baseline, theme.text_secondary, 1.0);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_mining::{Item, ItemSet, TransactionDb};

    fn sample_cluster() -> Mcac {
        let db = TransactionDb::new(vec![
            vec![Item(0), Item(1), Item(10)],
            vec![Item(0), Item(1), Item(10)],
            vec![Item(0), Item(2)],
            vec![Item(1), Item(10)],
        ]);
        let t =
            DrugAdrRule::from_parts(ItemSet::from_ids([0u32, 1]), ItemSet::from_ids([10u32]), &db);
        Mcac::build(t, &db)
    }

    #[test]
    fn grouped_bars_renders_all_groups_and_legend() {
        let groups = vec![
            BarGroup { label: "Q1".into(), values: vec![1.0e6, 2.0e5, 4.0e3] },
            BarGroup { label: "Q2".into(), values: vec![1.2e6, 2.4e5, 4.4e3] },
        ];
        let cfg = GroupedBarConfig {
            title: "Reduction in number of rules".into(),
            series: vec!["Total Rules".into(), "Filtered Rules".into(), "MCACs".into()],
            log10: true,
            ..Default::default()
        };
        let svg = grouped_bars(&groups, &cfg).render();
        assert!(svg.contains("Q1") && svg.contains("Q2"));
        assert!(svg.contains("Total Rules"));
        assert!(svg.contains("1E+0"));
        assert!(svg.matches("<path").count() >= 6, "six bars expected");
    }

    #[test]
    fn percent_mode_axis() {
        let groups = vec![BarGroup { label: "Two".into(), values: vec![71.0, 47.0] }];
        let cfg = GroupedBarConfig {
            title: "User study".into(),
            series: vec!["Contextual Glyph".into(), "Barchart".into()],
            percent: true,
            ..Default::default()
        };
        let svg = grouped_bars(&groups, &cfg).render();
        assert!(svg.contains("100%"));
        assert!(svg.contains("0%"));
    }

    #[test]
    #[should_panic(expected = "series mismatch")]
    fn mismatched_group_panics() {
        let groups = vec![BarGroup { label: "A".into(), values: vec![1.0] }];
        let cfg = GroupedBarConfig { series: vec!["s1".into(), "s2".into()], ..Default::default() };
        grouped_bars(&groups, &cfg);
    }

    #[test]
    fn mcac_barchart_has_one_bar_per_rule() {
        let c = sample_cluster();
        let svg = mcac_barchart(&c, "MCAC", None).render();
        // 1 target + 2 context bars.
        assert_eq!(svg.matches("<path").count(), 3, "{svg}");
        assert!(svg.contains("R1a"));
        assert!(svg.contains("R1b"));
        assert!(svg.contains(crate::theme::LIGHT.target));
    }

    #[test]
    fn zero_valued_bars_are_skipped_in_grouped_chart() {
        let groups = vec![BarGroup { label: "A".into(), values: vec![0.0, 5.0] }];
        let cfg = GroupedBarConfig { series: vec!["x".into(), "y".into()], ..Default::default() };
        let svg = grouped_bars(&groups, &cfg).render();
        assert_eq!(svg.matches("<path").count(), 1);
    }

    #[test]
    fn nice_ceiling_values() {
        assert_eq!(nice_ceiling(0.0), 1.0);
        assert_eq!(nice_ceiling(0.7), 1.0);
        assert_eq!(nice_ceiling(1.4), 2.0);
        assert_eq!(nice_ceiling(4.2), 5.0);
        assert_eq!(nice_ceiling(70.0), 100.0);
        assert_eq!(nice_ceiling(100.0), 100.0);
    }
}
