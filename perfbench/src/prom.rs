//! Prometheus text scrapes and their deltas.

use std::collections::BTreeMap;

/// One scrape: series key (`name{labels}` exactly as exposed) → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    /// Parses Prometheus text exposition v0.0.4. Comment lines and lines
    /// whose value does not parse are skipped.
    pub fn parse(text: &str) -> Scrape {
        let mut out = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value follows the last space outside the label braces.
            let split_at = match line.rfind('}') {
                Some(close) => line[close..].find(' ').map(|i| close + i),
                None => line.find(' '),
            };
            let Some(at) = split_at else { continue };
            let (key, rest) = line.split_at(at);
            let value = rest.split_whitespace().next().and_then(|v| v.parse::<f64>().ok());
            if let Some(v) = value {
                out.insert(key.to_string(), v);
            }
        }
        Scrape(out)
    }

    /// The value of one series, 0 when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `after - before` for every series in `after`.
    pub fn delta(before: &Scrape, after: &Scrape) -> Scrape {
        Scrape(after.0.iter().map(|(k, &v)| (k.clone(), v - before.get(k))).collect())
    }

    /// Sum over every series named `name` whose labels contain `label`
    /// (an exact `key="value"` pair), or over all of them when `label` is
    /// empty.
    pub fn sum(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                let (series, labels) = k.split_once('{').unwrap_or((k.as_str(), ""));
                series == name
                    && (label.is_empty()
                        || labels.split(',').any(|l| l.trim_end_matches('}') == label))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// `sum / count` of a histogram's `_sum` and `_count` series matching
    /// `label`, 0 when nothing was observed.
    pub fn mean(&self, histogram: &str, label: &str) -> f64 {
        let count = self.sum(&format!("{histogram}_count"), label);
        if count > 0.0 {
            self.sum(&format!("{histogram}_sum"), label) / count
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP maras_requests_total requests served, by endpoint
# TYPE maras_requests_total counter
maras_requests_total{endpoint=\"search\"} 10
maras_requests_total{endpoint=\"reports\"} 4
maras_request_latency_us_sum{endpoint=\"search\"} 500
maras_request_latency_us_count{endpoint=\"search\"} 10
maras_serve_phase_us_sum{phase=\"parse\"} 100
maras_serve_phase_us_count{phase=\"parse\"} 14
maras_cache_hits_total 3
maras_obs_dropped_total{kind=\"spans\"} 0
";

    const AFTER: &str = "\
maras_requests_total{endpoint=\"search\"} 30
maras_requests_total{endpoint=\"reports\"} 6
maras_request_latency_us_sum{endpoint=\"search\"} 2500
maras_request_latency_us_count{endpoint=\"search\"} 30
maras_serve_phase_us_sum{phase=\"parse\"} 320
maras_serve_phase_us_count{phase=\"parse\"} 36
maras_serve_phase_us_bucket{phase=\"parse\",le=\"+Inf\"} 36
maras_cache_hits_total 13
maras_obs_dropped_total{kind=\"spans\"} 7
not a sample line
";

    #[test]
    fn parses_labelled_and_bare_series() {
        let s = Scrape::parse(AFTER);
        assert_eq!(s.get("maras_cache_hits_total"), 13.0);
        assert_eq!(s.get("maras_requests_total{endpoint=\"reports\"}"), 6.0);
        assert_eq!(s.get("maras_serve_phase_us_bucket{phase=\"parse\",le=\"+Inf\"}"), 36.0);
        assert_eq!(s.get("missing"), 0.0);
        assert_eq!(s.0.len(), 9);
    }

    #[test]
    fn deltas_sums_and_means() {
        let d = Scrape::delta(&Scrape::parse(BEFORE), &Scrape::parse(AFTER));
        assert_eq!(d.get("maras_cache_hits_total"), 10.0);
        assert_eq!(d.sum("maras_requests_total", ""), 22.0);
        assert_eq!(d.sum("maras_requests_total", "endpoint=\"search\""), 20.0);
        assert_eq!(d.mean("maras_request_latency_us", "endpoint=\"search\""), 100.0);
        assert_eq!(d.mean("maras_serve_phase_us", "phase=\"parse\""), 10.0);
        assert_eq!(d.mean("maras_serve_phase_us", "phase=\"write\""), 0.0);
        assert_eq!(d.get("maras_obs_dropped_total{kind=\"spans\"}"), 7.0);
        // A bucket series is not counted as its histogram's `_count`.
        assert_eq!(d.sum("maras_serve_phase_us_count", ""), 22.0);
    }
}
