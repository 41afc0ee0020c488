//! Parser for the server's `METRICS` response (Prometheus text
//! exposition wrapped in `OK metrics` … `END`).

use std::collections::BTreeMap;

/// One histogram's totals (the `_sum` and `_count` series).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistTotals {
    /// Observations recorded.
    pub count: f64,
    /// Sum of observed values.
    pub sum: f64,
}

/// A parsed scrape: counters and gauges by exposition name, histogram
/// totals by base name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    /// `name value` samples (counters and gauges).
    pub values: BTreeMap<String, f64>,
    /// Histograms by base name (without `_sum`/`_count`/`_bucket`).
    pub hists: BTreeMap<String, HistTotals>,
}

/// The exposition name of a registry metric (`a.b_c` → `asap_a_b_c`).
pub fn exposition_name(name: &str) -> String {
    format!("asap_{}", name.replace('.', "_"))
}

impl Scrape {
    /// Parses a `METRICS` response or bare exposition text.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut scrape = Scrape::default();
        let mut kinds: BTreeMap<&str, &str> = BTreeMap::new();
        for line in text.lines() {
            if line.is_empty() || line == "OK metrics" || line == "END" {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    return Err(format!("bad TYPE line `{line}`"));
                };
                kinds.insert(name, kind);
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("bad sample line `{line}`"))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("bad sample value in `{line}`"))?;
            if series.contains("_bucket{") {
                continue;
            }
            let hist_part = |suffix: &str| {
                series
                    .strip_suffix(suffix)
                    .filter(|base| kinds.get(base) == Some(&"histogram"))
            };
            if let Some(base) = hist_part("_sum") {
                scrape.hists.entry(base.to_owned()).or_default().sum = value;
            } else if let Some(base) = hist_part("_count") {
                scrape.hists.entry(base.to_owned()).or_default().count = value;
            } else {
                scrape.values.insert(series.to_owned(), value);
            }
        }
        Ok(scrape)
    }

    /// Counter/gauge `name` (registry name), 0 when absent.
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .get(&exposition_name(name))
            .copied()
            .unwrap_or(0.0)
    }

    /// Histogram `name` (registry name), zero totals when absent.
    pub fn hist(&self, name: &str) -> HistTotals {
        self.hists
            .get(&exposition_name(name))
            .copied()
            .unwrap_or_default()
    }
}

/// Observations and summed value of histogram `name` between two scrapes.
pub fn hist_delta(before: &Scrape, after: &Scrape, name: &str) -> HistTotals {
    let (a, b) = (before.hist(name), after.hist(name));
    HistTotals {
        count: b.count - a.count,
        sum: b.sum - a.sum,
    }
}

/// Mean observation of histogram `name` between two scrapes (`None`
/// when nothing was observed).
pub fn mean_delta(before: &Scrape, after: &Scrape, name: &str) -> Option<f64> {
    let d = hist_delta(before, after, name);
    (d.count > 0.0).then(|| d.sum / d.count)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "OK metrics\n\
        # TYPE asap_ingest_points counter\n\
        asap_ingest_points 1200\n\
        # TYPE asap_store_series gauge\n\
        asap_store_series 8\n\
        # TYPE asap_query_smooth_execute_micros histogram\n\
        asap_query_smooth_execute_micros_bucket{le=\"1023\"} 3\n\
        asap_query_smooth_execute_micros_bucket{le=\"+Inf\"} 4\n\
        asap_query_smooth_execute_micros_sum 5120\n\
        asap_query_smooth_execute_micros_count 4\n\
        END\n";

    #[test]
    fn parses_counters_gauges_and_histogram_totals() {
        let s = Scrape::parse(TEXT).unwrap();
        assert_eq!(s.value("ingest.points"), 1200.0);
        assert_eq!(s.value("store.series"), 8.0);
        assert_eq!(s.value("never.registered"), 0.0);
        let h = s.hist("query.smooth.execute_micros");
        assert_eq!(
            h,
            HistTotals {
                count: 4.0,
                sum: 5120.0
            }
        );
        // Bucket series are not mistaken for counters.
        assert!(s.values.keys().all(|k| !k.contains("bucket")));
    }

    #[test]
    fn deltas_between_scrapes() {
        let before = Scrape::parse(TEXT).unwrap();
        let after = Scrape::parse(
            &TEXT
                .replace("_sum 5120", "_sum 9120")
                .replace("_count 4", "_count 6"),
        )
        .unwrap();
        let d = hist_delta(&before, &after, "query.smooth.execute_micros");
        assert_eq!(
            d,
            HistTotals {
                count: 2.0,
                sum: 4000.0
            }
        );
        assert_eq!(
            mean_delta(&before, &after, "query.smooth.execute_micros"),
            Some(2000.0)
        );
        assert_eq!(
            mean_delta(&before, &before, "query.smooth.execute_micros"),
            None
        );
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(Scrape::parse("asap_x not_a_number\n").is_err());
        assert!(Scrape::parse("lonely\n").is_err());
        assert!(Scrape::parse("# TYPE onlyname\n").is_err());
    }
}
