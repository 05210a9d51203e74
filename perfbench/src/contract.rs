//! The benchmark's contract, read from `BENCHMARK.json` at the repository
//! root, which is the only place metric names and units are written down.
//!
//! The file is compiled in and read with a small scanner that relies on
//! its layout: one array per section, entries as flat objects of string
//! and number fields, no `]` inside strings.

/// `BENCHMARK.json`, as compiled in.
pub const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// String field `key` of every entry in the `section` array.
pub fn field(section: &str, key: &str) -> Vec<String> {
    let start = CONTRACT
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &CONTRACT[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let tag = format!("\"{key}\": \"");
    body.split('{')
        .skip(1)
        .map(|entry| {
            let at = entry
                .find(&tag)
                .unwrap_or_else(|| panic!("{section} entry without {key}"))
                + tag.len();
            entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
        })
        .collect()
}

/// `(name, unit)` of every metric in the `section` array (`end_to_end`
/// or `per_layer`).
pub fn metrics(section: &str) -> Vec<(String, String)> {
    field(section, "name")
        .into_iter()
        .zip(field(section, "unit"))
        .collect()
}

/// Workload names, in contract order.
pub fn workloads() -> Vec<String> {
    field("workloads", "name")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_section_parses() {
        let e2e = metrics("end_to_end");
        assert!(e2e.contains(&("setup_s".to_string(), "s".to_string())));
        assert!(metrics("per_layer").len() > e2e.len());
        assert_eq!(workloads().len(), field("workloads", "why").len());
    }
}
