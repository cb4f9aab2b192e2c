//! DESIGN.md "Counters" documents every row of both counter tables, so
//! a counter added without its meaning fails here.

use stopwatch_repro::stopwatch_core::cloud::CloudCounter;
use stopwatch_repro::vmm::counter::SlotCounter;

const DESIGN: &str = include_str!("../DESIGN.md");

#[test]
fn design_lists_every_counter_with_its_layer() {
    let start = DESIGN
        .find("\n## Counters")
        .expect("DESIGN.md has a \"Counters\" section");
    let section = &DESIGN[start + 1..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    let rows = SlotCounter::NAMES
        .iter()
        .map(|name| (name, "slot"))
        .chain(CloudCounter::NAMES.iter().map(|name| (name, "cloud")));
    for (name, layer) in rows {
        assert!(
            section.contains(&format!("| `{name}` | {layer} |")),
            "DESIGN.md \"Counters\" has no {layer} row for `{name}`"
        );
    }
}
