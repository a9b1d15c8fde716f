//! Spans recorded by the benchmark around its calls into each layer:
//! held in memory during a traced run, written as JSON lines at exit.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover; that is how a client request's time is
//! split into the origin fetch and everything else.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the run's [`Clock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The layer call, e.g. `request.get` or `origin.fetch`.
    pub name: &'static str,
    /// Start, ns since the clock's epoch.
    pub start_ns: u64,
    /// End, ns since the clock's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The epoch every span of a run is timed against.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose epoch is now.
    #[must_use]
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// `parent`'s duration minus the union of `children` clipped to it.
#[must_use]
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.duration_ns() - covered
}

/// Self time of every span in `spans`, keyed by span id.
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(*s);
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, self_time_ns(s, kids))
        })
        .collect()
}

/// Writes `spans` to `path`, one JSON object per line.
///
/// # Errors
///
/// Creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let p = span(1, 0, 100, 200);
        assert_eq!(self_time_ns(&p, &[]), 100);
        assert_eq!(self_time_ns(&p, &[span(2, 1, 120, 150)]), 70);
        // Overlapping children count once.
        let kids = [span(2, 1, 120, 150), span(3, 1, 140, 160)];
        assert_eq!(self_time_ns(&p, &kids), 60);
        // Disjoint children both count; order does not matter.
        let kids = [span(3, 1, 170, 180), span(2, 1, 110, 120)];
        assert_eq!(self_time_ns(&p, &kids), 80);
        // A child reaching outside the parent is clipped to it.
        let kids = [span(2, 1, 50, 130), span(3, 1, 190, 400)];
        assert_eq!(self_time_ns(&p, &kids), 60);
        // A child wholly outside covers nothing; one covering all leaves 0.
        assert_eq!(self_time_ns(&p, &[span(2, 1, 300, 400)]), 100);
        assert_eq!(self_time_ns(&p, &[span(2, 1, 0, 500)]), 0);
    }

    #[test]
    fn self_times_groups_children_by_parent() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 0, 200, 260),
            span(4, 3, 210, 220),
            span(5, 3, 230, 250),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 70);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 10);
    }
}
