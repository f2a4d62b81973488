//! Lossy ingestion policy: divert bad rows instead of aborting.
//!
//! The published Alibaba-2018 files are known to contain truncated and
//! inconsistent rows; a 4M-job ingestion that aborts on the first one is
//! useless operationally. [`ReadPolicy`] selects between the historical
//! fail-fast behavior ([`ReadPolicy::Strict`], bit-identical to the
//! original readers) and **quarantine mode**, where up to `max_bad` bad
//! rows are recorded in a [`Quarantine`] report — line number, byte
//! offset, error, raw excerpt — and skipped, so one malformed row costs
//! one row, not the whole trace.
//!
//! A row is *bad* when it fails to decode (wrong field count, unparsable
//! numeric field, invalid UTF-8) or — quarantine mode only — when its
//! timestamps are impossible (`end_time` before `start_time`, both
//! present). Strict mode accepts impossible timestamps exactly as it
//! always has; downstream availability filters reject those jobs later.
//!
//! Quarantined rows may leave the jobs they belong to with a partial task
//! set. [`Quarantine::suspect_jobs`] names every job implicated by a bad
//! row, and the streamed scan drops each of them whole (see
//! [`crate::stream::StreamedTrace::suspects`]) instead of silently
//! characterizing a truncated DAG.

use std::collections::BTreeMap;

use crate::TraceError;

/// Longest raw-row excerpt kept in a quarantine entry, in bytes.
const MAX_EXCERPT_BYTES: usize = 120;

/// How a reader treats rows that fail to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Abort on the first bad row with its error — the historical
    /// behavior, bit-identical to the policy-free readers.
    Strict,
    /// Divert bad rows into a [`Quarantine`] report and keep reading.
    /// The `max_bad + 1`-th bad row aborts the read with that row's
    /// error, so a wholly corrupt file cannot masquerade as a short one.
    /// `Quarantine { max_bad: 0 }` therefore behaves exactly like
    /// [`ReadPolicy::Strict`] on any input free of impossible timestamps.
    Quarantine {
        /// Largest number of bad rows tolerated before aborting.
        max_bad: usize,
    },
}

impl ReadPolicy {
    /// The bad-row budget: 0 under [`ReadPolicy::Strict`].
    pub fn max_bad(&self) -> usize {
        match self {
            ReadPolicy::Strict => 0,
            ReadPolicy::Quarantine { max_bad } => *max_bad,
        }
    }

    /// Whether bad rows are diverted rather than aborted on.
    pub fn is_quarantine(&self) -> bool {
        matches!(self, ReadPolicy::Quarantine { .. })
    }
}

/// One diverted row.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedRow {
    /// 1-based line number in the source document.
    pub line: usize,
    /// Byte offset of the row's first byte in the source document.
    pub byte_offset: u64,
    /// Why the row was diverted.
    pub error: TraceError,
    /// The raw row text, lossily decoded and truncated to a bounded
    /// excerpt so a pathological multi-megabyte line cannot bloat the
    /// report.
    pub excerpt: String,
    /// The row's `job_name` field, when enough of the row existed to
    /// extract one (bad rows implicate their job, see
    /// [`Quarantine::suspect_jobs`]).
    pub job_name: Option<String>,
}

/// Loss accounting for one read under [`ReadPolicy::Quarantine`].
///
/// Invariant (checked by the property suite): `rows_good +
/// rows.len() == rows_total` on every input, under both the sequential
/// and the chunked parallel readers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quarantine {
    /// Every diverted row, in document order.
    pub rows: Vec<QuarantinedRow>,
    /// Rows decoded successfully.
    pub rows_good: usize,
    /// Non-blank rows seen (good + quarantined).
    pub rows_total: usize,
    /// All lines seen, blank ones included.
    pub lines_total: usize,
}

impl Quarantine {
    /// Number of diverted rows.
    pub fn rows_quarantined(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing was diverted.
    pub fn is_clean(&self) -> bool {
        self.rows.is_empty()
    }

    /// Job names implicated by quarantined rows, with the first
    /// quarantine entry that implicated each (document order decides).
    /// Jobs listed here have a potentially incomplete task set and should
    /// be dropped from ingestion.
    pub fn suspect_jobs(&self) -> BTreeMap<&str, &QuarantinedRow> {
        let mut out = BTreeMap::new();
        for row in &self.rows {
            if let Some(name) = row.job_name.as_deref() {
                out.entry(name).or_insert(row);
            }
        }
        out
    }

    /// One-paragraph human summary for logs and CLI output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "quarantine: {} of {} rows diverted ({} good)",
            self.rows.len(),
            self.rows_total,
            self.rows_good
        );
        for row in self.rows.iter().take(5) {
            write!(
                out,
                "\n  line {} (byte {}): {} | {:?}",
                row.line, row.byte_offset, row.error, row.excerpt
            )
            .expect("writing to a String cannot fail");
        }
        if self.rows.len() > 5 {
            write!(out, "\n  … and {} more", self.rows.len() - 5)
                .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Build a bounded lossy excerpt of a raw row.
pub(crate) fn excerpt_of(raw: &[u8]) -> String {
    let cut = raw.len().min(MAX_EXCERPT_BYTES);
    // Back off to a char boundary so the lossy decode never splits a
    // multi-byte sequence that was valid in the source.
    let mut end = cut;
    while end > 0 && end < raw.len() && (raw[end] & 0xC0) == 0x80 {
        end -= 1;
    }
    let mut text = String::from_utf8_lossy(&raw[..end]).into_owned();
    if raw.len() > end {
        text.push('…');
    }
    text
}

/// Best-effort `job_name` extraction from a raw row (third CSV field in
/// both the `batch_task` and `batch_instance` schemas). Works even when
/// the row is malformed elsewhere.
pub(crate) fn job_name_of(raw: &[u8]) -> Option<String> {
    let field = raw.split(|&b| b == b',').nth(2)?;
    if field.is_empty() {
        return None;
    }
    std::str::from_utf8(field).ok().map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excerpt_is_bounded_and_lossy() {
        assert_eq!(excerpt_of(b"a,b,c"), "a,b,c");
        let long = vec![b'x'; 500];
        let e = excerpt_of(&long);
        assert!(e.chars().count() <= MAX_EXCERPT_BYTES + 1);
        assert!(e.ends_with('…'));
        // Invalid UTF-8 never panics.
        assert!(excerpt_of(b"\xff\xfe,bad").contains(','));
        // Truncation backs off to a char boundary.
        let mut doc = vec![b'a'; MAX_EXCERPT_BYTES - 1];
        doc.extend_from_slice("é".as_bytes()); // 2-byte char straddling the cut
        let e = excerpt_of(&doc);
        assert!(e.ends_with('…'));
    }

    #[test]
    fn job_name_extraction_is_best_effort() {
        assert_eq!(job_name_of(b"M1,2,j_77,1"), Some("j_77".to_string()));
        assert_eq!(job_name_of(b"M1,2,j_77"), Some("j_77".to_string()));
        assert_eq!(job_name_of(b"M1,2"), None);
        assert_eq!(job_name_of(b"M1,2,,1"), None);
        assert_eq!(job_name_of(b"M1,2,\xff\xfe,1"), None);
    }

    #[test]
    fn suspect_jobs_keeps_first_entry_per_job() {
        let row = |line: usize, job: Option<&str>| QuarantinedRow {
            line,
            byte_offset: 0,
            error: TraceError::Io("x".into()),
            excerpt: String::new(),
            job_name: job.map(str::to_string),
        };
        let q = Quarantine {
            rows: vec![row(1, Some("j_a")), row(2, None), row(3, Some("j_a"))],
            rows_good: 0,
            rows_total: 3,
            lines_total: 3,
        };
        let suspects = q.suspect_jobs();
        assert_eq!(suspects.len(), 1);
        assert_eq!(suspects["j_a"].line, 1);
        assert!(q.render().contains("3 of 3 rows"));
    }
}
