//! CSV codecs for the v2018 `batch_task` / `batch_instance` files.
//!
//! The published trace ships headerless comma-separated files; fields never
//! contain commas or quotes, so a split-based codec is both correct for the
//! real data and fast. Empty numeric fields (common in the real trace for
//! missing timestamps/resources) decode as `0`.
//!
//! The sequential readers [`read_tasks`] / [`read_instances`] stream from
//! any [`BufRead`] through the SWAR scanner ([`crate::scan`]). The scalar
//! readers [`read_tasks_scalar_with_policy`] /
//! [`read_instances_scalar_with_policy`] keep the historical line-at-a-time
//! `&str` decoder as the oracle the equivalence suites compare against.
//! Production ingest of a whole trace goes through
//! [`crate::stream::StreamedTrace`] instead, which decodes with the same
//! SWAR parser.

use std::io::{BufRead, BufWriter, Read, Write};

use dagscope_faults::failpoint;

use crate::intern::{IStr, Interner};
use crate::quarantine::{Quarantine, QuarantinedRow, ReadPolicy};
use crate::scan;
use crate::schema::{InstanceRecord, Status, TaskRecord};
use crate::TraceError;

pub(crate) const TASK_FIELDS: usize = 9;
pub(crate) const INSTANCE_FIELDS: usize = 14;

/// Buffer capacity for the default streaming readers — large enough that
/// the SWAR scanner spends its time in line parsing, not `read` calls.
const DEFAULT_READ_BUF: usize = 1 << 20;

/// The message `BufRead::lines` produces for invalid UTF-8; the SWAR
/// paths emit the same text so errors compare equal across paths.
pub(crate) const UTF8_ERR: &str = "stream did not contain valid UTF-8";

fn parse_num<T: std::str::FromStr + Default>(
    s: &str,
    line: usize,
    column: &'static str,
) -> Result<T, TraceError> {
    if s.is_empty() {
        return Ok(T::default());
    }
    s.parse::<T>().map_err(|_| TraceError::BadField {
        line,
        column,
        value: s.to_string(),
    })
}

/// Split a row into exactly `N` comma-separated fields without allocating.
fn split_fields<const N: usize>(line_no: usize, line: &str) -> Result<[&str; N], TraceError> {
    let mut fields = [""; N];
    let mut it = line.split(',');
    for (i, slot) in fields.iter_mut().enumerate() {
        match it.next() {
            Some(f) => *slot = f,
            None => {
                return Err(TraceError::FieldCount {
                    line: line_no,
                    expected: N,
                    found: i,
                })
            }
        }
    }
    if it.next().is_some() {
        return Err(TraceError::FieldCount {
            line: line_no,
            expected: N,
            found: line.split(',').count(),
        });
    }
    Ok(fields)
}

/// One `batch_task.csv` row decoded against borrowed field slices — the
/// allocation-free form the columnar streaming reader consumes. Field and
/// error-precedence semantics are exactly those of
/// [`parse_task_line_interned`], which is built on top of this.
#[derive(Debug, Clone, Copy)]
pub struct TaskParts<'a> {
    /// Dependency-encoding task name.
    pub task_name: &'a str,
    /// Instance count.
    pub instance_num: u32,
    /// Owning job identifier.
    pub job_name: &'a str,
    /// Task type code (not yet interned).
    pub task_type: &'a str,
    /// Final status.
    pub status: Status,
    /// Start timestamp.
    pub start_time: i64,
    /// End timestamp.
    pub end_time: i64,
    /// Requested CPU.
    pub plan_cpu: f64,
    /// Requested memory.
    pub plan_mem: f64,
}

impl TaskParts<'_> {
    /// Materialize into an owned record, interning the low-cardinality
    /// columns through `interner`.
    pub fn to_record(&self, interner: &mut Interner) -> TaskRecord {
        self.record_of(interner.intern(self.job_name), interner)
    }

    /// [`TaskParts::to_record`] with the job name already in hand — a
    /// caller that knows the row's job interns only the task type.
    pub(crate) fn record_of(&self, job_name: IStr, interner: &mut Interner) -> TaskRecord {
        TaskRecord {
            task_name: self.task_name.to_string(),
            instance_num: self.instance_num,
            job_name,
            task_type: interner.intern(self.task_type),
            status: self.status,
            start_time: self.start_time,
            end_time: self.end_time,
            plan_cpu: self.plan_cpu,
            plan_mem: self.plan_mem,
        }
    }
}

/// Scalar-oracle fallback for raw byte rows the SWAR fast path declines
/// ([`crate::scan::parse_task_parts_bytes`]): exact historical semantics,
/// including the UTF-8 error taking precedence over any parse error.
pub(crate) fn task_parts_fallback(line_no: usize, raw: &[u8]) -> Result<TaskParts<'_>, TraceError> {
    match std::str::from_utf8(raw) {
        Err(_) => Err(TraceError::Io(UTF8_ERR.to_string())),
        Ok(text) => parse_task_parts(line_no, text),
    }
}

/// Scalar-oracle fallback for raw byte instance rows (see
/// [`task_parts_fallback`]).
pub(crate) fn instance_parts_fallback(
    line_no: usize,
    raw: &[u8],
) -> Result<InstanceParts<'_>, TraceError> {
    match std::str::from_utf8(raw) {
        Err(_) => Err(TraceError::Io(UTF8_ERR.to_string())),
        Ok(text) => parse_instance_parts(line_no, text),
    }
}

/// Decode one `batch_task.csv` row into borrowed parts.
pub fn parse_task_parts(line_no: usize, line: &str) -> Result<TaskParts<'_>, TraceError> {
    let f: [&str; TASK_FIELDS] = split_fields(line_no, line)?;
    Ok(TaskParts {
        task_name: f[0],
        instance_num: parse_num(f[1], line_no, "instance_num")?,
        job_name: f[2],
        task_type: f[3],
        status: Status::parse(f[4]),
        start_time: parse_num(f[5], line_no, "start_time")?,
        end_time: parse_num(f[6], line_no, "end_time")?,
        plan_cpu: parse_num(f[7], line_no, "plan_cpu")?,
        plan_mem: parse_num(f[8], line_no, "plan_mem")?,
    })
}

/// Decode one `batch_task.csv` row, interning `job_name` and `task_type`
/// through `interner`.
pub fn parse_task_line_interned(
    line_no: usize,
    line: &str,
    interner: &mut Interner,
) -> Result<TaskRecord, TraceError> {
    parse_task_parts(line_no, line).map(|p| p.to_record(interner))
}

/// Decode one `batch_task.csv` row.
pub fn parse_task_line(line_no: usize, line: &str) -> Result<TaskRecord, TraceError> {
    parse_task_line_interned(line_no, line, &mut Interner::new())
}

/// One `batch_instance.csv` row decoded against borrowed field slices —
/// the allocation-free twin of [`TaskParts`]. Field and error-precedence
/// semantics are exactly those of [`parse_instance_line_interned`], which
/// is built on top of this.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct InstanceParts<'a> {
    pub instance_name: &'a str,
    pub task_name: &'a str,
    pub job_name: &'a str,
    pub task_type: &'a str,
    pub status: Status,
    pub start_time: i64,
    pub end_time: i64,
    pub machine_id: &'a str,
    pub seq_no: u32,
    pub total_seq_no: u32,
    pub cpu_avg: f64,
    pub cpu_max: f64,
    pub mem_avg: f64,
    pub mem_max: f64,
}

impl InstanceParts<'_> {
    /// Materialize into an owned record, interning the low-cardinality
    /// columns through `interner`.
    pub fn to_record(&self, interner: &mut Interner) -> InstanceRecord {
        InstanceRecord {
            instance_name: self.instance_name.to_string(),
            task_name: self.task_name.to_string(),
            job_name: self.job_name.to_string(),
            task_type: interner.intern(self.task_type),
            status: self.status,
            start_time: self.start_time,
            end_time: self.end_time,
            machine_id: interner.intern(self.machine_id),
            seq_no: self.seq_no,
            total_seq_no: self.total_seq_no,
            cpu_avg: self.cpu_avg,
            cpu_max: self.cpu_max,
            mem_avg: self.mem_avg,
            mem_max: self.mem_max,
        }
    }
}

/// Decode one `batch_instance.csv` row into borrowed parts. Numeric
/// fields decode in column order, so the first bad field reported matches
/// the historical reader exactly.
pub fn parse_instance_parts(line_no: usize, line: &str) -> Result<InstanceParts<'_>, TraceError> {
    let f: [&str; INSTANCE_FIELDS] = split_fields(line_no, line)?;
    Ok(InstanceParts {
        instance_name: f[0],
        task_name: f[1],
        job_name: f[2],
        task_type: f[3],
        status: Status::parse(f[4]),
        start_time: parse_num(f[5], line_no, "start_time")?,
        end_time: parse_num(f[6], line_no, "end_time")?,
        machine_id: f[7],
        seq_no: parse_num(f[8], line_no, "seq_no")?,
        total_seq_no: parse_num(f[9], line_no, "total_seq_no")?,
        cpu_avg: parse_num(f[10], line_no, "cpu_avg")?,
        cpu_max: parse_num(f[11], line_no, "cpu_max")?,
        mem_avg: parse_num(f[12], line_no, "mem_avg")?,
        mem_max: parse_num(f[13], line_no, "mem_max")?,
    })
}

/// Decode one `batch_instance.csv` row, interning `task_type` and
/// `machine_id` through `interner`.
pub fn parse_instance_line_interned(
    line_no: usize,
    line: &str,
    interner: &mut Interner,
) -> Result<InstanceRecord, TraceError> {
    parse_instance_parts(line_no, line).map(|p| p.to_record(interner))
}

/// Decode one `batch_instance.csv` row.
pub fn parse_instance_line(line_no: usize, line: &str) -> Result<InstanceRecord, TraceError> {
    parse_instance_line_interned(line_no, line, &mut Interner::new())
}

/// The scalar oracle's line source: a raw byte-line reader tracking byte
/// offsets, replicating `BufRead::lines` line-splitting exactly: a final
/// `\n` does not open an empty trailing line, `\r\n` endings are trimmed,
/// and a bare trailing `\r` on an unterminated last line is kept.
pub(crate) struct RawLines<R> {
    reader: R,
    offset: u64,
}

impl<R: BufRead> RawLines<R> {
    /// Start reading lines at byte offset 0 of `reader`.
    pub(crate) fn new(reader: R) -> RawLines<R> {
        RawLines { reader, offset: 0 }
    }

    /// Next raw line as `(byte offset of its first byte, bytes)`, newline
    /// terminator stripped. `None` at end of stream.
    fn next_line(&mut self) -> Result<Option<(u64, Vec<u8>)>, std::io::Error> {
        let mut buf = Vec::new();
        Ok(self
            .next_line_into(&mut buf)?
            .map(|(start, _)| (start, buf)))
    }

    /// Allocation-reusing form of [`RawLines::next_line`]: the stripped line
    /// lands in `buf`, the return value is `(byte offset of its first byte,
    /// bytes consumed from the stream including the terminator)`.
    pub(crate) fn next_line_into(
        &mut self,
        buf: &mut Vec<u8>,
    ) -> Result<Option<(u64, u64)>, std::io::Error> {
        // One hit per line, in document order — the same cadence as
        // `scan::BufLines`; `K>1*return` makes line K+1 fail its read.
        failpoint!("trace.read.line_io", |_arg: Option<String>| Err(
            std::io::Error::other("injected read failure")
        ));
        buf.clear();
        let start = self.offset;
        let n = self.reader.read_until(b'\n', buf)?;
        if n == 0 {
            return Ok(None);
        }
        self.offset += n as u64;
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        Ok(Some((start, n as u64)))
    }
}

/// Decide a decoded row's fate: the quarantine policy additionally rejects
/// rows whose timestamps are impossible (end before start, both present),
/// which a strict read accepts exactly as it always has.
pub(crate) fn classify_row<T>(
    policy: &ReadPolicy,
    line_no: usize,
    row: T,
    times: impl Fn(&T) -> (i64, i64),
) -> Result<T, TraceError> {
    let (start, end) = times(&row);
    if policy.is_quarantine() && start > 0 && end > 0 && end < start {
        return Err(TraceError::BadTimestamps {
            line: line_no,
            start,
            end,
        });
    }
    Ok(row)
}

/// Chaos helper for `trace.read.torn_line`: when the armed `return`
/// action fires, the current raw line is truncated to this many bytes
/// (half a row — enough to break parsing, not enough to vanish).
#[inline]
fn injected_torn_len(_len: usize) -> Option<usize> {
    failpoint!("trace.read.torn_line", |_arg: Option<String>| Some(
        _len / 2
    ));
    None
}

/// Policy-aware row reader over a [`scan::BufLines`] — the SWAR hot loop
/// every sequential entry point funnels through. Observationally
/// identical to the historical scalar reader ([`read_rows_scalar`], kept
/// below as the oracle): same records, same quarantine report, same first
/// error, same line numbers and byte offsets.
fn read_rows_source<R: Read, T>(
    mut lines: scan::BufLines<R>,
    policy: &ReadPolicy,
    parse: impl Fn(usize, &[u8], &mut Interner) -> Result<T, TraceError>,
    times: impl Fn(&T) -> (i64, i64) + Copy,
) -> Result<(Vec<T>, Quarantine), TraceError> {
    let mut interner = Interner::new();
    let mut out = Vec::new();
    let mut q = Quarantine::default();
    while let Some((offset, _consumed, mut span)) = lines.next_span()? {
        // Chaos sites, one hit per line in document order: a short read
        // ends the stream early (downstream sees a truncated but
        // well-formed trace); a torn read delivers half a row, which
        // must fail parsing and take the policy's bad-row path.
        failpoint!("trace.read.short_read", |_arg: Option<String>| Ok((out, q)));
        if let Some(keep) = injected_torn_len(span.len()) {
            span.end = span.start + keep;
        }
        q.lines_total += 1;
        let line_no = q.lines_total;
        if span.is_empty() {
            continue;
        }
        q.rows_total += 1;
        let raw = &lines.view()[span];
        let verdict = parse(line_no, raw, &mut interner)
            .and_then(|row| classify_row(policy, line_no, row, times));
        match verdict {
            Ok(row) => {
                q.rows_good += 1;
                out.push(row);
            }
            Err(error) => {
                if !policy.is_quarantine() || q.rows.len() >= policy.max_bad() {
                    return Err(error);
                }
                q.rows.push(QuarantinedRow {
                    line: line_no,
                    byte_offset: offset,
                    error,
                    excerpt: crate::quarantine::excerpt_of(raw),
                    job_name: crate::quarantine::job_name_of(raw),
                });
            }
        }
    }
    Ok((out, q))
}

/// The historical scalar row reader, retained verbatim as the bitwise
/// oracle the SWAR readers are differential-tested against
/// (`tests/scan_equiv.rs`).
fn read_rows_scalar<R: BufRead, T>(
    reader: R,
    policy: &ReadPolicy,
    parse: impl Fn(usize, &str, &mut Interner) -> Result<T, TraceError>,
    times: impl Fn(&T) -> (i64, i64) + Copy,
) -> Result<(Vec<T>, Quarantine), TraceError> {
    let mut interner = Interner::new();
    let mut lines = RawLines::new(reader);
    let mut out = Vec::new();
    let mut q = Quarantine::default();
    while let Some((offset, mut raw)) = lines.next_line()? {
        failpoint!("trace.read.short_read", |_arg: Option<String>| Ok((out, q)));
        if let Some(keep) = injected_torn_len(raw.len()) {
            raw.truncate(keep);
        }
        q.lines_total += 1;
        let line_no = q.lines_total;
        if raw.is_empty() {
            continue;
        }
        q.rows_total += 1;
        let verdict = match std::str::from_utf8(&raw) {
            Err(_) => Err(TraceError::Io(UTF8_ERR.to_string())),
            Ok(text) => parse(line_no, text, &mut interner)
                .and_then(|row| classify_row(policy, line_no, row, times)),
        };
        match verdict {
            Ok(row) => {
                q.rows_good += 1;
                out.push(row);
            }
            Err(error) => {
                if !policy.is_quarantine() || q.rows.len() >= policy.max_bad() {
                    return Err(error);
                }
                q.rows.push(QuarantinedRow {
                    line: line_no,
                    byte_offset: offset,
                    error,
                    excerpt: crate::quarantine::excerpt_of(&raw),
                    job_name: crate::quarantine::job_name_of(&raw),
                });
            }
        }
    }
    Ok((out, q))
}

fn parse_task_record_bytes(
    line_no: usize,
    raw: &[u8],
    interner: &mut Interner,
) -> Result<TaskRecord, TraceError> {
    scan::parse_task_parts_bytes(line_no, raw).map(|p| p.to_record(interner))
}

fn parse_instance_record_bytes(
    line_no: usize,
    raw: &[u8],
    interner: &mut Interner,
) -> Result<InstanceRecord, TraceError> {
    scan::parse_instance_parts_bytes(line_no, raw).map(|p| p.to_record(interner))
}

/// Read a whole `batch_task.csv` stream under a [`ReadPolicy`].
pub fn read_tasks_with_policy<R: BufRead>(
    reader: R,
    policy: &ReadPolicy,
) -> Result<(Vec<TaskRecord>, Quarantine), TraceError> {
    read_tasks_buffered_with_policy(reader, DEFAULT_READ_BUF, policy)
}

/// Read a `batch_task.csv` stream with an explicit scan-buffer capacity —
/// exposed so the differential tests can force every refill boundary.
pub fn read_tasks_buffered_with_policy<R: Read>(
    reader: R,
    capacity: usize,
    policy: &ReadPolicy,
) -> Result<(Vec<TaskRecord>, Quarantine), TraceError> {
    read_rows_source(
        scan::BufLines::new(reader, capacity),
        policy,
        parse_task_record_bytes,
        |t: &TaskRecord| (t.start_time, t.end_time),
    )
}

/// Read a whole `batch_task.csv` stream through the scalar oracle parser
/// — the historical implementation, byte-for-byte. Slow path; exists so
/// the SWAR readers have a live differential baseline.
pub fn read_tasks_scalar_with_policy<R: BufRead>(
    reader: R,
    policy: &ReadPolicy,
) -> Result<(Vec<TaskRecord>, Quarantine), TraceError> {
    read_rows_scalar(
        reader,
        policy,
        parse_task_line_interned,
        |t: &TaskRecord| (t.start_time, t.end_time),
    )
}

/// Read a whole `batch_instance.csv` stream under a [`ReadPolicy`].
pub fn read_instances_with_policy<R: BufRead>(
    reader: R,
    policy: &ReadPolicy,
) -> Result<(Vec<InstanceRecord>, Quarantine), TraceError> {
    read_rows_source(
        scan::BufLines::new(reader, DEFAULT_READ_BUF),
        policy,
        parse_instance_record_bytes,
        |i: &InstanceRecord| (i.start_time, i.end_time),
    )
}

/// Read a whole `batch_instance.csv` stream through the scalar oracle
/// parser (see [`read_tasks_scalar_with_policy`]).
pub fn read_instances_scalar_with_policy<R: BufRead>(
    reader: R,
    policy: &ReadPolicy,
) -> Result<(Vec<InstanceRecord>, Quarantine), TraceError> {
    read_rows_scalar(
        reader,
        policy,
        parse_instance_line_interned,
        |i: &InstanceRecord| (i.start_time, i.end_time),
    )
}

/// Read a whole `batch_task.csv` stream (strict: first bad row aborts).
pub fn read_tasks<R: BufRead>(reader: R) -> Result<Vec<TaskRecord>, TraceError> {
    read_tasks_with_policy(reader, &ReadPolicy::Strict).map(|(rows, _)| rows)
}

/// Read a whole `batch_instance.csv` stream (strict: first bad row
/// aborts).
pub fn read_instances<R: BufRead>(reader: R) -> Result<Vec<InstanceRecord>, TraceError> {
    read_instances_with_policy(reader, &ReadPolicy::Strict).map(|(rows, _)| rows)
}

/// Append `v`'s decimal digits to `buf` (itoa-style: digits build in a
/// fixed stack array, one `extend_from_slice` into the row buffer — no
/// `format!` temporary per field).
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&tmp[i..]);
}

fn push_i64(buf: &mut Vec<u8>, v: i64) {
    if v < 0 {
        buf.push(b'-');
    }
    push_u64(buf, v.unsigned_abs());
}

/// Append a float the way the published trace prints them: integers bare
/// (`100`), fractions with their decimals (`0.5`). Byte-identical to the
/// historical `format!`-based encoder on every value.
fn push_f64(buf: &mut Vec<u8>, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        push_i64(buf, v as i64);
    } else {
        // Rare shape (non-integral beyond the common grid): fall back to
        // the std formatter, writing straight into the row buffer.
        write!(buf, "{v}").expect("writing to a Vec cannot fail");
    }
}

/// Append one encoded task row plus terminating newline to `buf` — the
/// allocation-free writer hot path ([`write_tasks`] and the benches reuse
/// one buffer across all rows).
pub fn push_task_line(buf: &mut Vec<u8>, t: &TaskRecord) {
    buf.extend_from_slice(t.task_name.as_bytes());
    buf.push(b',');
    push_u64(buf, u64::from(t.instance_num));
    buf.push(b',');
    buf.extend_from_slice(t.job_name.as_bytes());
    buf.push(b',');
    buf.extend_from_slice(t.task_type.as_bytes());
    buf.push(b',');
    buf.extend_from_slice(t.status.as_str().as_bytes());
    buf.push(b',');
    push_i64(buf, t.start_time);
    buf.push(b',');
    push_i64(buf, t.end_time);
    buf.push(b',');
    push_f64(buf, t.plan_cpu);
    buf.push(b',');
    push_f64(buf, t.plan_mem);
    buf.push(b'\n');
}

/// Append one encoded instance row plus terminating newline to `buf`.
pub fn push_instance_line(buf: &mut Vec<u8>, i: &InstanceRecord) {
    buf.extend_from_slice(i.instance_name.as_bytes());
    buf.push(b',');
    buf.extend_from_slice(i.task_name.as_bytes());
    buf.push(b',');
    buf.extend_from_slice(i.job_name.as_bytes());
    buf.push(b',');
    buf.extend_from_slice(i.task_type.as_bytes());
    buf.push(b',');
    buf.extend_from_slice(i.status.as_str().as_bytes());
    buf.push(b',');
    push_i64(buf, i.start_time);
    buf.push(b',');
    push_i64(buf, i.end_time);
    buf.push(b',');
    buf.extend_from_slice(i.machine_id.as_bytes());
    buf.push(b',');
    push_u64(buf, u64::from(i.seq_no));
    buf.push(b',');
    push_u64(buf, u64::from(i.total_seq_no));
    buf.push(b',');
    push_f64(buf, i.cpu_avg);
    buf.push(b',');
    push_f64(buf, i.cpu_max);
    buf.push(b',');
    push_f64(buf, i.mem_avg);
    buf.push(b',');
    push_f64(buf, i.mem_max);
    buf.push(b'\n');
}

/// Encode one task row (no newline). Convenience wrapper over
/// [`push_task_line`]; per-call allocation, so not the writer hot path.
pub fn format_task_line(t: &TaskRecord) -> String {
    let mut buf = Vec::with_capacity(96);
    push_task_line(&mut buf, t);
    buf.pop();
    String::from_utf8(buf).expect("encoded rows are UTF-8: every field came from a str")
}

/// Encode one instance row (no newline).
pub fn format_instance_line(i: &InstanceRecord) -> String {
    let mut buf = Vec::with_capacity(128);
    push_instance_line(&mut buf, i);
    buf.pop();
    String::from_utf8(buf).expect("encoded rows are UTF-8: every field came from a str")
}

/// Write task rows as `batch_task.csv`.
pub fn write_tasks<W: Write>(writer: W, tasks: &[TaskRecord]) -> Result<(), TraceError> {
    let mut w = BufWriter::new(writer);
    let mut row = Vec::with_capacity(128);
    for t in tasks {
        row.clear();
        push_task_line(&mut row, t);
        w.write_all(&row)?;
    }
    w.flush()?;
    Ok(())
}

/// Write instance rows as `batch_instance.csv`.
pub fn write_instances<W: Write>(
    writer: W,
    instances: &[InstanceRecord],
) -> Result<(), TraceError> {
    let mut w = BufWriter::new(writer);
    let mut row = Vec::with_capacity(160);
    for i in instances {
        row.clear();
        push_instance_line(&mut row, i);
        w.write_all(&row)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TASK_LINE: &str = "R2_1,5,j_1001388,1,Terminated,86400,86520,100,0.5";

    #[test]
    fn task_line_round_trip() {
        let t = parse_task_line(1, TASK_LINE).unwrap();
        assert_eq!(t.task_name, "R2_1");
        assert_eq!(t.instance_num, 5);
        assert_eq!(t.status, Status::Terminated);
        assert_eq!(t.plan_cpu, 100.0);
        assert_eq!(format_task_line(&t), TASK_LINE);
    }

    #[test]
    fn empty_numeric_fields_default() {
        let t = parse_task_line(1, "task_abc,,j_1,1,Running,,,,").unwrap();
        assert_eq!(t.instance_num, 0);
        assert_eq!(t.start_time, 0);
        assert_eq!(t.plan_cpu, 0.0);
    }

    #[test]
    fn wrong_field_count_reported() {
        let err = parse_task_line(7, "a,b,c").unwrap_err();
        assert_eq!(
            err,
            TraceError::FieldCount {
                line: 7,
                expected: 9,
                found: 3
            }
        );
    }

    #[test]
    fn bad_field_reported_with_column() {
        let err = parse_task_line(2, "M1,x,j_1,1,Terminated,1,2,3,4").unwrap_err();
        match err {
            TraceError::BadField {
                line: 2,
                column: "instance_num",
                value,
            } => {
                assert_eq!(value, "x");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn instance_line_round_trip() {
        let line = "inst_1,M1,j_9,1,Terminated,100,200,m_1997,1,1,50.5,80,0.1,0.2";
        let i = parse_instance_line(1, line).unwrap();
        assert_eq!(i.machine_id, "m_1997");
        assert_eq!(i.cpu_avg, 50.5);
        assert_eq!(format_instance_line(&i), line);
    }

    #[test]
    fn stream_read_write_round_trip() {
        let t1 = parse_task_line(1, TASK_LINE).unwrap();
        let t2 = parse_task_line(1, "M1,2,j_1001388,1,Terminated,86000,86400,50,0.25").unwrap();
        let mut buf = Vec::new();
        write_tasks(&mut buf, &[t1.clone(), t2.clone()]).unwrap();
        let back = read_tasks(&buf[..]).unwrap();
        assert_eq!(back, vec![t1, t2]);
    }

    #[test]
    fn blank_lines_skipped() {
        let data = format!("{TASK_LINE}\n\n{TASK_LINE}\n");
        let rows = read_tasks(data.as_bytes()).unwrap();
        assert_eq!(rows.len(), 2);
    }

    const TASK_LINE2: &str = "M1,2,j_1001389,2,Terminated,86000,86400,50,0.25";

    /// The strict streamed scan's error on `data` at every scan-buffer
    /// capacity up to one past the whole document, so refills split rows
    /// at every offset.
    fn streamed_errors(data: &[u8]) -> impl Iterator<Item = (usize, TraceError)> + '_ {
        (1..data.len() + 2).map(move |cap| {
            let err = crate::stream::StreamedTrace::scan_with_buffer(
                std::io::Cursor::new(data),
                &ReadPolicy::Strict,
                &crate::filter::SampleCriteria::default(),
                cap,
            )
            .err()
            .expect("strict scan must abort");
            (cap, err)
        })
    }

    #[test]
    fn streamed_error_line_numbers_match_sequential() {
        // Bad row on (1-based) line 5; blank lines still count.
        let data = format!("{TASK_LINE}\n\n{TASK_LINE2}\n\na,b,c\n{TASK_LINE}\n");
        let want = read_tasks(data.as_bytes()).unwrap_err();
        assert_eq!(
            want,
            TraceError::FieldCount {
                line: 5,
                expected: 9,
                found: 3
            }
        );
        for (cap, got) in streamed_errors(data.as_bytes()) {
            assert_eq!(got, want, "cap={cap}");
        }
    }

    #[test]
    fn streamed_reports_first_error_only() {
        // Two bad rows: the earlier one must win regardless of buffering.
        let data = format!("{TASK_LINE}\nM1,x,j_1,1,Terminated,1,2,3,4\nbad\n");
        let want = read_tasks(data.as_bytes()).unwrap_err();
        for (cap, got) in streamed_errors(data.as_bytes()) {
            assert_eq!(got, want, "cap={cap}");
        }
    }

    #[test]
    fn streamed_invalid_utf8_matches_sequential() {
        let mut data = format!("{TASK_LINE}\n").into_bytes();
        data.extend_from_slice(b"\xff\xfe,bad,utf8\n");
        let want = read_tasks(&data[..]).unwrap_err();
        for (cap, got) in streamed_errors(&data) {
            assert_eq!(got, want, "cap={cap}");
        }
    }

    #[test]
    fn interning_dedups_within_reader() {
        let line = "inst_1,M1,j_9,1,Terminated,100,200,m_7,1,1,1,1,1,1";
        let data = format!("{line}\n{line}\n");
        let rows = read_instances(data.as_bytes()).unwrap();
        assert_eq!(rows[0].machine_id, rows[1].machine_id);
        assert_eq!(rows[0].machine_id, "m_7");
    }
}
