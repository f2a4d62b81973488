//! Zero-copy SWAR scanning: the ingest hot path.
//!
//! The historical readers ([`crate::csv`]) copy every line into a scratch
//! `Vec<u8>`, validate it as UTF-8, split it with `str::split`, and parse
//! each numeric field through `str::parse` — five passes and two
//! allocations per row before a single byte of useful work. This module
//! replaces all of that with a single forward pass over large borrowed
//! byte buffers:
//!
//! * **SWAR delimiter search** — [`find_byte`] and the field splitter load
//!   the input 8 bytes at a time into a `u64` and locate `,` / `\n` with a
//!   broadcast-compare bit trick (memchr-style, no external crates, no
//!   `unsafe`), folding a "was every byte ASCII?" check into the same
//!   pass;
//! * **zero-copy lines** — [`BufLines`] yields line *ranges* into one
//!   reused, newline-compacted buffer filled from any `Read`, so a row is
//!   never copied before parsing;
//! * **byte-slice numeric parsing** — integers and the restricted float
//!   shapes the trace actually contains decode straight from `&[u8]`,
//!   bit-identically to `str::parse` (see [`parse_f64_fast`] for the
//!   proof obligation).
//!
//! **Every anomaly falls back to the scalar oracle.** The fast path only
//! accepts rows it can provably decode identically: exactly the right
//! field count, pure ASCII, and numeric fields in the shapes whose fast
//! decode is exact. Anything else — wrong arity, non-ASCII bytes,
//! exponents, overlong digit strings — is re-parsed by the historical
//! `&str` parser, which therefore remains the single source of truth for
//! every error value (including UTF-8 error precedence). Equivalence with
//! the oracle is structural, and pinned bit-for-bit by
//! `tests/scan_equiv.rs`.
//!
//! Quarantine accounting needs the byte offset and the raw bytes of every
//! line (for [`crate::quarantine::excerpt_of`]), so the line source
//! carries `(offset, consumed, range)` through the scan rather than bare
//! slices.

use std::io::Read;
use std::ops::Range;

use dagscope_faults::failpoint;

use crate::csv::{self, TaskParts, INSTANCE_FIELDS, TASK_FIELDS};
use crate::schema::Status;
use crate::TraceError;

/// `0x01` in every byte lane.
const LANES_LO: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte lane.
const LANES_HI: u64 = 0x8080_8080_8080_8080;

/// Broadcast one byte into all eight lanes of a word.
#[inline]
fn splat(b: u8) -> u64 {
    u64::from(b) * LANES_LO
}

/// Per-lane zero detector: the classic `haszero` trick — lane `i` of the
/// result has its high bit set iff byte `i` of `x` is zero. XOR with a
/// [`splat`] pattern first to turn it into a byte-equality detector.
#[inline]
fn zero_lanes(x: u64) -> u64 {
    x.wrapping_sub(LANES_LO) & !x & LANES_HI
}

/// Load 8 bytes as a little-endian word; lane `i` is `chunk[i]`.
#[inline]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("find_byte walks 8-byte chunks"))
}

/// First position of `needle` in `haystack`, SWAR word-at-a-time.
#[inline]
pub(crate) fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let pat = splat(needle);
    let mut base = 0usize;
    let mut chunks = haystack.chunks_exact(8);
    for chunk in &mut chunks {
        let hits = zero_lanes(word(chunk) ^ pat);
        if hits != 0 {
            return Some(base + (hits.trailing_zeros() as usize >> 3));
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| base + i)
}

/// Per-lane exact zero detector: lane `i` of the result has its high bit
/// set iff byte `i` of `x` is zero. Masking bit 7 before the add keeps
/// every carry inside its lane, so unlike [`zero_lanes`] — whose borrow
/// can flag a `0x01` lane just above a zero lane — every flagged lane is
/// genuine, which a splitter that takes every hit needs: `,-` in one word
/// is one comma, not two.
#[inline]
fn zero_lanes_exact(x: u64) -> u64 {
    !(((x & !LANES_HI) + !LANES_HI) | x) & LANES_HI
}

/// Split `line` into exactly `N` comma-separated fields, verifying the
/// whole line is ASCII in the same pass. `None` means "let the scalar
/// oracle look at this line": wrong field count or any non-ASCII byte.
#[inline]
fn split_ascii_fields<const N: usize>(line: &[u8]) -> Option<[&[u8]; N]> {
    let mut fields: [&[u8]; N] = [b""; N];
    let mut n = 0usize;
    let mut start = 0usize;
    // High bits accumulate here; any set high bit at the end means a
    // non-ASCII byte somewhere in the line.
    let mut acc: u64 = 0;
    let pat = splat(b',');
    let mut base = 0usize;
    let mut chunks = line.chunks_exact(8);
    for chunk in &mut chunks {
        let w = word(chunk);
        acc |= w;
        let mut hits = zero_lanes_exact(w ^ pat);
        while hits != 0 {
            let pos = base + (hits.trailing_zeros() as usize >> 3);
            if n + 1 >= N {
                return None;
            }
            fields[n] = &line[start..pos];
            n += 1;
            start = pos + 1;
            hits &= hits - 1;
        }
        base += 8;
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        acc |= u64::from(b) << 56;
        if b == b',' {
            if n + 1 >= N {
                return None;
            }
            fields[n] = &line[start..base + i];
            n += 1;
            start = base + i + 1;
        }
    }
    if acc & LANES_HI != 0 || n + 1 != N {
        return None;
    }
    fields[n] = &line[start..];
    Some(fields)
}

/// The one unsafe block in the crate, quarantined in its own module so the
/// crate-level `deny(unsafe_code)` still covers everything else.
mod ascii {
    /// `&str` view of a field [`split_ascii_fields`](super::split_ascii_fields)
    /// already proved is ASCII (its high-bit accumulator rejects the whole
    /// line if any byte has bit 7 set, so every surviving field is pure
    /// ASCII and therefore valid UTF-8 by construction). Skipping the
    /// redundant `from_utf8` walk here is worth ~15% of total parse time;
    /// a debug assertion re-checks the invariant in test builds.
    #[inline]
    pub(super) fn ascii_str(field: &[u8]) -> Option<&str> {
        debug_assert!(field.is_ascii(), "splitter must reject non-ASCII lines");
        // SAFETY: callers only pass fields returned by `split_ascii_fields`,
        // which verifies every byte is < 0x80; ASCII is always valid UTF-8.
        #[allow(unsafe_code)]
        Some(unsafe { std::str::from_utf8_unchecked(field) })
    }
}
use ascii::ascii_str;

/// Fast `u32` decode: plain digit runs only. Empty fields are handled by
/// the caller (they default to 0, per the historical `parse_num`); signs,
/// overflow, and anything non-digit fall back to the oracle. A SWAR
/// eight-digit decode (pad to a `'0'`-filled word, range-check all lanes,
/// three-multiply place-value reduction) was tried here and lost to this
/// loop: trace numerics are 1–7 digits, and the variable-length word
/// assembly costs more than the loop saves.
#[inline]
fn parse_u32_fast(s: &[u8]) -> Option<u32> {
    if s.is_empty() || s.len() > 10 {
        return None;
    }
    let mut v: u64 = 0;
    for &b in s {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v * 10 + u64::from(d);
    }
    u32::try_from(v).ok()
}

/// Fast `i64` decode: optional `-` then up to 18 digits, which cannot
/// overflow. 19-digit values, `+` signs, and junk fall back.
#[inline]
fn parse_i64_fast(s: &[u8]) -> Option<i64> {
    let (neg, digits) = match s.split_first() {
        Some((&b'-', rest)) => (true, rest),
        _ => (false, s),
    };
    if digits.is_empty() || digits.len() > 18 {
        return None;
    }
    let mut v: i64 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v * 10 + i64::from(d);
    }
    Some(if neg { -v } else { v })
}

/// Exact powers of ten for the fast float path; all are exactly
/// representable in an `f64` (that holds up to `1e22`).
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// Fast `f64` decode for `[-]digits[.digits]` with at most 15 digits in
/// total — the shapes trace files actually contain.
///
/// Why this is bit-identical to `str::parse::<f64>`: with ≤ 15 digits the
/// significand `m` is below `10^15 < 2^53`, so `m as f64` is exact, and
/// `10^frac` for `frac ≤ 15` is exact, so `m as f64 / 10^frac` performs a
/// *single* correctly-rounded operation on the exact decimal value —
/// precisely the value the standard library's decimal-to-float conversion
/// rounds to. Exponents, `+` signs, `inf`/`NaN`, and longer digit strings
/// all fall back to the oracle.
#[inline]
fn parse_f64_fast(s: &[u8]) -> Option<f64> {
    let (neg, body) = match s.split_first() {
        Some((&b'-', rest)) => (true, rest),
        _ => (false, s),
    };
    let mut mantissa: u64 = 0;
    let mut digits = 0usize;
    let mut frac = 0usize;
    let mut seen_dot = false;
    for &b in body {
        if b == b'.' {
            if seen_dot {
                return None;
            }
            seen_dot = true;
            continue;
        }
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        digits += 1;
        if digits > 15 {
            return None;
        }
        mantissa = mantissa * 10 + u64::from(d);
        if seen_dot {
            frac += 1;
        }
    }
    if digits == 0 {
        return None;
    }
    let v = mantissa as f64 / POW10[frac];
    Some(if neg { -v } else { v })
}

/// Byte-level [`Status::parse`]: compares the same byte sequences, so it
/// agrees with the `&str` version on every input (unknowns map to
/// `Interrupted`, exactly as the oracle does).
#[inline]
fn parse_status(s: &[u8]) -> Status {
    match s {
        b"Ready" => Status::Ready,
        b"Waiting" => Status::Waiting,
        b"Running" => Status::Running,
        b"Terminated" => Status::Terminated,
        b"Failed" => Status::Failed,
        b"Cancelled" => Status::Cancelled,
        _ => Status::Interrupted,
    }
}

/// Empty numeric fields decode as the column default (0), mirroring
/// `parse_num`.
#[inline]
fn num_u32(s: &[u8]) -> Option<u32> {
    if s.is_empty() {
        Some(0)
    } else {
        parse_u32_fast(s)
    }
}

#[inline]
fn num_i64(s: &[u8]) -> Option<i64> {
    if s.is_empty() {
        Some(0)
    } else {
        parse_i64_fast(s)
    }
}

#[inline]
fn num_f64(s: &[u8]) -> Option<f64> {
    if s.is_empty() {
        Some(0.0)
    } else {
        parse_f64_fast(s)
    }
}

/// The SWAR fast path for one `batch_task` row; `None` routes the whole
/// line to the scalar oracle.
#[inline]
fn fast_task_parts(raw: &[u8]) -> Option<TaskParts<'_>> {
    let f = split_ascii_fields::<TASK_FIELDS>(raw)?;
    Some(TaskParts {
        task_name: ascii_str(f[0])?,
        instance_num: num_u32(f[1])?,
        job_name: ascii_str(f[2])?,
        task_type: ascii_str(f[3])?,
        status: parse_status(f[4]),
        start_time: num_i64(f[5])?,
        end_time: num_i64(f[6])?,
        plan_cpu: num_f64(f[7])?,
        plan_mem: num_f64(f[8])?,
    })
}

/// Decode one `batch_task.csv` row from raw bytes: SWAR fast path with
/// scalar-oracle fallback, so results — values *and* errors, including
/// the UTF-8 error precedence of the historical readers — are
/// bit-identical to [`csv::parse_task_parts`] run on the same bytes.
pub fn parse_task_parts_bytes(line_no: usize, raw: &[u8]) -> Result<TaskParts<'_>, TraceError> {
    match fast_task_parts(raw) {
        Some(parts) => Ok(parts),
        None => csv::task_parts_fallback(line_no, raw),
    }
}

/// The SWAR fast path for one `batch_instance` row.
#[inline]
fn fast_instance_parts(raw: &[u8]) -> Option<csv::InstanceParts<'_>> {
    let f = split_ascii_fields::<INSTANCE_FIELDS>(raw)?;
    Some(csv::InstanceParts {
        instance_name: ascii_str(f[0])?,
        task_name: ascii_str(f[1])?,
        job_name: ascii_str(f[2])?,
        task_type: ascii_str(f[3])?,
        status: parse_status(f[4]),
        start_time: num_i64(f[5])?,
        end_time: num_i64(f[6])?,
        machine_id: ascii_str(f[7])?,
        seq_no: num_u32(f[8])?,
        total_seq_no: num_u32(f[9])?,
        cpu_avg: num_f64(f[10])?,
        cpu_max: num_f64(f[11])?,
        mem_avg: num_f64(f[12])?,
        mem_max: num_f64(f[13])?,
    })
}

/// Decode one `batch_instance.csv` row from raw bytes (SWAR fast path,
/// scalar-oracle fallback) — the byte-level twin of
/// [`csv::parse_instance_parts`].
pub fn parse_instance_parts_bytes(
    line_no: usize,
    raw: &[u8],
) -> Result<csv::InstanceParts<'_>, TraceError> {
    match fast_instance_parts(raw) {
        Some(parts) => Ok(parts),
        None => csv::instance_parts_fallback(line_no, raw),
    }
}

/// A lending iterator over the lines of any [`Read`]: bytes land in one
/// reused buffer via large reads, lines are found with SWAR search, and
/// the partial tail line is compacted to the front before each refill.
/// The buffer doubles when a single line outgrows it, so arbitrarily long
/// lines still decode (matching `read_until` semantics) while the steady
/// state never allocates.
///
/// Line-splitting semantics replicate `BufRead::lines` exactly — a final
/// `\n` opens no empty trailing line, `\r\n` is trimmed, and a bare
/// trailing `\r` on an unterminated last line is kept — because
/// quarantine line numbers and byte offsets are part of the readers'
/// observable contract.
pub(crate) struct BufLines<R> {
    reader: R,
    buf: Vec<u8>,
    /// Start of the unconsumed region in `buf`.
    start: usize,
    /// End of the valid region in `buf`.
    len: usize,
    /// Stream offset of `buf[start]`.
    offset: u64,
    /// Bytes past `start` already searched for `\n` in a previous call —
    /// keeps refill loops linear when a line spans many reads.
    searched: usize,
    eof: bool,
}

impl<R: Read> BufLines<R> {
    /// Line source reading `capacity`-sized chunks (min 16, mirroring the
    /// historical `BufReader` floor the property tests rely on).
    pub(crate) fn new(reader: R, capacity: usize) -> BufLines<R> {
        BufLines {
            reader,
            buf: vec![0; capacity.clamp(16, 1 << 30)],
            start: 0,
            len: 0,
            offset: 0,
            searched: 0,
            eof: false,
        }
    }

    /// One `read` into the free tail of the buffer, tolerating
    /// `Interrupted`; records EOF.
    fn refill(&mut self) -> Result<(), std::io::Error> {
        match self.reader.read(&mut self.buf[self.len..]) {
            Ok(0) => self.eof = true,
            Ok(n) => self.len += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Advance to the next line: `(byte offset of the line's first byte,
    /// bytes consumed from the stream including the terminator, range of
    /// the *stripped* line inside [`BufLines::view`])`. `None` at end of
    /// stream.
    pub(crate) fn next_span(&mut self) -> Result<Option<(u64, u64, Range<usize>)>, std::io::Error> {
        // Same site, same cadence as the scalar readers: one hit per
        // line-fetch call, including the final call that reports EOF.
        failpoint!("trace.read.line_io", |_arg: Option<String>| Err(
            std::io::Error::other("injected read failure")
        ));
        loop {
            if let Some(i) = find_byte(&self.buf[self.start + self.searched..self.len], b'\n') {
                let nl = self.start + self.searched + i;
                let start = self.start;
                let consumed = (nl + 1 - start) as u64;
                let offset = self.offset;
                let mut end = nl;
                if end > start && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                self.start = nl + 1;
                self.searched = 0;
                self.offset += consumed;
                return Ok(Some((offset, consumed, start..end)));
            }
            self.searched = self.len - self.start;
            if self.eof {
                if self.start >= self.len {
                    return Ok(None);
                }
                let (start, end) = (self.start, self.len);
                let consumed = (end - start) as u64;
                let offset = self.offset;
                self.start = self.len;
                self.searched = 0;
                self.offset += consumed;
                // Unterminated last line: a bare trailing `\r` stays.
                return Ok(Some((offset, consumed, start..end)));
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.len, 0);
                self.len -= self.start;
                self.start = 0;
            }
            if self.len == self.buf.len() {
                let grown = (self.buf.len() * 2).max(64);
                self.buf.resize(grown, 0);
            }
            self.refill()?;
        }
    }

    /// Bytes one refill can hold before the buffer grows.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The buffer the most recent span indexes into.
    pub(crate) fn view(&self) -> &[u8] {
        &self.buf
    }
}

/// The lines of bytes already in memory, split as [`BufLines`] splits a
/// stream: at each `\n`, one `\r` before it trimmed, and an unterminated
/// last line kept whole (a bare trailing `\r` stays).
pub(crate) fn lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = bytes;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        Some(match find_byte(rest, b'\n') {
            Some(nl) => {
                let line = &rest[..nl];
                rest = &rest[nl + 1..];
                line.strip_suffix(b"\r").unwrap_or(line)
            }
            None => std::mem::take(&mut rest),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_as_buf_lines_does() {
        let docs: [&[u8]; 9] = [
            b"",
            b"a",
            b"a\n",
            b"a\r\nb\r\n",
            b"\n\n\r\n",
            b"row\r",
            b"x\ry\n\r",
            b"one\ntwo\r\nthree",
            b"\r\r\n\r",
        ];
        for doc in docs {
            let mut reader = BufLines::new(doc, 16);
            let mut want = Vec::new();
            while let Some((_, _, span)) = reader.next_span().unwrap() {
                want.push(reader.view()[span].to_vec());
            }
            assert_eq!(lines(doc).collect::<Vec<_>>(), want, "{doc:?}");
        }
    }

    #[test]
    fn find_byte_matches_position() {
        let cases: [&[u8]; 6] = [
            b"",
            b"a",
            b"abcdefgh",
            b"aaaaaaaa,bbbb",
            b"no commas here at all....... wait",
            b"tail,",
        ];
        for data in cases {
            for needle in [b',', b'\n', b'x', 0u8] {
                assert_eq!(
                    find_byte(data, needle),
                    data.iter().position(|&b| b == needle),
                    "data={data:?} needle={needle}"
                );
            }
        }
        // Needle in every position of a window spanning word boundaries.
        let mut buf = vec![b'_'; 40];
        for i in 0..buf.len() {
            buf[i] = b'\n';
            assert_eq!(find_byte(&buf, b'\n'), Some(i));
            buf[i] = b'_';
        }
    }

    #[test]
    fn split_matches_str_split() {
        let ok = "a,b,c,d,e,f,g,h,i";
        let f = split_ascii_fields::<9>(ok.as_bytes()).unwrap();
        let want: Vec<&str> = ok.split(',').collect();
        for (got, want) in f.iter().zip(want) {
            assert_eq!(*got, want.as_bytes());
        }
        assert_eq!(split_ascii_fields::<9>(b"a,b,c"), None, "too few");
        assert_eq!(split_ascii_fields::<2>(b"a,b,c"), None, "too many");
        assert_eq!(
            split_ascii_fields::<9>("é,b,c,d,e,f,g,h,i".as_bytes()),
            None
        );
        assert_eq!(
            split_ascii_fields::<9>(b"a,b,c,d,e,f,g,h,\xffi"),
            None,
            "non-ASCII tail byte"
        );
        // Empty fields survive, including leading/trailing.
        let f = split_ascii_fields::<3>(b",,").unwrap();
        assert_eq!(f, [b"" as &[u8]; 3]);
        // `,-` inside one 8-byte word is one comma: `-` is `,` ^ 1, the
        // lane a borrowing zero-lane test would also flag.
        let f = split_ascii_fields::<4>(b"abcdefgh,-1,-,--x").unwrap();
        assert_eq!(f, [b"abcdefgh" as &[u8], b"-1", b"-", b"--x"]);
        assert_eq!(split_ascii_fields::<5>(b"abcdefgh,-1,-,--x"), None);
    }

    #[test]
    fn short_row_with_a_negative_field_fails_like_the_oracle() {
        // One field short, `-5` right after a comma in the same word: a
        // splitter that counted the `-` as a comma would find nine fields
        // and accept the row.
        let row = b"M1,2,j_1,1,Terminated,-5,6,7";
        assert_eq!(&row[16..24], b"nated,-5");
        let want = csv::task_parts_fallback(3, row).unwrap_err();
        assert_eq!(parse_task_parts_bytes(3, row).unwrap_err(), want);
        assert_eq!(
            want,
            TraceError::FieldCount {
                line: 3,
                expected: 9,
                found: 8
            }
        );
    }

    #[test]
    fn fast_ints_match_std() {
        let cases = [
            "0",
            "1",
            "42",
            "007",
            "4294967295",
            "4294967296",
            "-1",
            "+5",
            "",
            "x",
            "1x",
            "99999999999999999999",
        ];
        for s in cases {
            if let Some(got) = parse_u32_fast(s.as_bytes()) {
                assert_eq!(Ok(got), s.parse::<u32>(), "u32 {s:?}");
            }
            if let Some(got) = parse_i64_fast(s.as_bytes()) {
                assert_eq!(Ok(got), s.parse::<i64>(), "i64 {s:?}");
            }
        }
        assert_eq!(parse_i64_fast(b"-86400"), Some(-86400));
        assert_eq!(parse_u32_fast(b"4294967295"), Some(u32::MAX));
        assert_eq!(parse_u32_fast(b"4294967296"), None, "overflow falls back");
    }

    #[test]
    fn fast_floats_match_std_bitwise() {
        let accepted = [
            "0",
            "-0",
            "0.5",
            "100",
            "-86400",
            "0.015625",
            "123456789012345",
            "1.",
            ".5",
            "3.141592653589",
            "0.00000000000001",
            "99.99",
        ];
        for s in accepted {
            let got = parse_f64_fast(s.as_bytes()).unwrap_or_else(|| panic!("{s:?} rejected"));
            let want: f64 = s.parse().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{s:?}");
        }
        // Shapes that must fall back (std parses some of them; the fast
        // path just declines).
        for s in [
            "",
            ".",
            "-",
            "1e3",
            "+1",
            "inf",
            "NaN",
            "1.2.3",
            "1234567890123456",
        ] {
            assert_eq!(parse_f64_fast(s.as_bytes()), None, "{s:?}");
        }
    }

    #[test]
    fn byte_parser_matches_oracle_on_canonical_rows() {
        let rows = [
            "R2_1,5,j_1001388,1,Terminated,86400,86520,100,0.5",
            "task_abc,,j_1,1,Running,,,,",
            "M1,2,j_7,1,Waiting,-5,10,0.25,1e3",
            "a,b,c",
            "",
        ];
        for row in rows {
            let want = csv::parse_task_parts(3, row);
            let got = parse_task_parts_bytes(3, row.as_bytes());
            match (got, want) {
                (Ok(g), Ok(w)) => assert_eq!(format!("{g:?}"), format!("{w:?}"), "{row:?}"),
                (Err(g), Err(w)) => assert_eq!(g, w, "{row:?}"),
                (g, w) => panic!("disagreement on {row:?}: {g:?} vs {w:?}"),
            }
        }
    }

    #[test]
    fn buf_lines_replicates_raw_lines_at_every_capacity() {
        let docs: [&[u8]; 8] = [
            b"",
            b"a\nb\n",
            b"a\r\nb",
            b"a\n\nb\n",
            b"tail-no-newline",
            b"keep\r",
            b"\n",
            b"first,row\r\nsecond\n\nthird-without-newline-and-rather-long",
        ];
        for doc in docs {
            let mut want = Vec::new();
            let mut lines = csv::RawLines::new(doc);
            let mut buf = Vec::new();
            while let Some((off, consumed)) = lines.next_line_into(&mut buf).unwrap() {
                want.push((off, consumed, buf.clone()));
            }
            for capacity in 1..=doc.len() + 2 {
                let mut got = Vec::new();
                let mut src = BufLines::new(doc, capacity);
                while let Some((off, consumed, span)) = src.next_span().unwrap() {
                    got.push((off, consumed, src.view()[span].to_vec()));
                }
                assert_eq!(got, want, "doc={doc:?} capacity={capacity}");
            }
        }
    }
}
