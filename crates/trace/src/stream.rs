//! Streaming single-pass trace ingestion under a bounded memory budget.
//!
//! A batch read ([`crate::csv::read_tasks_with_policy`] +
//! [`JobSet::from_tasks`]) materializes every task row of the trace before
//! grouping — fine at 100k jobs, hopeless at the full 4M. [`StreamedTrace`]
//! instead consumes the CSV once, front to back, exploiting the trace's
//! job-contiguity: rows of one job arrive together, so each row folds
//! straight into an incremental [`OpenFold`] (facts + eligibility, no row
//! ever stored), the closing job lands in a [`StatsAccumulator`] and an
//! eligibility flag, and what survives per job is ~26 bytes of metadata (a
//! numeric name key, the job's byte range in the source, its size, and
//! flags).
//!
//! Rows leave the scan again only by replaying recorded byte ranges
//! through the same parser (the source must be `Read + Seek`), in file
//! order, into a flat [`SampleRows`] table the DAG builder reads directly:
//! [`StreamedTrace::replay_sample`] for the stratified sample (picked from
//! the size column alone, see
//! [`crate::filter::stratified_sample_indices`]), and
//! [`StreamedTrace::replay_eligible`] for the whole eligible population,
//! a bounded table at a time. [`StreamedTrace::materialize_all`], the
//! tests' bridge to the batch reader, is the one place a replay builds
//! [`Job`]s.
//!
//! The forward scan runs in three steps over one batch type. The **split**
//! cuts the source into lines in file order, numbering them and recording
//! where each ends. The **parse** reads one batch's lines: it parses and
//! classifies each row, takes its task name's DAG verdict and notes when
//! its job name changes within the batch, writing one 56-byte descriptor
//! per line (blank lines, bad rows and I/O errors ride along in order).
//! The **fold** groups the described rows into jobs, in file order: the
//! suspect, open, straggler, probe and close logic. With two threads or
//! more and a trace longer than one read-buffer fill, a scoped reader
//! thread splits ahead of the fold through a few recycled batches, each
//! holding its lines' bytes until it is parsed, and parses when it has
//! nothing to split; the fold thread parses the oldest unparsed batch
//! whenever its next one is not parsed yet. Otherwise the three alternate
//! on the calling thread. The fold sees the same lines in the same order
//! either way, so every statistic, quarantine row, line number, byte
//! offset, first error and `max_bad` stop is the same ([`ScanCounters`]
//! records which way a scan ran).
//!
//! Two disruptions are handled without breaking bit-identity with a batch
//! read:
//!
//! * **Out-of-order stragglers** — a row for an already-closed job opens a
//!   correction: the extra byte range is recorded and, at finalize, the
//!   job's old contribution is retracted and the merged job (rows in
//!   document order, exactly as [`JobSet::from_tasks`] would have grouped
//!   them) is refolded through an [`OpenFold`] and folded back in.
//! * **Quarantine verdicts** — a bad row implicates its job (see
//!   [`Quarantine::suspect_jobs`]); the implicated job is dropped entirely,
//!   matching a batch read that deletes all rows of suspect jobs before
//!   grouping. A suspicion arriving after the job closed retracts
//!   its folded contribution at finalize.
//!
//! Retractions are exact because the accumulator's resource totals use
//! [`crate::fsum::ExactSum`]; everything else is integer counting.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::csv::{self, TaskParts};
use crate::filter::SampleCriteria;
use crate::quarantine::{self, Quarantine, QuarantinedRow, ReadPolicy};
use crate::scan;
use crate::schema::{task_duration, Status};
use crate::stats::{JobFacts, StatsAccumulator, TraceStats};
use crate::taskname;
use crate::{IStr, Job, JobSet, TraceError};

/// [`NameColumn::small`] sentinel for names that are not canonical
/// `j_<digits>` (the string lives in the odd-name side table).
const ODD_NAME: u32 = u32::MAX;
/// [`NameColumn::small`] sentinel for numeric names too large for 32 bits
/// (the value lives in the big-name side table).
const BIG_NAME: u32 = u32::MAX - 1;

/// Per-job flag bits.
const FOLDED: u8 = 1 << 0;
const DEAD: u8 = 1 << 1;
const ELIGIBLE: u8 = 1 << 2;
const DIRTY: u8 = 1 << 3;

/// How far past a range's start one sample-replay read may reach. A miss
/// reads the range and every later range that ends within this many bytes
/// of its start, so a dense sample reads the file almost sequentially and
/// a sparse one reads exactly its own ranges.
const REPLAY_WINDOW: usize = 256 << 10;

/// Most jobs in one row table of [`StreamedTrace::replay_eligible`]: a
/// table of neighbouring positions, sorted into file order, still merges
/// its reads through [`REPLAY_WINDOW`], and at the generator's ~4 rows
/// per eligible job it holds ~140 KB of rows.
const REPLAY_CHUNK: usize = 1024;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The name hash the name index is keyed by: of the numeric value for a
/// canonical name, of the bytes for any other.
fn name_hash(encoded: Option<u64>, name: &str) -> u64 {
    match encoded {
        Some(v) => splitmix64(v),
        None => fnv1a(name.as_bytes()),
    }
}

/// Encode a canonical `j_<digits>` name (no leading zeros) as its numeric
/// value; anything else — including a value colliding with the sentinel —
/// stays a string in the odd-name side table.
fn encode_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("j_")?;
    if digits.is_empty() || digits.len() > 19 || (digits.len() > 1 && digits.starts_with('0')) {
        return None;
    }
    let mut v: u64 = 0;
    for b in digits.bytes() {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    if v == u64::MAX {
        None
    } else {
        Some(v)
    }
}

/// `10^i`, for [`left_aligned`].
const POW10: [u64; 20] = {
    let mut t = [1u64; 20];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// A canonical name's digits left-aligned to 19 places (no canonical
/// value has more): two names whose values differ here order as their
/// digits do byte by byte (`j_11` < `j_2`); equal values mean one name is
/// the other plus trailing zeros (`j_1`, `j_10`, `j_100`), and their bytes
/// decide.
fn left_aligned(v: u64) -> u64 {
    let digits = v.checked_ilog10().unwrap_or(0) + 1;
    v * POW10[(19 - digits) as usize]
}

/// Per-job name column. Alibaba-style `j_<digits>` names are stored as
/// their numeric value — 4 bytes per job, since real trace job ids fit in
/// 32 bits — with two side tables for the exceptions: numerics past the
/// sentinel range, and non-canonical strings. At 4M jobs the column is
/// ~17 MB where a `Vec<String>` would cost hundreds.
#[derive(Debug)]
struct NameColumn {
    small: Vec<u32>,
    big: HashMap<u32, u64>,
    odd: HashMap<u32, String>,
}

impl NameColumn {
    fn new() -> NameColumn {
        NameColumn {
            small: Vec::new(),
            big: HashMap::new(),
            odd: HashMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.small.len()
    }

    /// Append the next job's name with its already-computed encoding.
    fn push_encoded(&mut self, encoded: Option<u64>, name: &str) {
        let idx = self.small.len() as u32;
        match encoded {
            Some(v) => match u32::try_from(v) {
                Ok(small) if small < BIG_NAME => self.small.push(small),
                _ => {
                    self.small.push(BIG_NAME);
                    self.big.insert(idx, v);
                }
            },
            None => {
                self.small.push(ODD_NAME);
                self.odd.insert(idx, name.to_string());
            }
        }
    }

    /// Compare against an already-encoded name.
    fn is_encoded(&self, idx: u32, encoded: &Option<u64>, name: &str) -> bool {
        match encoded {
            Some(v) => self.numeric(idx) == Some(*v),
            None => {
                self.small[idx as usize] == ODD_NAME
                    && self.odd.get(&idx).is_some_and(|n| n == name)
            }
        }
    }

    /// The name's numeric value, or `None` for odd names.
    fn numeric(&self, idx: u32) -> Option<u64> {
        match self.small[idx as usize] {
            ODD_NAME => None,
            BIG_NAME => Some(self.big[&idx]),
            v => Some(u64::from(v)),
        }
    }

    fn hash(&self, idx: u32) -> u64 {
        match self.numeric(idx) {
            Some(v) => splitmix64(v),
            None => fnv1a(self.odd[&idx].as_bytes()),
        }
    }

    fn string(&self, idx: u32) -> String {
        match self.numeric(idx) {
            Some(_) => {
                let mut buf = [0u8; 22];
                self.bytes(idx, &mut buf)
                    .iter()
                    .map(|&b| char::from(b))
                    .collect()
            }
            None => self.odd[&idx].clone(),
        }
    }

    /// Write job `idx`'s name into `buf` (numeric names) or borrow it from
    /// the odd-name table, returning the bytes to compare.
    fn bytes<'a>(&'a self, idx: u32, buf: &'a mut [u8; 22]) -> &'a [u8] {
        match self.numeric(idx) {
            None => self.odd[&idx].as_bytes(),
            Some(mut v) => {
                buf[0] = b'j';
                buf[1] = b'_';
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
                let digits = tmp.len() - i;
                buf[2..2 + digits].copy_from_slice(&tmp[i..]);
                &buf[..2 + digits]
            }
        }
    }

    /// The jobs `idx` in byte order of their names. Each job's 12-byte key
    /// is built once, so a comparison reads two keys, not the name column
    /// at two random indices: a numeric name's [`left_aligned`] value
    /// split into two `u32` halves (all ones for an odd name), then the
    /// job index. Comparisons that meet an odd name or equal values
    /// compare the two names' bytes. At 12 bytes a job the keys and the
    /// sorted indices fit where the freed name index was.
    fn sort_by_name(&self, idx: impl Iterator<Item = u32>) -> Vec<u32> {
        const ODD: u64 = u64::MAX;
        let left = |key: &[u32; 3]| u64::from(key[0]) << 32 | u64::from(key[1]);
        let mut keys: Vec<[u32; 3]> = idx
            .map(|i| {
                let left = self.numeric(i).map_or(ODD, left_aligned);
                [(left >> 32) as u32, left as u32, i]
            })
            .collect();
        keys.sort_unstable_by(|a, b| {
            let (x, y) = (left(a), left(b));
            if x != y && x != ODD && y != ODD {
                x.cmp(&y)
            } else {
                let (mut ba, mut bb) = ([0u8; 22], [0u8; 22]);
                self.bytes(a[2], &mut ba).cmp(self.bytes(b[2], &mut bb))
            }
        });
        // A fresh exact-size vector: collecting the keys in place could keep
        // their 12-byte slots allocated under 4-byte entries.
        let mut sorted = Vec::with_capacity(keys.len());
        sorted.extend(keys.iter().map(|key| key[2]));
        sorted
    }

    /// Heap footprint of the per-job column (side tables excluded — they
    /// hold only the rare exceptions).
    fn heap_bytes(&self) -> usize {
        self.small.capacity() * 4
    }
}

/// Open-addressing hash set of job indices keyed by job name, 4 bytes per
/// slot — at 4M jobs this is ~32 MB where a `HashMap<String, u32>` would
/// cost hundreds. The engine supplies name equality and re-hashing, so the
/// table itself stores nothing but `index + 1` (0 = empty).
#[derive(Debug)]
struct NameIndex {
    slots: Vec<u32>,
    len: usize,
    /// Job indices this table can hold before fingerprint bits must be
    /// returned to the index field ([`FP_IDX_MASK`]); `with_fp_cap` lowers
    /// it in tests to exercise the wide mode without 16M inserts.
    fp_cap: usize,
    /// Whether the *current* slot array carries fingerprints. A property
    /// of the stored words, not of `len` — it only flips inside
    /// [`NameIndex::grow`], which rewrites every word.
    fp: bool,
}

/// Low bits of a slot in fingerprint mode: `idx + 1`.
const FP_IDX_MASK: u32 = 0x00ff_ffff;

impl NameIndex {
    fn new() -> NameIndex {
        NameIndex::with_fp_cap(FP_IDX_MASK as usize - 1)
    }

    fn with_fp_cap(fp_cap: usize) -> NameIndex {
        NameIndex {
            slots: vec![0; 1 << 16],
            len: 0,
            fp_cap,
            fp: true,
        }
    }

    /// While the table is small enough that every `idx + 1` fits in 24
    /// bits, the top 8 bits of each slot carry a hash fingerprint, so a
    /// probe only pays the name-column load (a second cache miss at
    /// million-job scale) for entries whose fingerprint already matches —
    /// 255 of 256 mismatching occupied slots are skipped on the slot word
    /// alone. Past [`NameIndex::fp_cap`] entries the table rebuilds with
    /// plain `idx + 1` slots; the fingerprint is only ever a filter, so
    /// both modes answer probes identically.
    ///
    /// The slot word for `idx` under `hash` in the current mode.
    fn slot_word(&self, hash: u64, idx: u32) -> u32 {
        if self.fp {
            ((hash >> 56) as u32) << 24 | (idx + 1)
        } else {
            idx + 1
        }
    }

    fn lookup(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        self.probe(hash, eq).ok()
    }

    /// Walk the probe chain for `hash`: `Ok(idx)` when a matching entry is
    /// found, `Err(slot)` with the first empty slot otherwise. The miss
    /// slot is exactly where a subsequent insert of the same key belongs,
    /// so callers that miss-then-insert ([`FoldStage::close`]) pay the
    /// chain — one cache miss per probe at 4M-job table sizes — only once.
    fn probe(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut pos = hash as usize & mask;
        if self.fp {
            let want = ((hash >> 56) as u32) << 24;
            loop {
                let stored = self.slots[pos];
                if stored == 0 {
                    return Err(pos);
                }
                if stored & !FP_IDX_MASK == want {
                    let idx = (stored & FP_IDX_MASK) - 1;
                    if eq(idx) {
                        return Ok(idx);
                    }
                }
                pos = (pos + 1) & mask;
            }
        }
        loop {
            match self.slots[pos] {
                0 => return Err(pos),
                stored => {
                    let idx = stored - 1;
                    if eq(idx) {
                        return Ok(idx);
                    }
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Fill a previously probed empty slot ([`NameIndex::probe`] `Err`).
    /// Only valid while no other insert or grow has happened since the
    /// probe — the scan guarantees that: a job's slot is probed when its
    /// first row opens it, and the next insert is that same job's close.
    fn insert_at(&mut self, slot: usize, hash: u64, idx: u32) {
        debug_assert_eq!(self.slots[slot], 0, "probed slot was taken since");
        self.slots[slot] = self.slot_word(hash, idx);
        self.len += 1;
    }

    /// True when one more insert would push the load factor past 0.7, or
    /// force the fingerprint mode past its index capacity.
    fn needs_grow(&self) -> bool {
        (self.len + 1) * 10 >= self.slots.len() * 7 || (self.fp && self.len >= self.fp_cap)
    }

    /// Double capacity, re-placing every stored index by `hash_of(idx)`.
    /// The rebuild also re-derives the slot encoding, which is how the
    /// table leaves fingerprint mode when it outgrows 24-bit indices (the
    /// capacity stays doubled in that case even though the trigger wasn't
    /// load factor — a one-time rebuild either way).
    ///
    /// Every index in `0..len` is stored exactly once, so the table can be
    /// rebuilt from the indices alone — the old table is freed *before* the
    /// new one is allocated. At millions of jobs the grow moment is the
    /// scan's peak-RSS point, and two tables coexisting would double the
    /// index's contribution to it.
    fn grow(&mut self, hash_of: impl Fn(u32) -> u64) {
        let new_cap = self.slots.len() * 2;
        self.slots = Vec::new();
        let mut slots = vec![0u32; new_cap];
        let mask = new_cap - 1;
        // Mode of the rebuilt table: room for the insert that triggered us.
        self.fp = self.len < self.fp_cap;
        let fp = self.fp;
        for idx in 0..self.len as u32 {
            let hash = hash_of(idx);
            let mut pos = hash as usize & mask;
            while slots[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            slots[pos] = if fp {
                ((hash >> 56) as u32) << 24 | (idx + 1)
            } else {
                idx + 1
            };
        }
        self.slots = slots;
    }

    /// Insert a new index under `hash`. The caller has verified absence and
    /// capacity ([`NameIndex::needs_grow`]).
    fn insert(&mut self, hash: u64, idx: u32) {
        let word = self.slot_word(hash, idx);
        let mask = self.slots.len() - 1;
        let mut pos = hash as usize & mask;
        while self.slots[pos] != 0 {
            pos = (pos + 1) & mask;
        }
        self.slots[pos] = word;
        self.len += 1;
    }
}

/// What the scan is currently accumulating.
enum Open {
    /// A job not seen before: rows fold into the running [`OpenFold`].
    New { start: u64, end: u64 },
    /// An out-of-order straggler batch for a closed job: only the byte
    /// range is tracked; rows are recovered by replay at finalize.
    Straggler { idx: u32, start: u64, end: u64 },
}

/// What the fold reads of one good row: its numbers, its status and its
/// task name's DAG verdict, copied out of the read buffer.
#[derive(Debug, Clone, Copy)]
struct RowFacts {
    start_time: i64,
    end_time: i64,
    plan_cpu: f64,
    plan_mem: f64,
    instance_num: u32,
    status: Status,
    is_dag: bool,
}

impl RowFacts {
    /// The facts of a line that holds no row.
    const NONE: RowFacts = RowFacts {
        start_time: 0,
        end_time: 0,
        plan_cpu: 0.0,
        plan_mem: 0.0,
        instance_num: 0,
        status: Status::Ready,
        is_dag: false,
    };

    fn of(p: &TaskParts<'_>, memo: &mut taskname::DagNameMemo) -> RowFacts {
        RowFacts {
            start_time: p.start_time,
            end_time: p.end_time,
            plan_cpu: p.plan_cpu,
            plan_mem: p.plan_mem,
            instance_num: p.instance_num,
            status: p.status,
            is_dag: memo.is_dag_name(p.task_name),
        }
    }
}

/// Incremental fold of the open job — everything [`JobFacts`] and the
/// eligibility verdict need, updated row by row so the scan never stores
/// task rows at all. Each reduction repeats the exact fold [`Job`]'s own
/// methods run over its task records (same row order, same `f64` add
/// sequence for the volumes, same min/max filters), so the verdicts and
/// statistics stay bit-identical to the batch path. Finalize refolds a
/// corrected job's replayed rows through the same fold.
struct OpenFold {
    /// Job name (reused buffer; valid while a job is open).
    name: String,
    /// [`encode_name`] of `name`, computed once at open time.
    encoded: Option<u64>,
    /// Name hash, computed once at open time.
    hash: u64,
    /// Empty [`NameIndex`] slot found by the open-time probe miss; where
    /// the close-time insert lands (unless the index grew in between —
    /// it cannot, see [`NameIndex::insert_at`]).
    slot: usize,
    size: u32,
    /// Every row's task name parses as a DAG task so far.
    all_dag: bool,
    /// Every row terminated so far.
    all_terminated: bool,
    /// `min` over positive start times ([`Job::start_time`]), `i64::MAX`
    /// while none seen — a sentinel instead of an `Option` keeps the
    /// per-row fold branch-free.
    min_start: i64,
    /// `max` over positive end times ([`Job::end_time`]), `i64::MIN` while
    /// none seen.
    max_end: i64,
    cpu_volume: f64,
    mem_volume: f64,
    status_counts: [usize; Status::ALL.len()],
    /// Every row so far passes the per-row availability checks (valid
    /// duration, positive plans, nonzero instances).
    rows_available: bool,
}

impl OpenFold {
    fn new() -> OpenFold {
        OpenFold {
            name: String::new(),
            encoded: None,
            hash: 0,
            slot: 0,
            size: 0,
            all_dag: true,
            all_terminated: true,
            min_start: i64::MAX,
            max_end: i64::MIN,
            cpu_volume: 0.0,
            mem_volume: 0.0,
            status_counts: [0; Status::ALL.len()],
            rows_available: true,
        }
    }

    /// Reset for a new job.
    fn begin(&mut self, name: &str, encoded: Option<u64>, hash: u64, slot: usize) {
        self.name.clear();
        self.name.push_str(name);
        self.encoded = encoded;
        self.hash = hash;
        self.slot = slot;
        self.clear();
    }

    /// Reset the row tallies, keeping the name fields.
    fn clear(&mut self) {
        self.size = 0;
        self.all_dag = true;
        self.all_terminated = true;
        self.min_start = i64::MAX;
        self.max_end = i64::MIN;
        self.cpu_volume = 0.0;
        self.mem_volume = 0.0;
        self.status_counts = [0; Status::ALL.len()];
        self.rows_available = true;
    }

    /// Fold one row.
    fn push(&mut self, p: &RowFacts) {
        self.size += 1;
        self.all_dag = self.all_dag && p.is_dag;
        self.all_terminated = self.all_terminated && p.status == Status::Terminated;
        if p.start_time > 0 {
            self.min_start = self.min_start.min(p.start_time);
        }
        if p.end_time > 0 {
            self.max_end = self.max_end.max(p.end_time);
        }
        self.cpu_volume += p.instance_num as f64 * p.plan_cpu;
        self.mem_volume += p.instance_num as f64 * p.plan_mem;
        self.status_counts[p.status.index()] += 1;
        self.rows_available = self.rows_available
            && p.start_time > 0
            && p.end_time >= p.start_time
            && p.plan_cpu > 0.0
            && p.plan_mem > 0.0
            && p.instance_num > 0;
    }

    /// The folded [`JobFacts`] — [`JobFacts::of_job`].
    fn facts(&self) -> JobFacts {
        let completion = (self.min_start != i64::MAX
            && self.max_end != i64::MIN
            && self.max_end >= self.min_start)
            .then(|| self.max_end - self.min_start);
        JobFacts {
            cpu_volume: self.cpu_volume,
            mem_volume: self.mem_volume,
            is_dag: self.size > 0 && self.all_dag,
            size: self.size as usize,
            fully_terminated: self.size > 0 && self.all_terminated,
            completion,
            status_counts: self.status_counts,
        }
    }

    /// [`SampleCriteria::accepts`] over the folded rows: integrity (every
    /// row a terminated DAG task), then availability.
    fn eligible(&self, criteria: &SampleCriteria) -> bool {
        if self.size == 0 || !self.all_dag || !self.all_terminated {
            return false;
        }
        if self.min_start == i64::MAX || self.max_end == i64::MIN {
            return false;
        }
        if self.min_start < criteria.min_start || self.max_end > criteria.window_secs + 86_400 {
            return false;
        }
        self.rows_available
    }
}

/// Reads recorded byte ranges of the source through one reused buffer.
/// A caller asks for ranges in order of their start offset and passes the
/// ranges it will ask for next: on a miss the reader seeks once and reads
/// from the range's start to the end of every later range that ends within
/// `window` bytes of that start, so those later ranges are hits.
struct RangeReader {
    buf: Vec<u8>,
    /// Source offset of `buf[0]`.
    at: u64,
    window: u64,
}

impl RangeReader {
    fn new(window: usize) -> RangeReader {
        RangeReader {
            buf: Vec::new(),
            at: 0,
            window: window as u64,
        }
    }

    /// The bytes of the `(start, len)` range, given the ranges asked for
    /// after it. Shorter than `len` only when the source ends early.
    fn read<R: Read + Seek>(
        &mut self,
        source: &mut R,
        (start, len): (u64, u32),
        later: impl Iterator<Item = (u64, u32)>,
    ) -> Result<&[u8], TraceError> {
        let end = start + u64::from(len);
        if start < self.at || end > self.at + self.buf.len() as u64 {
            let limit = start.saturating_add(self.window);
            let stop = later
                .map(|(s, l)| s + u64::from(l))
                .take_while(|&e| e <= limit)
                .fold(end, u64::max);
            source.seek(SeekFrom::Start(start))?;
            self.at = start;
            self.buf.clear();
            self.buf.reserve_exact((stop - start) as usize);
            (&mut *source)
                .take(stop - start)
                .read_to_end(&mut self.buf)?;
        }
        let from = (start - self.at) as usize;
        let to = (from + len as usize).min(self.buf.len());
        Ok(&self.buf[from..to])
    }
}

/// Hand every row of `bytes` that belongs to job `name` to `sink`,
/// skipping blank lines, rows of other jobs, and rows the scan
/// quarantined. Rows decode through the forward scan's SWAR parser, so a
/// replayed row is exactly the row the scan folded.
fn replay_rows(
    policy: &ReadPolicy,
    bytes: &[u8],
    name: &str,
    mut sink: impl FnMut(&TaskParts<'_>) -> Result<(), TraceError>,
) -> Result<(), TraceError> {
    for raw in scan::lines(bytes) {
        if raw.is_empty() {
            continue;
        }
        let Ok(parts) = scan::parse_task_parts_bytes(0, raw) else {
            continue;
        };
        let Ok(parts) = csv::classify_row(policy, 0, parts, |p| (p.start_time, p.end_time)) else {
            continue;
        };
        if parts.job_name == name {
            sink(&parts)?;
        }
    }
    Ok(())
}

/// Everything the scan accumulates — split from the source so the borrow
/// of the source (held by the split step during the scan, or by the
/// replay reader during materialization) never aliases the metadata.
struct ScanState {
    policy: ReadPolicy,
    criteria: SampleCriteria,
    /// Canonical name per job.
    names: NameColumn,
    /// Primary byte range of each job in the source.
    byte_start: Vec<u64>,
    byte_len: Vec<u32>,
    /// Task count per job (post-merge for corrected jobs).
    size: Vec<u32>,
    flags: Vec<u8>,
    /// Straggler byte ranges, in document order, for dirty jobs.
    extras: HashMap<u32, Vec<(u64, u32)>>,
    suspects: BTreeSet<String>,
    acc: StatsAccumulator,
    quarantine: Quarantine,
    /// Alive eligible job indices in name order (the population the
    /// stratified sampler sees).
    eligible: Vec<u32>,
    dead: usize,
    raw_bytes: u64,
    counters: ScanCounters,
}

impl ScanState {
    fn new(policy: &ReadPolicy, criteria: &SampleCriteria) -> ScanState {
        ScanState {
            policy: policy.clone(),
            criteria: criteria.clone(),
            names: NameColumn::new(),
            byte_start: Vec::new(),
            byte_len: Vec::new(),
            size: Vec::new(),
            flags: Vec::new(),
            extras: HashMap::new(),
            suspects: BTreeSet::new(),
            acc: StatsAccumulator::new(),
            quarantine: Quarantine::default(),
            eligible: Vec::new(),
            dead: 0,
            raw_bytes: 0,
            counters: ScanCounters::default(),
        }
    }

    /// The job's name, decoded.
    fn name_string(&self, idx: u32) -> String {
        self.names.string(idx)
    }

    fn kill(&mut self, idx: u32) {
        if self.flags[idx as usize] & DEAD == 0 {
            self.flags[idx as usize] |= DEAD;
            self.dead += 1;
        }
    }

    /// Hand job `idx`'s rows to `sink` in document order, replayed through
    /// `reader`: its primary range, then its straggler extras when
    /// `with_extras`.
    fn replay_job<R: Read + Seek>(
        &self,
        source: &mut R,
        reader: &mut RangeReader,
        idx: u32,
        with_extras: bool,
        mut sink: impl FnMut(&TaskParts<'_>) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        let name = self.name_string(idx);
        let primary = [(self.byte_start[idx as usize], self.byte_len[idx as usize])];
        let extras = match self.extras.get(&idx) {
            Some(ranges) if with_extras => ranges.as_slice(),
            _ => &[],
        };
        for ranges in [&primary[..], extras] {
            for (i, &range) in ranges.iter().enumerate() {
                let bytes = reader.read(source, range, ranges[i + 1..].iter().copied())?;
                replay_rows(&self.policy, bytes, &name, &mut sink)?;
            }
        }
        Ok(())
    }

    /// Fold job `idx`'s replayed rows afresh into `fold` (see
    /// [`ScanState::replay_job`]), each task name's DAG verdict read
    /// through `memo`.
    fn refold<R: Read + Seek>(
        &self,
        source: &mut R,
        reader: &mut RangeReader,
        fold: &mut OpenFold,
        memo: &mut taskname::DagNameMemo,
        idx: u32,
        with_extras: bool,
    ) -> Result<(), TraceError> {
        fold.clear();
        self.replay_job(source, reader, idx, with_extras, |p| {
            fold.push(&RowFacts::of(p, memo));
            Ok(())
        })
    }

    /// Replay the eligible jobs at positions `picked` into one row table,
    /// slot `s` holding job `picked[s]`. Every range is read once, in file
    /// order, through one reader whose buffer is freed on return.
    fn replay_sample<R: Read + Seek>(
        &self,
        source: &mut R,
        picked: &[usize],
        window: usize,
    ) -> Result<SampleRows, TraceError> {
        // Every range to read as `(start, len, slot, the job has
        // straggler extras)`. Extras lie after their job's primary range,
        // so file order is also each job's document order.
        let mut plan = Vec::with_capacity(picked.len());
        let mut names = Vec::with_capacity(picked.len());
        let mut rows = 0;
        for (slot, &pos) in picked.iter().enumerate() {
            let idx = self.eligible[pos];
            names.push(self.name_string(idx));
            let i = idx as usize;
            let extras = self.extras.get(&idx).map_or(&[][..], Vec::as_slice);
            let split = !extras.is_empty();
            plan.push((self.byte_start[i], self.byte_len[i], slot, split));
            plan.extend(extras.iter().map(|&(start, len)| (start, len, slot, split)));
            // A job read in several segments is copied into one run.
            rows += self.size[i] as usize * if split { 2 } else { 1 };
        }
        plan.sort_unstable_by_key(|&(start, ..)| start);

        let mut table = SampleRows {
            names,
            jobs: vec![0..0; picked.len()],
            starts: vec![i64::MAX; picked.len()],
            rows: Rows::with_capacity(rows),
        };
        let mut segments = Vec::new();
        let mut reader = RangeReader::new(window);
        for (i, &(start, len, slot, split)) in plan.iter().enumerate() {
            let later = plan[i + 1..].iter().map(|&(start, len, ..)| (start, len));
            let bytes = reader.read(source, (start, len), later)?;
            let first = table.rows.len();
            let start = &mut table.starts[slot];
            replay_rows(&self.policy, bytes, &table.names[slot], |p| {
                if p.start_time > 0 {
                    *start = (*start).min(p.start_time);
                }
                table.rows.push(p)
            })?;
            let segment = first..table.rows.len();
            if split {
                segments.push((slot, segment));
            } else {
                table.jobs[slot] = segment;
            }
        }
        // The stable sort keeps each job's segments in document order.
        segments.sort_by_key(|&(slot, _)| slot);
        for job in segments.chunk_by(|a, b| a.0 == b.0) {
            let first = table.rows.len();
            for (_, segment) in job {
                table.rows.copy_within(segment.clone())?;
            }
            table.jobs[job[0].0] = first..table.rows.len();
        }
        Ok(table)
    }

    /// Apply deferred corrections, refolding each corrected job's replayed
    /// rows through an [`OpenFold`] as the scan folded them, then freeze
    /// the eligible population in name order.
    fn finalize<R: Read + Seek>(&mut self, source: &mut R) -> Result<(), TraceError> {
        let mut reader = RangeReader::new(REPLAY_WINDOW);
        let (mut fold, mut memo) = (OpenFold::new(), taskname::DagNameMemo::new());
        for idx in 0..self.flags.len() as u32 {
            let f = self.flags[idx as usize];
            if f & DEAD != 0 {
                // Retract the folded contribution (primary range only —
                // straggler extras are never folded during the scan); the
                // job vanishes, like the batch path dropping every row of
                // a suspect job.
                if f & FOLDED != 0 {
                    self.refold(source, &mut reader, &mut fold, &mut memo, idx, false)?;
                    self.acc.remove_facts(&fold.facts());
                    self.flags[idx as usize] &= !FOLDED;
                }
            } else if f & DIRTY != 0 {
                self.refold(source, &mut reader, &mut fold, &mut memo, idx, false)?;
                self.acc.remove_facts(&fold.facts());
                self.refold(source, &mut reader, &mut fold, &mut memo, idx, true)?;
                self.acc.add_facts(&fold.facts());
                self.size[idx as usize] = fold.size;
                if fold.eligible(&self.criteria) {
                    self.flags[idx as usize] |= ELIGIBLE;
                } else {
                    self.flags[idx as usize] &= !ELIGIBLE;
                }
            }
        }
        let flags = &self.flags;
        self.eligible = self
            .names
            .sort_by_name((0..flags.len() as u32).filter(|&i| {
                let f = flags[i as usize];
                f & DEAD == 0 && f & ELIGIBLE != 0
            }));
        Ok(())
    }
}

/// Lines per batch: at 56 bytes a line descriptor, ~230 KB, so a
/// hand-off is rare next to the batch's work.
const BATCH_LINES: usize = 4096;

/// Batches in flight when the stages run on two threads: ~32k lines, so
/// the split can run ~5 ms ahead of the fold. On a shared 2-vCPU host,
/// where a vCPU is now and then taken away for milliseconds, eight left
/// the 1M-job scan ~7% faster than three (median of eight pairs), at 1.8
/// MB more peak RSS; a batch split but not yet parsed also holds its
/// lines' bytes, ~230 KB more at the generator's line lengths.
const PIPELINE_BATCHES: usize = 8;

/// [`Line::job`] of a blank line.
const BLANK: u32 = u32::MAX;
/// [`Line::job`] of a bad row: its details are the batch's next
/// [`BadRow`].
const BAD: u32 = u32::MAX - 1;

/// One line of the trace as the fold reads it: 56 bytes, nothing
/// borrowed from the read buffer. The split step writes where it ends,
/// the parse step the rest.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// Stream offset just past the line's terminator; the line starts
    /// where the previous one ends.
    end: u64,
    /// A good row's job name, as an index into [`Batch::jobs`], or
    /// [`BLANK`] / [`BAD`].
    job: u32,
    /// A good row whose job name is the batch's previous good row's. The
    /// first good row of a batch is never one: the fold's slow path
    /// decides what it continues.
    same_job: bool,
    row: RowFacts,
}

const _: () = assert!(std::mem::size_of::<Line>() == 56);

/// A line that failed to parse or classify, as the parse step found it.
#[derive(Debug)]
struct BadRow {
    error: TraceError,
    excerpt: String,
    job_name: Option<String>,
}

/// Where the split step left the source after a batch.
#[derive(Debug)]
enum BatchEnd {
    /// More lines may follow.
    More,
    /// The source ended after the batch's last line.
    Eof,
    /// Reading failed after the batch's last line.
    Failed(TraceError),
}

/// Consecutive lines of the trace, in file order: split, then parsed,
/// then folded. A batch's buffers are reused from batch to batch.
#[derive(Debug)]
struct Batch {
    /// Stream offset of the first line.
    start: u64,
    /// Lines of the source before the first line.
    first_line: usize,
    /// The lines' bytes as read, terminators included: the source from
    /// `start` on, held from the split to the parse when the two run
    /// apart (empty when they alternate inline).
    raw: Vec<u8>,
    lines: Vec<Line>,
    /// Each job name's bytes in `names`: one entry per run of good rows
    /// of one name.
    jobs: Vec<Range<usize>>,
    names: String,
    /// One entry per [`BAD`] line, in order.
    bad: Vec<BadRow>,
    end: BatchEnd,
}

impl Batch {
    fn new(lines: usize) -> Batch {
        Batch {
            start: 0,
            first_line: 0,
            raw: Vec::new(),
            lines: Vec::with_capacity(lines),
            jobs: Vec::new(),
            names: String::new(),
            bad: Vec::new(),
            end: BatchEnd::More,
        }
    }

    /// The [`Batch::jobs`] entry of a good row of job `name`, and whether
    /// the batch's previous good row had the same name. Consecutive rows
    /// of one name share the batch's last entry.
    fn job_entry(&mut self, name: &str) -> (u32, bool) {
        if let Some(last) = self.jobs.last() {
            if self.names.as_bytes()[last.clone()] == *name.as_bytes() {
                return ((self.jobs.len() - 1) as u32, true);
            }
        }
        let start = self.names.len();
        self.names.push_str(name);
        self.jobs.push(start..self.names.len());
        ((self.jobs.len() - 1) as u32, false)
    }
}

/// The split step: cut the source into lines in file order, numbering
/// them and recording where each ends. Only the thread that owns the
/// source runs it.
struct Splitter<R> {
    lines: scan::BufLines<R>,
    /// Lines read so far.
    line_no: usize,
    /// Stream offset past the last line read.
    offset: u64,
}

impl<R: Read> Splitter<R> {
    fn new(source: R, buffer: usize) -> Splitter<R> {
        Splitter {
            lines: scan::BufLines::new(source, buffer),
            line_no: 0,
            offset: 0,
        }
    }

    /// Refill `batch` with the next `max_lines` lines, or fewer when the
    /// source ends or fails (recorded in [`Batch::end`]), handing each
    /// line's index in the batch and its bytes, terminator included, to
    /// `take`. Returns whether more lines may follow.
    fn split(
        &mut self,
        batch: &mut Batch,
        max_lines: usize,
        mut take: impl FnMut(&mut Batch, usize, &[u8]),
    ) -> bool {
        batch.start = self.offset;
        batch.first_line = self.line_no;
        batch.raw.clear();
        batch.lines.clear();
        batch.jobs.clear();
        batch.names.clear();
        batch.bad.clear();
        batch.end = BatchEnd::More;
        while batch.lines.len() < max_lines {
            let (offset, consumed, span) = match self.lines.next_span() {
                Ok(Some(line)) => line,
                Ok(None) => {
                    batch.end = BatchEnd::Eof;
                    break;
                }
                Err(e) => {
                    batch.end = BatchEnd::Failed(e.into());
                    break;
                }
            };
            self.line_no += 1;
            self.offset = offset + consumed;
            let i = batch.lines.len();
            batch.lines.push(Line {
                end: self.offset,
                job: BLANK,
                same_job: false,
                row: RowFacts::NONE,
            });
            // The span is the line less its terminator, from the line's
            // first byte.
            let whole = span.start..span.start + consumed as usize;
            take(batch, i, &self.lines.view()[whole]);
        }
        matches!(batch.end, BatchEnd::More)
    }
}

/// The parse step: the SWAR parse, `classify_row`, each task name's DAG
/// verdict and the job-name runs of one split batch. It reads nothing
/// outside the batch, so any thread may run it on any batch; each thread
/// that parses owns one.
struct Parser {
    policy: ReadPolicy,
    /// DAG-name verdicts; task names repeat across the whole trace.
    memo: taskname::DagNameMemo,
}

impl Parser {
    fn new(policy: &ReadPolicy) -> Parser {
        Parser {
            policy: policy.clone(),
            memo: taskname::DagNameMemo::new(),
        }
    }

    /// Describe line `i` of `batch` from its bytes as split: `BufLines`
    /// strips a `\n` and one `\r` before it, and keeps an unterminated
    /// last line whole.
    fn parse_line(&mut self, batch: &mut Batch, i: usize, bytes: &[u8]) {
        let raw = match bytes.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None => bytes,
        };
        if raw.is_empty() {
            return;
        }
        let line_no = batch.first_line + i + 1;
        let verdict = scan::parse_task_parts_bytes(line_no, raw).and_then(|p| {
            csv::classify_row(&self.policy, line_no, p, |p| (p.start_time, p.end_time))
        });
        match verdict {
            Ok(parts) => {
                let (job, same_job) = batch.job_entry(parts.job_name);
                let line = &mut batch.lines[i];
                line.job = job;
                line.same_job = same_job;
                line.row = RowFacts::of(&parts, &mut self.memo);
            }
            Err(error) => {
                batch.bad.push(BadRow {
                    error,
                    excerpt: quarantine::excerpt_of(raw),
                    job_name: quarantine::job_name_of(raw),
                });
                batch.lines[i].job = BAD;
            }
        }
    }

    /// Parse a batch the split left in [`Batch::raw`].
    fn parse(&mut self, batch: &mut Batch) {
        let raw = std::mem::take(&mut batch.raw);
        let mut from = 0;
        for i in 0..batch.lines.len() {
            let to = (batch.lines[i].end - batch.start) as usize;
            self.parse_line(batch, i, &raw[from..to]);
            from = to;
        }
        batch.raw = raw;
    }
}

/// The fold stage: group rows into jobs as they complete, fold each into
/// the running statistics, record byte ranges, and account for bad rows —
/// everything the scan decides, in file order.
struct FoldStage {
    /// What the scan is accumulating.
    open: Option<Open>,
    /// The last good row continued or opened `open` (it was not a
    /// suspect's): a row of the same job name continues `open` with no
    /// name comparison.
    open_is_last: bool,
    fold: OpenFold,
    /// Closed jobs by name. Only the scan reads it, so it is freed with
    /// the stage, before finalize.
    index: NameIndex,
}

impl FoldStage {
    fn new() -> FoldStage {
        FoldStage {
            open: None,
            open_is_last: false,
            fold: OpenFold::new(),
            index: NameIndex::new(),
        }
    }

    /// Fold one batch. Returns whether more batches follow; after the last
    /// line of the source it closes the open job.
    fn fold_batch(&mut self, state: &mut ScanState, batch: &mut Batch) -> Result<bool, TraceError> {
        let mut offset = batch.start;
        let mut bad = batch.bad.drain(..);
        for line in &batch.lines {
            let start = std::mem::replace(&mut offset, line.end);
            state.quarantine.lines_total += 1;
            if line.job == BLANK {
                continue;
            }
            state.quarantine.rows_total += 1;
            if line.job == BAD {
                let row = bad.next().expect("the parse step records every bad line");
                self.quarantine(state, row, start)?;
                continue;
            }
            state.quarantine.rows_good += 1;
            // Fast path: the row continues whatever is open. A suspect's
            // rows never reach here: a row naming the open job cleared it.
            if line.same_job && self.open_is_last {
                match &mut self.open {
                    Some(Open::New { end, .. }) => {
                        self.fold.push(&line.row);
                        *end = line.end;
                        continue;
                    }
                    Some(Open::Straggler { end, .. }) => {
                        *end = line.end;
                        continue;
                    }
                    None => {}
                }
            }
            let name = &batch.names[batch.jobs[line.job as usize].clone()];
            self.push(state, name, line, start)?;
        }
        state.raw_bytes = offset;
        match std::mem::replace(&mut batch.end, BatchEnd::More) {
            BatchEnd::More => Ok(true),
            BatchEnd::Eof => {
                if let Some(open) = self.open.take() {
                    self.close(state, open)?;
                }
                Ok(false)
            }
            BatchEnd::Failed(error) => Err(error),
        }
    }

    /// Fold a good row of job `name`, starting at stream offset `start`,
    /// that the fast path could not place.
    fn push(
        &mut self,
        state: &mut ScanState,
        name: &str,
        line: &Line,
        start: u64,
    ) -> Result<(), TraceError> {
        if !state.suspects.is_empty() && state.suspects.contains(name) {
            self.open_is_last = false;
            return Ok(());
        }
        self.open_is_last = true;
        let encoded = encode_name(name);
        match &mut self.open {
            Some(Open::New { end, .. }) if self.fold.name == name => {
                self.fold.push(&line.row);
                *end = line.end;
                return Ok(());
            }
            Some(Open::Straggler { idx, end, .. })
                if state.names.is_encoded(*idx, &encoded, name) =>
            {
                *end = line.end;
                return Ok(());
            }
            _ => {}
        }
        // The row opens something else: close what was open first.
        if let Some(prev) = self.open.take() {
            self.close(state, prev)?;
        }
        let hash = name_hash(encoded, name);
        let probed = self
            .index
            .probe(hash, |idx| state.names.is_encoded(idx, &encoded, name));
        self.open = Some(match probed {
            // A closed job's name re-appearing: an out-of-order straggler
            // batch (the job cannot be dead here — dead jobs are suspects,
            // and suspect rows were dropped above).
            Ok(idx) => Open::Straggler {
                idx,
                start,
                end: line.end,
            },
            Err(slot) => {
                self.fold.begin(name, encoded, hash, slot);
                self.fold.push(&line.row);
                Open::New {
                    start,
                    end: line.end,
                }
            }
        });
        Ok(())
    }

    /// Quarantine a bad row that starts at stream offset `start`, or fail
    /// with its error under a strict policy or a spent budget.
    fn quarantine(
        &mut self,
        state: &mut ScanState,
        row: BadRow,
        start: u64,
    ) -> Result<(), TraceError> {
        if !state.policy.is_quarantine() || state.quarantine.rows.len() >= state.policy.max_bad() {
            return Err(row.error);
        }
        state.quarantine.rows.push(QuarantinedRow {
            line: state.quarantine.lines_total,
            byte_offset: start,
            error: row.error,
            excerpt: row.excerpt,
            job_name: row.job_name.clone(),
        });
        if let Some(name) = row.job_name {
            if state.suspects.insert(name.clone()) {
                self.on_new_suspect(state, &name);
            }
        }
        Ok(())
    }

    /// React to a name becoming suspect mid-scan. Open state referencing
    /// the name is discarded; a closed job is marked dead for
    /// finalize-time retraction.
    fn on_new_suspect(&mut self, state: &mut ScanState, name: &str) {
        let encoded = encode_name(name);
        match self.open {
            // The open fold is simply dropped; the next `begin` resets it.
            Some(Open::New { .. }) if self.fold.name == name => self.open = None,
            Some(Open::Straggler { idx, .. }) if state.names.is_encoded(idx, &encoded, name) => {
                state.kill(idx);
                self.open = None;
            }
            _ => {
                let hash = name_hash(encoded, name);
                let names = &state.names;
                if let Some(idx) = self
                    .index
                    .lookup(hash, |idx| names.is_encoded(idx, &encoded, name))
                {
                    state.kill(idx);
                }
            }
        }
    }

    /// Seal whatever was accumulating. A new job gets its index, metadata
    /// row, eligibility verdict, and statistics fold — all read off the
    /// incremental [`OpenFold`]. A straggler batch just records its range.
    fn close(&mut self, state: &mut ScanState, open: Open) -> Result<(), TraceError> {
        match open {
            Open::New { start, end } => {
                let fold = &self.fold;
                let len = u32::try_from(end - start).map_err(|_| {
                    TraceError::Io(format!(
                        "job '{}' spans more than 4 GiB of trace",
                        fold.name
                    ))
                })?;
                let eligible = fold.eligible(&state.criteria);
                let idx = state.names.len() as u32;
                state.names.push_encoded(fold.encoded, &fold.name);
                state.byte_start.push(start);
                state.byte_len.push(len);
                state.size.push(fold.size);
                state
                    .flags
                    .push(FOLDED | if eligible { ELIGIBLE } else { 0 });
                state.acc.add_facts(&fold.facts());
                if self.index.needs_grow() {
                    let at = Instant::now();
                    let names = &state.names;
                    self.index.grow(|i| names.hash(i));
                    state.counters.index_grows += 1;
                    state.counters.index_grow_time += at.elapsed();
                    self.index.insert(fold.hash, idx);
                } else {
                    // No insert has happened since this job's open-time
                    // probe, so the probed empty slot is still the right
                    // home — skip the second probe chain.
                    self.index.insert_at(fold.slot, fold.hash, idx);
                }
            }
            Open::Straggler { idx, start, end } => {
                let len = u32::try_from(end - start).map_err(|_| {
                    TraceError::Io("straggler batch spans more than 4 GiB of trace".to_string())
                })?;
                state.extras.entry(idx).or_default().push((start, len));
                state.flags[idx as usize] |= DIRTY;
            }
        }
        Ok(())
    }
}

/// What the forward scan's stages did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanCounters {
    /// Batches of lines the fold stage folded.
    pub batches: u64,
    /// Whether the stages ran on two threads; otherwise they alternated
    /// on the calling thread and neither waited.
    pub threaded: bool,
    /// Batches the reader thread parsed (on two threads).
    pub reader_parsed: u64,
    /// Batches the fold thread parsed because its next batch was not
    /// parsed yet (on two threads).
    pub fold_parsed: u64,
    /// How long the reader waited with no free batch to split into and
    /// no split batch to parse: the fold was behind.
    pub read_wait: Duration,
    /// How long the fold waited with its next batch unparsed and no
    /// split batch to parse: the split was behind, or the reader was
    /// parsing the fold's next batch.
    pub fold_wait: Duration,
    /// Times the name index doubled.
    pub index_grows: u32,
    /// Time the fold spent rebuilding the name index.
    pub index_grow_time: Duration,
}

/// Which thread parses the split batches when the stages run on two
/// threads. A test seam, not part of the API: the scan parses on demand,
/// and the tests pin that each thread alone gives the same result.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseBy {
    /// The reader parses when it has nothing to split, the fold when its
    /// next batch is not parsed yet.
    Demand,
    /// Only the reader parses.
    Reader,
    /// Only the fold thread parses.
    Fold,
}

/// The batches between the two threads of a scan, under one lock.
struct Relay {
    hand: Mutex<Hand>,
    /// Signalled whenever a batch changes hands or a thread stops.
    moved: Condvar,
}

struct Hand {
    /// Folded batches the split may refill.
    free: Vec<Batch>,
    /// Split batches no thread has taken to parse, oldest first, with
    /// their sequence numbers.
    split: VecDeque<(usize, Batch)>,
    /// Parsed batches not yet folded, each at its sequence number modulo
    /// [`PIPELINE_BATCHES`]: the fold takes them in file order.
    parsed: Vec<Option<Batch>>,
    /// The fold returned or panicked: the reader stops.
    fold_stopped: bool,
    /// The reader returned or panicked: only the fold thread parses.
    reader_gone: bool,
}

impl Relay {
    /// The hand-off state. Neither thread panics while holding it, but a
    /// poisoned lock is taken anyway: the flags must still be set.
    fn lock(&self) -> MutexGuard<'_, Hand> {
        self.hand.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait for the other thread to move a batch, adding the wait to
    /// `waited`.
    fn wait<'a>(&self, hand: MutexGuard<'a, Hand>, waited: &mut Duration) -> MutexGuard<'a, Hand> {
        let at = Instant::now();
        let hand = self
            .moved
            .wait(hand)
            .unwrap_or_else(PoisonError::into_inner);
        *waited += at.elapsed();
        hand
    }
}

/// Sets one of the [`Hand`] flags when dropped, on return or on unwind,
/// and wakes the other thread.
struct OnExit<'a> {
    relay: &'a Relay,
    flag: fn(&mut Hand) -> &mut bool,
}

impl Drop for OnExit<'_> {
    fn drop(&mut self) {
        *(self.flag)(&mut self.relay.lock()) = true;
        self.relay.moved.notify_all();
    }
}

/// The forward scan: the split step cuts the source into batches of
/// lines, the parse step describes each line, and the fold stage folds
/// the descriptors in file order. With `threads` of two or more and more
/// trace than one buffer fill, a scoped reader thread splits ahead
/// through [`PIPELINE_BATCHES`] recycled batches and parses when it has
/// nothing to split; the calling thread folds, and parses the oldest
/// unparsed batch whenever its next batch is not parsed yet (`by` pins
/// the parsing to one thread in tests). Otherwise the steps alternate on
/// the calling thread, parsing each line as it is split. The fold sees
/// the same descriptors in the same order either way, so every
/// statistic, quarantine row and first error is the same. Whatever ends
/// the fold, its return, its error or a panic, stops the reader at its
/// next hand-off, and the reader is joined (its panic resumed) before
/// this returns.
fn scan_rows<R: Read + Seek + Send>(
    source: &mut R,
    state: &mut ScanState,
    buffer: usize,
    batch_lines: usize,
    threads: usize,
    by: ParseBy,
) -> Result<(), TraceError> {
    let len = source.seek(SeekFrom::End(0))?;
    source.seek(SeekFrom::Start(0))?;
    let mut split = Splitter::new(&mut *source, buffer);
    let mut fold = FoldStage::new();
    let mut parser = Parser::new(&state.policy);
    if threads < 2 || len <= split.lines.capacity() as u64 {
        let mut batch = Batch::new(batch_lines);
        loop {
            split.split(&mut batch, batch_lines, |batch, i, bytes| {
                parser.parse_line(batch, i, bytes)
            });
            state.counters.batches += 1;
            if !fold.fold_batch(state, &mut batch)? {
                return Ok(());
            }
        }
    }
    state.counters.threaded = true;
    let relay = Relay {
        hand: Mutex::new(Hand {
            free: (0..PIPELINE_BATCHES)
                .map(|_| Batch::new(batch_lines))
                .collect(),
            split: VecDeque::new(),
            parsed: (0..PIPELINE_BATCHES).map(|_| None).collect(),
            fold_stopped: false,
            reader_gone: false,
        }),
        moved: Condvar::new(),
    };
    let policy = state.policy.clone();
    let relay = &relay;
    std::thread::scope(|scope| {
        let reader = std::thread::Builder::new()
            .name("dagscope-scan-read".to_string())
            .spawn_scoped(scope, move || {
                let _gone = OnExit {
                    relay,
                    flag: |hand| &mut hand.reader_gone,
                };
                let mut parser = Parser::new(&policy);
                let (mut seq, mut more) = (0, true);
                let (mut waited, mut parsed) = (Duration::ZERO, 0);
                let mut hand = relay.lock();
                while !hand.fold_stopped {
                    let free = if more { hand.free.pop() } else { None };
                    if let Some(mut batch) = free {
                        drop(hand);
                        more = split.split(&mut batch, batch_lines, |batch, _, bytes| {
                            batch.raw.extend_from_slice(bytes)
                        });
                        hand = relay.lock();
                        hand.split.push_back((seq, batch));
                        seq += 1;
                        relay.moved.notify_all();
                        continue;
                    }
                    let unparsed = match by {
                        ParseBy::Fold => None,
                        _ => hand.split.pop_front(),
                    };
                    if let Some((s, mut batch)) = unparsed {
                        drop(hand);
                        parser.parse(&mut batch);
                        parsed += 1;
                        hand = relay.lock();
                        hand.parsed[s % PIPELINE_BATCHES] = Some(batch);
                        relay.moved.notify_all();
                    } else if more {
                        hand = relay.wait(hand, &mut waited);
                    } else {
                        break;
                    }
                }
                (waited, parsed)
            })?;
        let stop = OnExit {
            relay,
            flag: |hand| &mut hand.fold_stopped,
        };
        let mut next = 0;
        let folded = loop {
            let mut hand = relay.lock();
            let batch = loop {
                if let Some(batch) = hand.parsed[next % PIPELINE_BATCHES].take() {
                    break Some(batch);
                }
                if by != ParseBy::Reader {
                    if let Some((s, mut batch)) = hand.split.pop_front() {
                        drop(hand);
                        parser.parse(&mut batch);
                        state.counters.fold_parsed += 1;
                        // No wake-up: the reader never waits for a parsed
                        // batch.
                        hand = relay.lock();
                        hand.parsed[s % PIPELINE_BATCHES] = Some(batch);
                        continue;
                    }
                }
                // The reader left batch `next` unsplit or unparsed: it
                // panicked, and the join below resumes its panic.
                if hand.reader_gone {
                    break None;
                }
                hand = relay.wait(hand, &mut state.counters.fold_wait);
            };
            drop(hand);
            let Some(mut batch) = batch else {
                break Ok(());
            };
            #[cfg(test)]
            tests::fold_hook(state.counters.batches);
            next += 1;
            state.counters.batches += 1;
            match fold.fold_batch(state, &mut batch) {
                Ok(true) => {
                    relay.lock().free.push(batch);
                    relay.moved.notify_all();
                }
                Ok(false) => break Ok(()),
                Err(error) => break Err(error),
            }
        };
        drop(stop);
        match reader.join() {
            Ok((waited, parsed)) => {
                state.counters.read_wait = waited;
                state.counters.reader_parsed = parsed;
            }
            Err(panic) => std::panic::resume_unwind(panic),
        }
        folded
    })
}

/// A fully scanned trace: per-job metadata columns, exact running
/// statistics, quarantine accounting, and the (seekable) source for
/// on-demand job materialization.
pub struct StreamedTrace<R> {
    source: R,
    state: ScanState,
}

impl<R: Read + Seek + Send> StreamedTrace<R> {
    /// Scan `source` end to end with the default buffer size. With
    /// [`dagscope_par::parallelism`] of two or more and a source longer
    /// than the buffer, the scan's split borrows `source` on a scoped
    /// thread of its own (hence `R: Send`); the result is the same.
    pub fn scan(
        source: R,
        policy: &ReadPolicy,
        criteria: &SampleCriteria,
    ) -> Result<StreamedTrace<R>, TraceError> {
        Self::scan_with_buffer(source, policy, criteria, 1 << 20)
    }

    /// Scan with an explicit buffer capacity — exposed so the property
    /// tests can force every possible chunk split.
    pub fn scan_with_buffer(
        source: R,
        policy: &ReadPolicy,
        criteria: &SampleCriteria,
        buffer: usize,
    ) -> Result<StreamedTrace<R>, TraceError> {
        let threads = dagscope_par::parallelism();
        Self::scan_parsed_by(source, policy, criteria, buffer, threads, ParseBy::Demand)
    }

    /// [`StreamedTrace::scan_with_buffer`] on `threads` threads, the
    /// split batches parsed `by` the given thread. A test seam, not part
    /// of the API.
    #[doc(hidden)]
    pub fn scan_parsed_by(
        source: R,
        policy: &ReadPolicy,
        criteria: &SampleCriteria,
        buffer: usize,
        threads: usize,
        by: ParseBy,
    ) -> Result<StreamedTrace<R>, TraceError> {
        Self::scan_batched(source, policy, criteria, buffer, BATCH_LINES, threads, by)
    }

    /// [`StreamedTrace::scan_parsed_by`] in batches of `batch_lines`
    /// lines.
    fn scan_batched(
        mut source: R,
        policy: &ReadPolicy,
        criteria: &SampleCriteria,
        buffer: usize,
        batch_lines: usize,
        threads: usize,
        by: ParseBy,
    ) -> Result<StreamedTrace<R>, TraceError> {
        let mut state = ScanState::new(policy, criteria);
        scan_rows(&mut source, &mut state, buffer, batch_lines, threads, by)?;
        state.finalize(&mut source)?;
        Ok(StreamedTrace { source, state })
    }
}

impl<R: Read + Seek> StreamedTrace<R> {
    /// Trace-level statistics over surviving jobs — bit-identical to
    /// [`TraceStats::compute`] on the batch-ingested [`JobSet`].
    pub fn stats(&self) -> TraceStats {
        self.state.acc.finish()
    }

    /// What the forward scan's read and fold stages did.
    pub fn scan_counters(&self) -> ScanCounters {
        self.state.counters
    }

    /// Quarantine accounting for the scan.
    pub fn quarantine(&self) -> &Quarantine {
        &self.state.quarantine
    }

    /// Jobs implicated by quarantined rows (dropped from every result).
    pub fn suspects(&self) -> &BTreeSet<String> {
        &self.state.suspects
    }

    /// Surviving (non-suspect) jobs.
    pub fn job_count(&self) -> usize {
        self.state.names.len() - self.state.dead
    }

    /// Eligible jobs (alive + integrity + availability).
    pub fn eligible_count(&self) -> usize {
        self.state.eligible.len()
    }

    /// Size column of the eligible population in name order — the input to
    /// [`crate::filter::stratified_sample_indices`], positionally aligned
    /// with what [`SampleCriteria::filter`] returns on the batch path.
    pub fn eligible_sizes(&self) -> Vec<usize> {
        self.state
            .eligible
            .iter()
            .map(|&i| self.state.size[i as usize] as usize)
            .collect()
    }

    /// Stratified sample positions over the eligible population, drawn
    /// straight from the size column — no job is materialized and no
    /// usize copy of the column is built. Bit-identical to
    /// [`crate::filter::stratified_sample`] over the batch path's
    /// materialized jobs.
    pub fn sample_eligible(&self, n: usize, seed: u64) -> Vec<usize> {
        crate::filter::stratified_sample_indices_from(
            self.state
                .eligible
                .iter()
                .map(|&i| self.state.size[i as usize] as usize),
            n,
            seed,
        )
    }

    /// Replay the eligible jobs at positions `picked` (positions as in
    /// [`StreamedTrace::eligible_sizes`]) into one flat row table: slot `s`
    /// holds the name, task names, attributes and earliest start of job
    /// `picked[s]`, its rows in document order, straggler extras after
    /// the primary rows, with no [`Job`] or [`crate::TaskRecord`] made.
    /// The ranges are read in file order, the reads of neighbouring ranges
    /// merged.
    pub fn replay_sample(&mut self, picked: &[usize]) -> Result<SampleRows, TraceError> {
        self.replay_sample_with_window(picked, REPLAY_WINDOW)
    }

    /// [`StreamedTrace::replay_sample`] with an explicit read window —
    /// exposed so the property tests can force a read per range.
    pub fn replay_sample_with_window(
        &mut self,
        picked: &[usize],
        window: usize,
    ) -> Result<SampleRows, TraceError> {
        self.state.replay_sample(&mut self.source, picked, window)
    }

    /// Total source bytes consumed by the scan.
    pub fn raw_bytes(&self) -> u64 {
        self.state.raw_bytes
    }

    /// Approximate heap footprint of the per-job metadata columns — the
    /// part of the engine that scales with job count.
    pub fn metadata_bytes(&self) -> usize {
        self.state.names.heap_bytes()
            + self.state.byte_start.capacity() * 8
            + self.state.byte_len.capacity() * 4
            + self.state.size.capacity() * 4
            + self.state.flags.capacity()
            + self.state.eligible.capacity() * 4
    }

    /// Replay the eligible jobs at positions `0..n` (every eligible job when
    /// `n` is larger) as row tables of at most [`REPLAY_CHUNK`] jobs, in
    /// position order: each table is [`StreamedTrace::replay_sample`] of
    /// the next run of positions. A caller that drops each table before
    /// taking the next holds one at a time, however large the population.
    pub fn replay_eligible(
        &mut self,
        n: usize,
    ) -> impl Iterator<Item = Result<SampleRows, TraceError>> + '_ {
        self.replay_eligible_in(n, REPLAY_CHUNK)
    }

    /// [`StreamedTrace::replay_eligible`] in tables of at most `chunk`
    /// jobs.
    fn replay_eligible_in(
        &mut self,
        n: usize,
        chunk: usize,
    ) -> impl Iterator<Item = Result<SampleRows, TraceError>> + '_ {
        let n = n.min(self.eligible_count());
        (0..n).step_by(chunk).map(move |first| {
            let picked: Vec<usize> = (first..n.min(first + chunk)).collect();
            self.replay_sample(&picked)
        })
    }

    /// Materialize every surviving job — the tests' bridge to the batch
    /// reader, not a memory-bounded path. Equals [`JobSet::from_tasks`]
    /// over the batch rows with suspect jobs dropped.
    pub fn materialize_all(&mut self) -> Result<JobSet, TraceError> {
        let state = &self.state;
        let mut reader = RangeReader::new(REPLAY_WINDOW);
        let mut interner = crate::Interner::new();
        let mut jobs = Vec::with_capacity(self.job_count());
        for idx in 0..state.flags.len() as u32 {
            if state.flags[idx as usize] & DEAD == 0 {
                let name = state.name_string(idx);
                let job_name = IStr::from(name.as_str());
                let mut tasks = Vec::new();
                state.replay_job(&mut self.source, &mut reader, idx, true, |p| {
                    tasks.push(p.record_of(job_name.clone(), &mut interner));
                    Ok(())
                })?;
                jobs.push(Job { name, tasks });
            }
        }
        Ok(JobSet::from_jobs(jobs))
    }
}

/// The trace attributes of one replayed row that its DAG node keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowAttrs {
    /// Number of instances launched for the task.
    pub instance_num: u32,
    /// [`crate::TaskRecord::duration`], 0 when unavailable.
    pub duration: i64,
    /// Requested CPU, percent of one core.
    pub plan_cpu: f64,
    /// Requested memory, normalized units.
    pub plan_mem: f64,
}

/// One row of a [`SampleRows`] table: where its task name ends in the
/// table's name string (it starts where the previous row's ends), then
/// its [`RowAttrs`] — one record, so a job's rows are one run of memory.
#[derive(Debug, Clone, Copy)]
struct Row {
    name_end: u32,
    instance_num: u32,
    duration: i64,
    plan_cpu: f64,
    plan_mem: f64,
}

/// Rows in one flat layout: row `r`'s task name is
/// `task_names[rows[r - 1].name_end..rows[r].name_end]` (from 0 for the
/// first row).
#[derive(Debug)]
struct Rows {
    task_names: String,
    rows: Vec<Row>,
}

impl Rows {
    fn with_capacity(rows: usize) -> Rows {
        Rows {
            task_names: String::new(),
            rows: Vec::with_capacity(rows),
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Where row `r`'s task name starts.
    fn name_start(&self, r: usize) -> u32 {
        r.checked_sub(1).map_or(0, |prev| self.rows[prev].name_end)
    }

    /// The offset ending a row's task name.
    fn name_end(&self) -> Result<u32, TraceError> {
        u32::try_from(self.task_names.len()).map_err(|_| {
            TraceError::Invalid("the sampled jobs' task names exceed 4 GiB".to_string())
        })
    }

    fn push(&mut self, p: &TaskParts<'_>) -> Result<(), TraceError> {
        self.task_names.push_str(p.task_name);
        self.rows.push(Row {
            name_end: self.name_end()?,
            instance_num: p.instance_num,
            duration: task_duration(p.start_time, p.end_time).unwrap_or(0),
            plan_cpu: p.plan_cpu,
            plan_mem: p.plan_mem,
        });
        Ok(())
    }

    /// Append a copy of `rows`.
    fn copy_within(&mut self, rows: Range<usize>) -> Result<(), TraceError> {
        for r in rows {
            let name = self.name_start(r) as usize..self.rows[r].name_end as usize;
            self.task_names.extend_from_within(name);
            self.rows.push(Row {
                name_end: self.name_end()?,
                ..self.rows[r]
            });
        }
        Ok(())
    }
}

/// The rows of a replayed sample ([`StreamedTrace::replay_sample`]) in one
/// flat table: every row's task name in one string and one record per row,
/// each sample slot a run of rows and a job name.
#[derive(Debug)]
pub struct SampleRows {
    names: Vec<String>,
    jobs: Vec<Range<usize>>,
    /// Each slot's earliest positive start time, `i64::MAX` when it has
    /// none.
    starts: Vec<i64>,
    rows: Rows,
}

impl SampleRows {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The job name of each slot.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The job in slot `s`.
    #[inline]
    pub fn job(&self, s: usize) -> SampleJob<'_> {
        let rows = self.jobs[s].clone();
        SampleJob {
            name: &self.names[s],
            start: self.starts[s],
            task_names: &self.rows.task_names,
            name_start: self.rows.name_start(rows.start),
            rows: &self.rows.rows[rows],
        }
    }

    /// The job names, the rows freed.
    pub fn into_names(self) -> Vec<String> {
        self.names
    }
}

/// One slot of a [`SampleRows`]: a job's rows in document order.
#[derive(Debug, Clone, Copy)]
pub struct SampleJob<'a> {
    name: &'a str,
    start: i64,
    task_names: &'a str,
    /// Where the first row's task name starts.
    name_start: u32,
    rows: &'a [Row],
}

impl<'a> SampleJob<'a> {
    /// The job's name.
    #[inline]
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Earliest positive start time of the job's rows, if any —
    /// [`Job::start_time`].
    pub fn start_time(&self) -> Option<i64> {
        (self.start != i64::MAX).then_some(self.start)
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the job has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total bytes of the task names.
    #[inline]
    pub fn name_bytes(&self) -> usize {
        self.rows
            .last()
            .map_or(0, |row| row.name_end - self.name_start) as usize
    }

    /// Task name of row `r`.
    #[inline]
    pub fn task_name(&self, r: usize) -> &'a str {
        let start = r
            .checked_sub(1)
            .map_or(self.name_start, |prev| self.rows[prev].name_end);
        &self.task_names[start as usize..self.rows[r].name_end as usize]
    }

    /// Attributes of row `r`.
    #[inline]
    pub fn attrs(&self, r: usize) -> RowAttrs {
        let row = &self.rows[r];
        RowAttrs {
            instance_num: row.instance_num,
            duration: row.duration,
            plan_cpu: row.plan_cpu,
            plan_mem: row.plan_mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const L1: &str = "M1,2,j_1000001,1,Terminated,100,200,100,0.5";
    const L2: &str = "R2_1,2,j_1000001,1,Terminated,200,300,100,0.5";
    const L3: &str = "M1,1,j_1000002,1,Terminated,150,250,50,0.25";

    fn scan_str(doc: &str) -> StreamedTrace<Cursor<Vec<u8>>> {
        StreamedTrace::scan(
            Cursor::new(doc.as_bytes().to_vec()),
            &ReadPolicy::Strict,
            &SampleCriteria::default(),
        )
        .unwrap()
    }

    /// A generated trace of `jobs` jobs as CSV lines.
    fn generated_lines(jobs: usize, seed: u64) -> Vec<String> {
        let trace = crate::gen::TraceGenerator::new(crate::gen::GeneratorConfig {
            jobs,
            seed,
            emit_instances: false,
            ..Default::default()
        })
        .generate();
        let mut doc = Vec::new();
        csv::write_tasks(&mut doc, &trace.tasks).unwrap();
        String::from_utf8(doc)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// What a scan leaves, for comparing two scans of one document.
    type ScanView = (String, Quarantine, BTreeSet<String>, JobSet, Vec<String>);

    fn view_of<R: Read + Seek>(t: &mut StreamedTrace<R>) -> ScanView {
        let eligible = t
            .replay_eligible(usize::MAX)
            .flat_map(|table| table.unwrap().into_names())
            .collect();
        (
            format!("{:?}", t.stats()),
            t.quarantine().clone(),
            t.suspects().clone(),
            t.materialize_all().unwrap(),
            eligible,
        )
    }

    /// Every way the stages may run: alternating on one thread, then on
    /// two with the batches parsed on demand, by the reader alone and by
    /// the fold alone.
    const RUNS: [(usize, ParseBy); 4] = [
        (1, ParseBy::Demand),
        (2, ParseBy::Demand),
        (2, ParseBy::Reader),
        (2, ParseBy::Fold),
    ];

    /// Scan `doc` every way the stages may run, in batches of every size
    /// in `batch_sizes` and with read buffers of every size in `buffers`:
    /// each scan must leave what the one-thread scan in default batches
    /// leaves, or fail with its error, and that must be the batch read
    /// with every suspect's rows dropped, or its error.
    fn assert_every_run_agrees(
        doc: &[u8],
        policy: &ReadPolicy,
        batch_sizes: &[usize],
        buffers: &[usize],
    ) {
        let scan = |buffer, batch_lines, (threads, by)| {
            StreamedTrace::scan_batched(
                Cursor::new(doc),
                policy,
                &SampleCriteria::default(),
                buffer,
                batch_lines,
                threads,
                by,
            )
            .map(|mut t| (view_of(&mut t), t.scan_counters()))
        };
        let want = scan(1 << 20, BATCH_LINES, RUNS[0]);
        match (&want, csv::read_tasks_with_policy(doc, policy)) {
            (Ok((view, _)), Ok((rows, q))) => {
                let suspects = q.suspect_jobs();
                let set = JobSet::from_tasks(
                    rows.into_iter()
                        .filter(|t| !suspects.contains_key(t.job_name.as_str())),
                );
                assert_eq!(view.0, format!("{:?}", TraceStats::compute(&set)));
                assert_eq!((&view.1, &view.3), (&q, &set), "{policy:?}");
            }
            (Err(got), Err(batch)) => assert_eq!(got, &batch, "{policy:?}"),
            _ => panic!("{policy:?}: the scan and the batch read disagree on failing"),
        }
        let lines = scan::lines(doc).count();
        for run in RUNS {
            for &batch_lines in batch_sizes {
                for &buffer in buffers {
                    let got = scan(buffer, batch_lines, run);
                    let at = (run, batch_lines, buffer, policy);
                    match (&got, &want) {
                        (Ok((got, counters)), Ok((want, _))) => {
                            assert_eq!(got, want, "{at:?}");
                            assert_eq!(counters.batches as usize, lines / batch_lines + 1);
                            let threaded = run.0 == 2 && buffer < doc.len();
                            assert_eq!(counters.threaded, threaded, "{at:?}");
                            let parsed = [counters.reader_parsed, counters.fold_parsed];
                            match (threaded, run.1) {
                                (false, _) => assert_eq!(parsed, [0, 0]),
                                (true, ParseBy::Reader) => assert_eq!(parsed[1], 0),
                                (true, ParseBy::Fold) => assert_eq!(parsed[0], 0),
                                (true, ParseBy::Demand) => {}
                            }
                            if threaded {
                                assert_eq!(parsed[0] + parsed[1], counters.batches, "{at:?}");
                            }
                        }
                        (Err(got), Err(want)) => assert_eq!(got, want, "{at:?}"),
                        _ => panic!("{at:?}: one scan failed, the other did not"),
                    }
                }
            }
        }
    }

    /// Policies whose budgets hold, run out, or are none at all.
    fn policies() -> [ReadPolicy; 4] {
        [
            ReadPolicy::Quarantine {
                max_bad: usize::MAX,
            },
            ReadPolicy::Quarantine { max_bad: 20 },
            ReadPolicy::Quarantine { max_bad: 1 },
            ReadPolicy::Strict,
        ]
    }

    #[test]
    fn two_stages_agree_at_every_batch_size_and_thread_count() {
        // Blank lines, out-of-order stragglers and bad rows that name
        // their job (under a budget that holds, ones that run out, and
        // the strict policy), cut into batches of every small size and
        // of the default size, with the stages alternating on one thread
        // and overlapping on two, each thread parsing.
        let (mut lines, mut tail) = (Vec::new(), Vec::new());
        for (i, line) in generated_lines(300, 9).into_iter().enumerate() {
            if i % 23 == 5 {
                tail.push(line);
                continue;
            }
            if i % 31 == 7 {
                let job = line.split(',').nth(2).unwrap();
                lines.push(format!("M1,x,{job},1,Terminated,1,2,3,4"));
            }
            if i % 17 == 3 {
                lines.push(String::new());
            }
            lines.push(line);
        }
        lines.append(&mut tail);
        let doc = lines.join("\n");
        for policy in policies() {
            let sizes = [1, 2, 3, 7, 64, BATCH_LINES];
            assert_every_run_agrees(doc.as_bytes(), &policy, &sizes, &[64, 1 << 20]);
        }
    }

    #[test]
    fn every_kind_of_row_may_open_a_batch() {
        // Each row below opens a batch at some batch size: a row that
        // continues the open job, a suspect's row, a straggler's
        // re-appearance and its continuation, bad rows with and without a
        // job name, and a blank line. The first row of a batch is parsed
        // as if no row came before it; the fold's slow path must place it
        // as the continuous scan does.
        let row = |task: &str, job: u32| format!("{task},1,j_{job},1,Terminated,100,200,100,0.5");
        let lines = [
            row("M1", 1),
            row("R2_1", 1),
            row("M1", 2),
            "M1,x,j_2,1,Terminated,1,2,3,4".to_string(),
            row("R2_1", 2),
            row("R3_2", 2),
            row("M1", 3),
            row("R3_1", 1),
            row("R4_3", 1),
            String::new(),
            "not,a,row".to_string(),
            row("M1", 4),
            row("R2_1", 4),
            "R3_2,y,j_4,1,Terminated,1,2,3,4".to_string(),
            row("R5_4", 1),
            row("M1", 5),
        ];
        let doc = lines.join("\n") + "\n";
        let sizes: Vec<usize> = (1..=lines.len() + 1).collect();
        for policy in policies() {
            assert_every_run_agrees(doc.as_bytes(), &policy, &sizes, &[16, 64, 1 << 20]);
        }
    }

    #[test]
    fn a_crlf_may_straddle_a_refill() {
        // `\r\n` line ends, a bare `\r` inside a line and one ending the
        // unterminated last line: at every read-buffer size over a few
        // lines' length, some `\r` is the last byte of a fill and its
        // `\n` comes with the next. The split hands on each line's bytes
        // as read, and the parse strips what `BufLines` strips.
        let mut lines = generated_lines(12, 4);
        lines[3].push('\r');
        lines.push("M1,1,j_9,1,Terminated,100,200,100,0.5\r".to_string());
        let doc = lines.join("\r\n");
        let buffers: Vec<usize> = (16..=3 * lines[0].len()).collect();
        for policy in [ReadPolicy::Quarantine { max_bad: 8 }, ReadPolicy::Strict] {
            assert_every_run_agrees(doc.as_bytes(), &policy, &[1, 5, BATCH_LINES], &buffers);
        }
    }

    /// Run `scan` on a thread of its own, failing the test if it hangs.
    fn within_a_minute<T: Send + 'static>(scan: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(scan()).unwrap());
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the scan hung")
    }

    #[test]
    fn strict_error_in_the_first_batch_joins_the_reader() {
        // A bad row on line 2 of a trace many batches long: the fold fails
        // on the first batch while the reader is batches ahead. The scan
        // must return the row's error, not hang on the stopped fold.
        let mut lines = generated_lines(8000, 3);
        lines.insert(1, "not,a,row".to_string());
        assert!(lines.len() > 5 * BATCH_LINES);
        let doc = lines.join("\n").into_bytes();
        let want = csv::read_tasks(&doc[..]).unwrap_err();
        for (_, by) in RUNS {
            let doc = doc.clone();
            let got = within_a_minute(move || {
                StreamedTrace::scan_batched(
                    Cursor::new(doc),
                    &ReadPolicy::Strict,
                    &SampleCriteria::default(),
                    4096,
                    BATCH_LINES,
                    2,
                    by,
                )
                .err()
            });
            assert_eq!(got.as_ref(), Some(&want), "{by:?}");
        }
    }

    /// A source whose reads fail, or panic, once `limit` bytes have been
    /// read.
    struct GivesOut {
        inner: Cursor<Vec<u8>>,
        limit: u64,
        panics: bool,
    }

    impl GivesOut {
        fn halfway(doc: Vec<u8>, panics: bool) -> GivesOut {
            GivesOut {
                limit: doc.len() as u64 / 2,
                inner: Cursor::new(doc),
                panics,
            }
        }
    }

    impl Read for GivesOut {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.inner.position() >= self.limit {
                assert!(!self.panics, "source gave out");
                return Err(std::io::Error::other("source gave out"));
            }
            self.inner.read(buf)
        }
    }

    impl Seek for GivesOut {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn a_read_error_midway_joins_the_reader() {
        let doc = generated_lines(4000, 4).join("\n").into_bytes();
        for (threads, by) in RUNS {
            let source = GivesOut::halfway(doc.clone(), false);
            let got = within_a_minute(move || {
                let (policy, criteria) = (ReadPolicy::Strict, SampleCriteria::default());
                StreamedTrace::scan_batched(source, &policy, &criteria, 4096, 64, threads, by).err()
            });
            assert_eq!(got, Some(TraceError::Io("source gave out".to_string())));
        }
    }

    #[test]
    fn a_reader_thread_panic_reaches_the_caller() {
        let doc = generated_lines(2000, 4).join("\n").into_bytes();
        for (_, by) in RUNS {
            let source = GivesOut::halfway(doc.clone(), true);
            let panic = within_a_minute(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let (policy, criteria) = (ReadPolicy::Strict, SampleCriteria::default());
                    StreamedTrace::scan_batched(source, &policy, &criteria, 4096, 64, 2, by).is_ok()
                }))
                .expect_err("the reader's panic must reach the caller")
            });
            assert_eq!(
                panic.downcast_ref::<&str>(),
                Some(&"source gave out"),
                "{by:?}"
            );
        }
    }

    thread_local! {
        /// The fold batch at which [`fold_hook`] panics on this thread.
        static FOLD_PANIC_AT: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
    }

    /// Called by the fold thread before it folds each batch.
    pub(super) fn fold_hook(batch: u64) {
        if FOLD_PANIC_AT.get() == Some(batch) {
            panic!("fold gave out");
        }
    }

    #[test]
    fn a_fold_thread_panic_stops_the_reader() {
        // The fold thread panics at its first batch, while the reader
        // waits for a free batch, and at its tenth, while it splits: the
        // panic must reach the caller, not leave the reader waiting.
        let doc = generated_lines(4000, 4).join("\n").into_bytes();
        for at in [0, 9] {
            for (_, by) in RUNS {
                let doc = doc.clone();
                let panic = within_a_minute(move || {
                    FOLD_PANIC_AT.set(Some(at));
                    std::panic::catch_unwind(|| {
                        let (policy, criteria) = (ReadPolicy::Strict, SampleCriteria::default());
                        let source = Cursor::new(doc);
                        StreamedTrace::scan_batched(source, &policy, &criteria, 4096, 64, 2, by)
                            .is_ok()
                    })
                    .expect_err("the fold's panic must reach the caller")
                });
                assert_eq!(
                    panic.downcast_ref::<&str>(),
                    Some(&"fold gave out"),
                    "{by:?}"
                );
            }
        }
    }

    #[test]
    fn eligible_order_is_byte_order_over_ids_of_every_width() {
        // The generator's ids are all seven digits; renamed `j_1 …
        // j_10000` in file order, numeric and byte order disagree at every
        // width.
        let mut names = HashMap::new();
        let doc: String = generated_lines(10_000, 11)
            .iter()
            .map(|line| {
                let mut fields: Vec<&str> = line.split(',').collect();
                let next = names.len() + 1;
                let id = *names.entry(fields[2].to_string()).or_insert(next);
                let name = format!("j_{id}");
                fields[2] = &name;
                fields.join(",") + "\n"
            })
            .collect();
        let mut t = scan_str(&doc);
        assert_eq!(t.job_count(), 10_000);
        let got: Vec<String> = t
            .replay_eligible(usize::MAX)
            .flat_map(|table| table.unwrap().into_names())
            .collect();
        let batch = JobSet::from_tasks(csv::read_tasks(doc.as_bytes()).unwrap());
        let mut want: Vec<String> = SampleCriteria::default()
            .filter(&batch)
            .iter()
            .map(|j| j.name.clone())
            .collect();
        want.sort_unstable_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
        assert!(want.len() > 1000);
        assert_eq!(got, want);
    }

    #[test]
    fn name_index_fingerprint_and_wide_modes_agree() {
        // Drive a tiny-capped index through the fingerprint→wide rebuild
        // and check probes answer identically in both modes. Keys are the
        // hashes of their indices so `grow`'s `hash_of` can be a closure
        // over the same array the inserts used.
        let hashes: Vec<u64> = (0..64u64).map(splitmix64).collect();
        let mut fp_idx = NameIndex::with_fp_cap(16);
        let mut wide_idx = NameIndex::with_fp_cap(0);
        assert!(fp_idx.fp);
        for (i, &h) in hashes.iter().enumerate() {
            for index in [&mut fp_idx, &mut wide_idx] {
                if index.needs_grow() {
                    index.grow(|idx| hashes[idx as usize]);
                }
                match index.probe(h, |idx| hashes[idx as usize] == h) {
                    Ok(found) => panic!("fresh key {i} already present as {found}"),
                    Err(slot) => index.insert_at(slot, h, i as u32),
                }
            }
        }
        // 64 inserts crossed the fingerprint cap of 16: the first table
        // must have rebuilt into wide mode; the second never left it.
        assert!(!fp_idx.fp);
        assert!(!wide_idx.fp);
        for (i, &h) in hashes.iter().enumerate() {
            for index in [&fp_idx, &wide_idx] {
                assert_eq!(
                    index.lookup(h, |idx| hashes[idx as usize] == h),
                    Some(i as u32)
                );
            }
        }
        assert_eq!(fp_idx.lookup(splitmix64(999), |_| false), None);
    }

    #[test]
    fn name_index_fingerprint_survives_collisions() {
        // Two keys that land on the same slot *and* share the same top-8
        // fingerprint bits must still resolve through the eq callback.
        let a: u64 = 0x7f00_0000_0000_0000;
        let b: u64 = 0x7f00_0000_0000_0000 | 0x0001_0000; // same slot mod 65536, same fp
        let keys = [a, b];
        let mut index = NameIndex::new();
        for (i, &h) in keys.iter().enumerate() {
            match index.probe(h, |idx| keys[idx as usize] == h) {
                Ok(_) => panic!("fresh key already present"),
                Err(slot) => index.insert_at(slot, h, i as u32),
            }
        }
        assert_eq!(index.lookup(a, |idx| keys[idx as usize] == a), Some(0));
        assert_eq!(index.lookup(b, |idx| keys[idx as usize] == b), Some(1));
    }

    #[test]
    fn name_encoding_round_trips() {
        assert_eq!(encode_name("j_0"), Some(0));
        assert_eq!(encode_name("j_1000001"), Some(1_000_001));
        assert_eq!(encode_name("j_01"), None, "leading zero must stay textual");
        assert_eq!(encode_name("j_"), None);
        assert_eq!(encode_name("job_7"), None);
        assert_eq!(encode_name("j_12x"), None);
        assert_eq!(encode_name("j_99999999999999999999999"), None);
    }

    #[test]
    fn wide_numeric_names_route_through_the_big_table() {
        // u32::MAX - 1 collides with the BIG_NAME sentinel and u32::MAX
        // with ODD_NAME; both must survive the u32 column via the side
        // table, as must a genuinely 64-bit id. The straggler row for the
        // first job exercises index lookup through the same path.
        let names = [
            format!("j_{}", u32::MAX - 1),
            format!("j_{}", u32::MAX),
            format!("j_{}", u64::MAX - 1),
            "j_7".to_string(),
        ];
        let mut doc = String::new();
        for n in &names {
            doc.push_str(&format!("M1,2,{n},1,Terminated,100,200,100,0.5\n"));
        }
        doc.push_str(&format!(
            "R2_1,2,{},1,Terminated,200,300,100,0.5\n",
            names[0]
        ));
        let mut t = scan_str(&doc);
        assert_eq!(t.job_count(), 4);
        let set = t.materialize_all().unwrap();
        for n in &names {
            assert!(set.get(n).is_some(), "job {n} lost");
        }
        assert_eq!(set.get(&names[0]).unwrap().tasks.len(), 2);
    }

    #[test]
    fn eligible_order_is_byte_order_of_names() {
        // Ids of every length, so numeric and byte order disagree; names
        // past u32 (the big-name table, the sentinels, 19 digits) and odd
        // names (leading zeros, 20 digits, other prefixes) interleave.
        let names = [
            "j_10".to_string(),
            "j_9".to_string(),
            "j_100".to_string(),
            "j_1".to_string(),
            "j_0".to_string(),
            "j_007".to_string(),
            "j_19".to_string(),
            "j_2".to_string(),
            format!("j_{}", u64::from(u32::MAX) + 1),
            format!("j_{}", u32::MAX),
            format!("j_{}", u32::MAX - 1),
            "j_4294967".to_string(),
            "j_9999999999999999999".to_string(),
            "j_10000000000000000000".to_string(),
            format!("j_{}", u64::MAX),
            "j_".to_string(),
            "j_1x".to_string(),
            "job_5".to_string(),
            "J_3".to_string(),
            "j_99z".to_string(),
        ];
        let mut doc = String::new();
        for n in &names {
            doc.push_str(&format!("M1,2,{n},1,Terminated,100,200,100,0.5\n"));
        }
        let mut t = scan_str(&doc);
        assert_eq!(t.eligible_count(), names.len());
        let got = t.replay_eligible(usize::MAX).next().unwrap().unwrap();
        let got = got.into_names();
        let mut want = names.to_vec();
        want.sort_unstable_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
        assert_eq!(got, want);
    }

    #[test]
    fn contiguous_jobs_group_and_fold() {
        let mut t = scan_str(&format!("{L1}\n{L2}\n{L3}\n"));
        assert_eq!(t.job_count(), 2);
        assert_eq!(t.eligible_count(), 2);
        assert_eq!(t.eligible_sizes(), vec![2, 1]);
        let set = t.materialize_all().unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.jobs()[0].name, "j_1000001");
        assert_eq!(set.jobs()[0].size(), 2);
        let stats = t.stats();
        assert_eq!(stats.total_jobs, 2);
        assert_eq!(stats.dag_jobs, 2);
    }

    #[test]
    fn straggler_rows_merge_into_their_job() {
        // j_1000001 closes, j_1000002 interrupts, then a straggler row for
        // j_1000001 arrives out of order.
        let straggler = "R3_1,1,j_1000001,1,Terminated,300,400,100,0.5";
        let mut t = scan_str(&format!("{L1}\n{L2}\n{L3}\n{straggler}\n"));
        assert_eq!(t.job_count(), 2);
        let set = t.materialize_all().unwrap();
        let j = set.get("j_1000001").unwrap();
        assert_eq!(j.size(), 3);
        assert_eq!(j.tasks[2].task_name, "R3_1");
        assert_eq!(t.stats().size_histogram.get(&3), Some(&1));
    }

    #[test]
    fn scan_matches_batch_grouping_on_generated_trace() {
        let trace = crate::gen::TraceGenerator::new(crate::gen::GeneratorConfig {
            jobs: 200,
            seed: 5,
            ..Default::default()
        })
        .generate();
        let mut doc = Vec::new();
        csv::write_tasks(&mut doc, &trace.tasks).unwrap();
        let batch_set = JobSet::from_tasks(csv::read_tasks(&doc[..]).unwrap());
        let batch_stats = TraceStats::compute(&batch_set);
        let mut t = StreamedTrace::scan(
            Cursor::new(doc),
            &ReadPolicy::Strict,
            &SampleCriteria::default(),
        )
        .unwrap();
        assert_eq!(t.stats(), batch_stats);
        assert_eq!(t.materialize_all().unwrap(), batch_set);
        // The eligible population matches the batch filter in name order.
        let criteria = SampleCriteria::default();
        let batch_eligible: Vec<usize> = criteria
            .filter(&batch_set)
            .iter()
            .map(|j| j.size())
            .collect();
        assert_eq!(t.eligible_sizes(), batch_eligible);
    }

    #[test]
    fn eligible_replay_is_the_sample_replay_of_every_position() {
        // Tables of three positions, in position order, hold what one
        // table of every position holds, straggler rows and earliest
        // starts included; a cap stops at its position.
        let mut doc = String::new();
        for i in 0..8 {
            let name = format!("j_{}", 1_000_001 + i);
            doc.push_str(&format!(
                "M1,1,{name},1,Terminated,{},300,100,0.5\n",
                150 - i
            ));
            doc.push_str(&format!("R2_1,1,{name},1,Terminated,200,300,100,0.5\n"));
        }
        doc.push_str("R3_2,1,j_1000003,1,Terminated,90,300,100,0.5\n");
        let mut t = scan_str(&doc);
        assert_eq!(t.eligible_count(), 8);
        let all: Vec<usize> = (0..8).collect();
        let whole = t.replay_sample(&all).unwrap();
        let view = |rows: &SampleRows, s: usize| {
            let job = rows.job(s);
            let tasks: Vec<_> = (0..job.len())
                .map(|r| (job.task_name(r).to_string(), job.attrs(r)))
                .collect();
            (job.name().to_string(), job.start_time(), tasks)
        };
        let want: Vec<_> = (0..8).map(|s| view(&whole, s)).collect();
        assert_eq!(want[2].1, Some(90), "the straggler row starts first");
        assert_eq!((want[2].2.len(), want[5].1), (3, Some(145)));
        for (n, tables) in [(usize::MAX, 3), (8, 3), (7, 3), (6, 2), (1, 1), (0, 0)] {
            let chunks: Vec<SampleRows> = t
                .replay_eligible_in(n, 3)
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(chunks.len(), tables, "cap {n}");
            assert!(chunks.iter().all(|c| c.len() <= 3));
            let got: Vec<_> = chunks
                .iter()
                .flat_map(|c| (0..c.len()).map(move |s| view(c, s)))
                .collect();
            assert_eq!(got, want[..n.min(8)], "cap {n}");
        }
    }

    /// A source that counts its seeks and the bytes read from it.
    struct Counted {
        inner: Cursor<Vec<u8>>,
        seeks: usize,
        bytes: usize,
    }

    impl Read for Counted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.bytes += n;
            Ok(n)
        }
    }

    impl Seek for Counted {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.seeks += 1;
            self.inner.seek(pos)
        }
    }

    #[test]
    fn sample_replay_reads_each_window_once() {
        // Nine one-row jobs of one line length each, in name order. A read
        // covers its range and every later picked range that ends within
        // the window of its start: floor(window / line) ranges, at least
        // one. Slots come back in pick order, not file order.
        let doc: String = (0..9)
            .map(|i| format!("M1,1,j_{},1,Terminated,100,200,100,0.5\n", 1_000_001 + i))
            .collect();
        let line = doc.len() / 9;
        let source = Counted {
            inner: Cursor::new(doc.clone().into_bytes()),
            seeks: 0,
            bytes: 0,
        };
        let mut t =
            StreamedTrace::scan(source, &ReadPolicy::Strict, &SampleCriteria::default()).unwrap();
        let picked = [4, 0, 8, 2, 7, 1, 3, 6, 5];
        for (window, reads) in [
            (0, 9),
            (line - 1, 9),
            (line, 9),
            (2 * line, 5),
            (3 * line - 1, 5),
            (3 * line, 3),
            (4 * line - 1, 3),
            (9 * line, 1),
            (REPLAY_WINDOW, 1),
        ] {
            t.source.seeks = 0;
            t.source.bytes = 0;
            let rows = t.replay_sample_with_window(&picked, window).unwrap();
            assert_eq!(t.source.seeks, reads, "window {window}");
            assert_eq!(t.source.bytes, doc.len(), "window {window}");
            for (s, &pos) in picked.iter().enumerate() {
                let job = rows.job(s);
                assert_eq!(job.name(), format!("j_{}", 1_000_001 + pos));
                assert_eq!((job.len(), job.task_name(0)), (1, "M1"));
                assert_eq!(job.attrs(0).duration, 100);
            }
        }
        // A straggler row joins its job's slot after the primary rows.
        let straggler = "R2_1,3,j_1000003,1,Terminated,200,250,100,0.5\n";
        let mut t = scan_str(&format!("{doc}{straggler}"));
        let rows = t.replay_sample_with_window(&picked, line).unwrap();
        let job = rows.job(3);
        assert_eq!(job.name(), "j_1000003");
        assert_eq!((job.task_name(0), job.task_name(1)), ("M1", "R2_1"));
        assert_eq!((job.attrs(1).instance_num, job.attrs(1).duration), (3, 50));
        assert_eq!(rows.job(2).name(), "j_1000009");
    }

    #[test]
    fn strict_mode_aborts_like_the_batch_reader() {
        let doc = format!("{L1}\nnot,a,row\n");
        let err = StreamedTrace::scan(
            Cursor::new(doc.clone().into_bytes()),
            &ReadPolicy::Strict,
            &SampleCriteria::default(),
        )
        .err()
        .expect("strict scan must abort");
        let batch_err = csv::read_tasks(doc.as_bytes()).unwrap_err();
        assert_eq!(err, batch_err);
    }

    #[test]
    fn quarantined_row_kills_its_job() {
        // The bad row names j_1000001 → the job is a suspect and must
        // vanish, exactly like the batch CLI stripping suspect rows before
        // grouping.
        let bad = "M9,x,j_1000001,1,Terminated,1,2,3,4";
        let policy = ReadPolicy::Quarantine { max_bad: 8 };
        let mut t = StreamedTrace::scan(
            Cursor::new(format!("{L1}\n{L2}\n{bad}\n{L3}\n").into_bytes()),
            &policy,
            &SampleCriteria::default(),
        )
        .unwrap();
        assert_eq!(t.quarantine().rows_quarantined(), 1);
        assert_eq!(t.job_count(), 1);
        assert_eq!(t.suspects().iter().collect::<Vec<_>>(), vec!["j_1000001"]);
        let set = t.materialize_all().unwrap();
        assert!(set.get("j_1000001").is_none());
        assert_eq!(t.stats().total_jobs, 1);
        let q = t.quarantine();
        assert_eq!(q.rows_good + q.rows_quarantined(), q.rows_total);
    }

    #[test]
    fn name_index_survives_growth_with_odd_names() {
        let mut doc = String::new();
        for i in 0..500 {
            let name = if i % 7 == 0 {
                format!("weird-{i}")
            } else {
                format!("j_{}", 2_000_000 + i)
            };
            doc.push_str(&format!("M1,1,{name},1,Terminated,100,200,50,0.25\n"));
        }
        let mut t = scan_str(&doc);
        assert_eq!(t.job_count(), 500);
        let set = t.materialize_all().unwrap();
        assert_eq!(set.len(), 500);
        assert!(set.get("weird-0").is_some());
        assert!(set.get("j_2000001").is_some());
    }
}
