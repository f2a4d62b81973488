//! The v2018 task-name dependency grammar.
//!
//! In the Alibaba 2018 trace, a task's name encodes both its position in the
//! job DAG and its upstream dependencies:
//!
//! * `M1` — task 1, a Map-family task with no parents (in-degree 0),
//! * `R2_1` — task 2, Reduce, depends on task 1,
//! * `J3_1_2` — task 3, Join, depends on tasks 1 and 2,
//! * `R5_4_3_2_1` — task 5, Reduce, depends on tasks 4, 3, 2 and 1,
//! * `task_Kx92ab` — an *independent* task carrying no DAG information.
//!
//! The paper (Section IV-A and V-C) distinguishes three type codes: `M`
//! (Map or Merge), `R` (Reduce) and `J` (Join); anything else is preserved
//! as [`TaskKind::Other`].

use serde::{Deserialize, Serialize};

/// Task-type code inferred from the first letter of a DAG task name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TaskKind {
    /// `M…` — Map or Merge stage.
    Map,
    /// `R…` — Reduce stage.
    Reduce,
    /// `J…` — Join stage (the Map-Join-Reduce model's independent join).
    Join,
    /// Any other leading letter (rare in the batch DAG subset).
    Other(char),
}

impl TaskKind {
    /// The letter used when rendering a task name.
    pub fn letter(&self) -> char {
        match self {
            TaskKind::Map => 'M',
            TaskKind::Reduce => 'R',
            TaskKind::Join => 'J',
            TaskKind::Other(c) => *c,
        }
    }

    /// Inverse of [`letter`](Self::letter).
    pub fn from_letter(c: char) -> TaskKind {
        match c {
            'M' => TaskKind::Map,
            'R' => TaskKind::Reduce,
            'J' => TaskKind::Join,
            other => TaskKind::Other(other),
        }
    }
}

/// Result of parsing a task name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParsedTaskName {
    /// A DAG-participating task: type code, 1-based task id, parent ids.
    Dag {
        /// Stage type inferred from the leading letter.
        kind: TaskKind,
        /// 1-based task number within the job.
        id: u32,
        /// Parent task numbers (order as written in the name).
        parents: Vec<u32>,
    },
    /// A task with no dependency information (`task_…` or unparseable).
    Independent {
        /// The raw name, preserved verbatim.
        raw: String,
    },
}

impl ParsedTaskName {
    /// True for the `Dag` variant.
    pub fn is_dag(&self) -> bool {
        matches!(self, ParsedTaskName::Dag { .. })
    }
}

/// Parse a v2018 task name.
///
/// Grammar: `letter+ digits ('_' digits)*` is a DAG task (only the *first*
/// letter determines the [`TaskKind`]; names like `MergeTask12_1` seen in
/// the wild still parse, with `Merge…` collapsing to `M`). Anything else —
/// including the common `task_XXXX` opaque form — is `Independent`.
///
/// ```
/// use dagscope_trace::taskname::{parse, ParsedTaskName, TaskKind};
/// match parse("R5_4_3_2_1") {
///     ParsedTaskName::Dag { kind, id, parents } => {
///         assert_eq!(kind, TaskKind::Reduce);
///         assert_eq!(id, 5);
///         assert_eq!(parents, vec![4, 3, 2, 1]);
///     }
///     _ => panic!("should parse as DAG"),
/// }
/// assert!(!parse("task_Kx92").is_dag());
/// ```
pub fn parse(name: &str) -> ParsedTaskName {
    let mut parents = Vec::new();
    match parse_dag_into(name, &mut parents) {
        Some((kind, id)) => ParsedTaskName::Dag { kind, id, parents },
        None => ParsedTaskName::Independent {
            raw: name.to_string(),
        },
    }
}

/// [`parse`] without the owned result: a DAG name's parent ids (in the
/// order the name lists them) are appended to `parents` and its kind and
/// id returned; an independent name returns `None` and leaves `parents`
/// as it was. The DAG builder parses a whole job into one shared vector
/// this way.
///
/// ```
/// use dagscope_trace::taskname::{parse_dag_into, TaskKind};
/// let mut parents = vec![7];
/// assert_eq!(parse_dag_into("J3_1_2", &mut parents), Some((TaskKind::Join, 3)));
/// assert_eq!(parse_dag_into("task_x", &mut parents), None);
/// assert_eq!(parents, vec![7, 1, 2]);
/// ```
pub fn parse_dag_into(name: &str, parents: &mut Vec<u32>) -> Option<(TaskKind, u32)> {
    let mark = parents.len();
    let parsed = walk(name, |p| parents.push(p));
    if parsed.is_none() {
        parents.truncate(mark);
    }
    parsed
}

/// Allocation-free [`parse`]`(name).is_dag()` — the ingest hot loop asks
/// this once per task row, where [`parse`]'s parent `Vec` (or the
/// `Independent` name copy) would be the only per-row allocation left.
pub fn is_dag_name(name: &str) -> bool {
    walk(name, |_| ()).is_some()
}

/// The grammar, once: walk `name`, reporting each parent id to
/// `on_parent` in written order, and return the kind and id of a DAG
/// name. Stops at the first segment that breaks the grammar.
fn walk(name: &str, mut on_parent: impl FnMut(u32)) -> Option<(TaskKind, u32)> {
    // The opaque independent form is lowercase `task_…`.
    if name.is_empty() || name.starts_with("task_") {
        return None;
    }
    let bytes = name.as_bytes();
    // Leading letters; the first non-letter must be an ASCII digit. A
    // multi-byte character's lead byte is neither, so such names are
    // independent.
    let mut i = 0;
    while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
        i += 1;
    }
    if i == 0 || i == bytes.len() || !bytes[i].is_ascii_digit() {
        return None;
    }
    let kind = TaskKind::from_letter(char::from(bytes[0].to_ascii_uppercase()));
    // Task id, then `_parent` groups. Mixed suffixes (e.g. `M1_Stg2`)
    // carry no usable dependency info, so the whole name is independent,
    // like the paper's preprocessing.
    let mut segments = bytes[i..].split(|&b| b == b'_');
    let id = segment_u32(segments.next()?)?;
    for seg in segments {
        on_parent(segment_u32(seg)?);
    }
    Some((kind, id))
}

/// One id segment, replicating `str::parse::<u32>` exactly — optional
/// leading `+`, at least one digit, nothing else, value within range
/// (leading zeros allowed, so the bound is on the value, not the digit
/// count).
fn segment_u32(seg: &[u8]) -> Option<u32> {
    let digits = match seg.split_first() {
        Some((&b'+', rest)) => rest,
        _ => seg,
    };
    if digits.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v * 10 + u64::from(d);
        if v > u64::from(u32::MAX) {
            return None;
        }
    }
    u32::try_from(v).ok()
}

/// Memoizing wrapper around [`is_dag_name`] for the ingest hot loop.
///
/// DAG task names repeat enormously across jobs (`M1`, `R2_1`, `J3_1_2`…
/// come from a small grammar), so a tiny direct-mapped cache keyed on the
/// raw name bytes turns the ~25 ns grammar walk into a load-and-compare
/// for names up to 15 bytes. The opaque `task_…` form bypasses the cache
/// entirely — those names are frequently unique and would thrash the
/// slots, and their verdict is a prefix test away. Misses and longer
/// names delegate to [`is_dag_name`], so the wrapper is transparent by
/// construction; a differential test pins it anyway.
#[derive(Debug, Clone)]
pub struct DagNameMemo {
    /// `(packed key, verdict)` per slot. Key 0 marks an empty slot — a
    /// real key cannot be 0 because the name's (nonzero) length is folded
    /// into the top byte.
    slots: Vec<(u128, bool)>,
}

impl Default for DagNameMemo {
    fn default() -> DagNameMemo {
        DagNameMemo::new()
    }
}

impl DagNameMemo {
    const SLOTS: usize = 256;

    /// An empty cache (~8 KiB, comfortably L1-resident).
    pub fn new() -> DagNameMemo {
        DagNameMemo {
            slots: vec![(0, false); Self::SLOTS],
        }
    }

    /// Memoized [`is_dag_name`]`(name)`.
    #[inline]
    pub fn is_dag_name(&mut self, name: &str) -> bool {
        let bytes = name.as_bytes();
        if bytes.is_empty() || bytes.starts_with(b"task_") {
            return false;
        }
        if bytes.len() > 15 {
            return is_dag_name(name);
        }
        let mut packed = [0u8; 16];
        packed[..bytes.len()].copy_from_slice(bytes);
        // Zero padding cannot collide across lengths: the length occupies
        // the (always zero-padded) top byte.
        let key = u128::from_le_bytes(packed) | (bytes.len() as u128) << 120;
        let h = ((key as u64) ^ ((key >> 64) as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let slot = (h >> 48) as usize & (Self::SLOTS - 1);
        let (k, v) = self.slots[slot];
        if k == key {
            return v;
        }
        let v = is_dag_name(name);
        self.slots[slot] = (key, v);
        v
    }
}

/// Render a DAG task name from its components (inverse of [`parse`]).
///
/// ```
/// use dagscope_trace::taskname::{format_dag, TaskKind};
/// assert_eq!(format_dag(TaskKind::Reduce, 5, &[4, 3, 2, 1]), "R5_4_3_2_1");
/// assert_eq!(format_dag(TaskKind::Map, 1, &[]), "M1");
/// ```
pub fn format_dag(kind: TaskKind, id: u32, parents: &[u32]) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(2 + 3 * parents.len());
    s.push(kind.letter());
    write!(s, "{id}").unwrap();
    for p in parents {
        write!(s, "_{p}").unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples() {
        // Section IV-A examples from job 1001388.
        assert_eq!(
            parse("M1"),
            ParsedTaskName::Dag {
                kind: TaskKind::Map,
                id: 1,
                parents: vec![]
            }
        );
        assert_eq!(
            parse("R2_1"),
            ParsedTaskName::Dag {
                kind: TaskKind::Reduce,
                id: 2,
                parents: vec![1]
            }
        );
        assert_eq!(
            parse("R4_3"),
            ParsedTaskName::Dag {
                kind: TaskKind::Reduce,
                id: 4,
                parents: vec![3]
            }
        );
        assert_eq!(
            parse("R5_4_3_2_1"),
            ParsedTaskName::Dag {
                kind: TaskKind::Reduce,
                id: 5,
                parents: vec![4, 3, 2, 1]
            }
        );
    }

    #[test]
    fn join_tasks() {
        assert_eq!(
            parse("J3_1_2"),
            ParsedTaskName::Dag {
                kind: TaskKind::Join,
                id: 3,
                parents: vec![1, 2]
            }
        );
    }

    #[test]
    fn multi_letter_prefix_uses_first_letter() {
        assert_eq!(
            parse("MergeTask12_1"),
            ParsedTaskName::Dag {
                kind: TaskKind::Map,
                id: 12,
                parents: vec![1]
            }
        );
    }

    #[test]
    fn lowercase_prefix_normalized() {
        assert_eq!(
            parse("m2_1"),
            ParsedTaskName::Dag {
                kind: TaskKind::Map,
                id: 2,
                parents: vec![1]
            }
        );
    }

    #[test]
    fn independent_forms() {
        assert!(!parse("task_Kx92ab").is_dag());
        assert!(!parse("").is_dag());
        assert!(!parse("123").is_dag());
        assert!(!parse("M").is_dag());
        assert!(!parse("M1_x2").is_dag());
        assert!(!parse("M-1").is_dag());
    }

    #[test]
    fn other_kind_preserved() {
        match parse("X7_2") {
            ParsedTaskName::Dag { kind, id, parents } => {
                assert_eq!(kind, TaskKind::Other('X'));
                assert_eq!(id, 7);
                assert_eq!(parents, vec![2]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn format_parse_round_trip() {
        for (kind, id, parents) in [
            (TaskKind::Map, 1, vec![]),
            (TaskKind::Reduce, 9, vec![8, 7]),
            (TaskKind::Join, 3, vec![1, 2]),
            (TaskKind::Other('Z'), 30, vec![29, 28, 1]),
        ] {
            let s = format_dag(kind, id, &parents);
            assert_eq!(parse(&s), ParsedTaskName::Dag { kind, id, parents });
        }
    }

    /// The grammar written the straightforward way, over `char`s and
    /// `str::parse::<u32>`: the byte walker must reproduce it exactly.
    fn reference_parse(name: &str) -> ParsedTaskName {
        let independent = || ParsedTaskName::Independent {
            raw: name.to_string(),
        };
        if name.starts_with("task_") || name.is_empty() {
            return independent();
        }
        let mut first_letter = None;
        let mut digits_start = None;
        for (i, c) in name.char_indices() {
            if c.is_ascii_alphabetic() {
                first_letter.get_or_insert(c);
            } else if c.is_ascii_digit() {
                digits_start = Some(i);
                break;
            } else {
                return independent();
            }
        }
        let (Some(first_letter), Some(digits_start)) = (first_letter, digits_start) else {
            return independent();
        };
        let mut segments = name[digits_start..].split('_');
        let Some(Ok(id)) = segments.next().map(str::parse::<u32>) else {
            return independent();
        };
        let mut parents = Vec::new();
        for seg in segments {
            match seg.parse::<u32>() {
                Ok(p) => parents.push(p),
                Err(_) => return independent(),
            }
        }
        ParsedTaskName::Dag {
            kind: TaskKind::from_letter(first_letter.to_ascii_uppercase()),
            id,
            parents,
        }
    }

    #[test]
    fn is_dag_name_matches_full_parser() {
        // `parse`, `parse_dag_into` and `is_dag_name` must agree with the
        // reference on every grammar edge: overflow segments, `+`-signed
        // parents (u32::from_str accepts them), non-ASCII lead bytes,
        // empty segments, bare letters, repeated parents.
        for name in [
            "M1",
            "R2_1",
            "R5_4_3_2_1",
            "MergeTask12_1",
            "m2_1",
            "task_Kx92ab",
            "task_",
            "",
            "123",
            "M",
            "M1_x2",
            "M-1",
            "M1_",
            "M_1",
            "M1__2",
            "M1_+2",
            "M+1",
            "M4294967295",
            "M4294967296",
            "M99999999999_1",
            "M1_99999999999",
            "M00000000001_1",
            "M1_00000000000042",
            "M007_001",
            "Ṁ1",
            "M1\u{300}",
            "Stg5_4_3",
            "X7_2",
            "J3_1_2",
            "R3_1_1",
        ] {
            let want = reference_parse(name);
            assert_eq!(parse(name), want, "parse disagrees on {name:?}");
            assert_eq!(is_dag_name(name), want.is_dag(), "{name:?}");
            let mut parents = vec![9];
            let got = parse_dag_into(name, &mut parents);
            match want {
                ParsedTaskName::Dag {
                    kind,
                    id,
                    parents: want_parents,
                } => {
                    assert_eq!(got, Some((kind, id)), "{name:?}");
                    assert_eq!(parents[0], 9);
                    assert_eq!(parents[1..], want_parents[..], "{name:?}");
                }
                ParsedTaskName::Independent { .. } => {
                    assert_eq!(got, None, "{name:?}");
                    assert_eq!(parents, vec![9], "{name:?} must leave the vector as it was");
                }
            }
        }
    }

    #[test]
    fn kind_letter_round_trip() {
        for k in [
            TaskKind::Map,
            TaskKind::Reduce,
            TaskKind::Join,
            TaskKind::Other('Q'),
        ] {
            assert_eq!(TaskKind::from_letter(k.letter()), k);
        }
    }
}
