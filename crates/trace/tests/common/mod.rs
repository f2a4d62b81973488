//! Helpers shared by the trace crate's integration tests.

use std::io::{Cursor, Read, Seek};

use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::stream::{ParseBy, StreamedTrace};
use dagscope_trace::{ReadPolicy, TraceError};

/// One way the streamed scan may run: on one thread, its split, parse
/// and fold steps alternating, or on two, wherever the document is
/// longer than the scan buffer, with the split batches parsed on demand,
/// by the reader thread alone, or by the fold thread alone.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    threads: usize,
    by: ParseBy,
}

/// Every [`Run`], the one-thread run first.
pub const RUNS: [Run; 4] = [
    Run {
        threads: 1,
        by: ParseBy::Demand,
    },
    Run {
        threads: 2,
        by: ParseBy::Demand,
    },
    Run {
        threads: 2,
        by: ParseBy::Reader,
    },
    Run {
        threads: 2,
        by: ParseBy::Fold,
    },
];

impl Run {
    /// The streamed scan of `source` with a `cap`-byte scan buffer, run
    /// this way.
    pub fn scan<R: Read + Seek + Send>(
        self,
        source: R,
        policy: &ReadPolicy,
        cap: usize,
    ) -> Result<StreamedTrace<R>, TraceError> {
        let criteria = SampleCriteria::default();
        StreamedTrace::scan_parsed_by(source, policy, &criteria, cap, self.threads, self.by)
    }
}

/// Run `f` every way the scan may run.
#[allow(dead_code)] // Not every test binary runs its own checks.
pub fn at_every_run<T>(f: impl FnMut(Run) -> T) -> [T; 4] {
    RUNS.map(f)
}

/// The streamed scan of `doc` with a `cap`-byte scan buffer, every way it
/// may run. The runs must report the same quarantine, suspects,
/// statistics and eligible sizes, or the same error; the one-thread run
/// is returned.
#[allow(dead_code)] // Not every test binary scans through it.
pub fn scan<'d>(
    doc: &'d [u8],
    policy: &ReadPolicy,
    cap: usize,
) -> Result<StreamedTrace<Cursor<&'d [u8]>>, TraceError> {
    let [one, rest @ ..] = at_every_run(|run| run.scan(Cursor::new(doc), policy, cap));
    for (other, run) in rest.iter().zip(&RUNS[1..]) {
        match (&one, other) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.quarantine(), b.quarantine(), "cap={cap} {run:?}");
                assert_eq!(a.suspects(), b.suspects(), "cap={cap} {run:?}");
                assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
                assert_eq!(a.eligible_sizes(), b.eligible_sizes(), "cap={cap} {run:?}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "cap={cap} {run:?}"),
            _ => panic!("cap={cap}: the scan failed in some runs only ({run:?})"),
        }
    }
    one
}
