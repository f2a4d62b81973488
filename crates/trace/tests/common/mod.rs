//! Helpers shared by the trace crate's integration tests.

use std::io::Cursor;
use std::sync::Mutex;

use dagscope_par::ParScope;
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::stream::StreamedTrace;
use dagscope_trace::{ReadPolicy, TraceError};

/// Run `f` with one worker thread, then with two: the streamed scan's
/// read and fold stages alternate on one thread, then overlap on two
/// wherever the document is longer than the scan buffer. The thread count
/// is process-wide, so the tests of one binary take turns.
pub fn at_one_and_two_threads<T>(mut f: impl FnMut() -> T) -> [T; 2] {
    static TURN: Mutex<()> = Mutex::new(());
    // The guarded value is `()`: a panicking test leaves nothing half set.
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    [1, 2].map(|threads| {
        let _scope = ParScope::new(threads);
        f()
    })
}

/// The streamed scan of `doc` with a `cap`-byte scan buffer, at one
/// thread and at two. The runs must report the same quarantine, suspects,
/// statistics and eligible sizes, or the same error; the one-thread run
/// is returned.
#[allow(dead_code)] // Not every test binary scans through it.
pub fn scan<'d>(
    doc: &'d [u8],
    policy: &ReadPolicy,
    cap: usize,
) -> Result<StreamedTrace<Cursor<&'d [u8]>>, TraceError> {
    let [one, two] = at_one_and_two_threads(|| {
        StreamedTrace::scan_with_buffer(Cursor::new(doc), policy, &SampleCriteria::default(), cap)
    });
    match (&one, &two) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.quarantine(), b.quarantine(), "cap={cap}");
            assert_eq!(a.suspects(), b.suspects(), "cap={cap}");
            assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
            assert_eq!(a.eligible_sizes(), b.eligible_sizes(), "cap={cap}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "cap={cap}"),
        _ => panic!("cap={cap}: the scan failed at one thread count only"),
    }
    one
}
