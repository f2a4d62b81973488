//! DAG construction errors.

use std::fmt;

/// Reasons a job's task rows cannot form a valid DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The job has no tasks.
    Empty,
    /// The job's task names total more bytes than a DAG's `u32` offsets
    /// address.
    TooLarge {
        /// Total bytes of the job's task names.
        name_bytes: usize,
    },
    /// A task name did not parse as a DAG name.
    NonDagTask {
        /// The offending raw task name.
        name: String,
    },
    /// Two tasks claim the same id.
    DuplicateId {
        /// The duplicated 1-based task id.
        id: u32,
    },
    /// A task references a parent id that does not exist in the job.
    MissingParent {
        /// The referencing task id.
        id: u32,
        /// The missing parent id.
        parent: u32,
    },
    /// The dependency relation contains a cycle (malformed trace rows).
    Cycle,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Empty => write!(f, "job has no tasks"),
            BuildError::TooLarge { name_bytes } => {
                write!(
                    f,
                    "task names total {name_bytes} bytes, over the 4 GiB limit"
                )
            }
            BuildError::NonDagTask { name } => {
                write!(f, "task name {name:?} carries no dependency information")
            }
            BuildError::DuplicateId { id } => write!(f, "duplicate task id {id}"),
            BuildError::MissingParent { id, parent } => {
                write!(f, "task {id} references missing parent {parent}")
            }
            BuildError::Cycle => write!(f, "dependency relation contains a cycle"),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        assert!(BuildError::Empty.to_string().contains("no tasks"));
        assert!(BuildError::TooLarge {
            name_bytes: 1 << 33
        }
        .to_string()
        .contains("8589934592"));
        assert!(BuildError::NonDagTask {
            name: "task_x".into()
        }
        .to_string()
        .contains("task_x"));
        assert!(BuildError::MissingParent { id: 3, parent: 9 }
            .to_string()
            .contains('9'));
    }
}
