//! Build each distinct DAG shape once.
//!
//! Jobs recur: in a generated 100k-job trace the 45,770 sampled jobs have
//! only 1,106 distinct task-name lists. A [`ShapeTable`] keys each job by
//! its task names in row order and runs [`JobDag::from_rows`] once per
//! key, and [`conflate`](crate::conflate::conflate) once per key that a
//! conflated DAG is asked of. It keeps the raw shape, the conflated shape
//! and the node map of every conflation pass. A job's DAGs are then
//! gathers over its own rows: attributes through the shape's node → row
//! permutation, conflated attributes replayed pass by pass.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::conflate::{conflate_shape, replay_attrs};
use crate::dag::DagShape;
use crate::{BuildError, JobDag, TaskRows};

/// What a [`ShapeTable`] keeps for one task-name list: the raw shape, the
/// conflated shape (the same `Arc` when nothing merges) and each
/// conflation pass's old → new node map.
#[derive(Debug)]
pub struct ShapeEntry {
    raw: Arc<DagShape>,
    /// Computed on first use: the census and the sched workload read only
    /// raw DAGs, and the census keeps every entry of a trace resident.
    conflation: OnceLock<(Arc<DagShape>, Vec<Vec<u32>>)>,
}

impl ShapeEntry {
    fn conflation(&self) -> &(Arc<DagShape>, Vec<Vec<u32>>) {
        self.conflation.get_or_init(|| conflate_shape(&self.raw))
    }

    /// Number of conflation passes that merged nodes (0 when the raw
    /// shape is already a fixpoint).
    pub fn passes(&self) -> usize {
        self.conflation().1.len()
    }

    /// The DAG of a job keyed to this entry, equal to
    /// [`JobDag::from_rows`]`(name, rows)`: each node's attributes come
    /// from the row it was built from.
    pub fn raw<R: TaskRows + ?Sized>(&self, name: String, rows: &R) -> JobDag {
        debug_assert_eq!(rows.row_count(), self.raw.len());
        let attrs = self
            .raw
            .rows()
            .iter()
            .map(|&r| rows.attr(r as usize))
            .collect();
        JobDag::with_shape(name, Arc::clone(&self.raw), attrs)
    }

    /// The conflated DAG of `raw`, a DAG of this entry's raw shape, equal
    /// to [`conflate`](crate::conflate::conflate)`(raw)`.
    pub fn conflated(&self, raw: &JobDag) -> JobDag {
        debug_assert!(Arc::ptr_eq(raw.shape(), &self.raw));
        let (shape, passes) = self.conflation();
        JobDag::with_shape(
            raw.name.clone(),
            Arc::clone(shape),
            replay_attrs(raw.attrs(), passes),
        )
    }
}

/// Job task-name lists → built shapes, or the error building them gave.
///
/// The key is the full task-name bytes in row order, each name ended by
/// `0xFF` (a byte UTF-8 never contains), so two jobs share an entry
/// exactly when their names are equal row for row. Build errors depend on
/// nothing else, so they are kept per key too. Entry ids count up from 0
/// in the order keys are first seen.
#[derive(Debug, Default)]
pub struct ShapeTable {
    ids: HashMap<Box<[u8]>, u32>,
    entries: Vec<Result<ShapeEntry, BuildError>>,
    key: Vec<u8>,
}

impl ShapeTable {
    /// An empty table.
    pub fn new() -> ShapeTable {
        ShapeTable::default()
    }

    /// Number of distinct task-name lists seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True before the first [`intern`](Self::intern).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry id of a job's task names, building the entry's shape
    /// with [`JobDag::from_rows`] on first sight.
    pub fn intern<R: TaskRows + ?Sized>(&mut self, rows: &R) -> usize {
        self.key.clear();
        for r in 0..rows.row_count() {
            self.key.extend_from_slice(rows.task_name(r).as_bytes());
            self.key.push(0xFF);
        }
        if let Some(&id) = self.ids.get(self.key.as_slice()) {
            return id as usize;
        }
        let id = self.entries.len();
        let entry = JobDag::from_rows(String::new(), rows).map(|dag| ShapeEntry {
            raw: Arc::clone(dag.shape()),
            conflation: OnceLock::new(),
        });
        self.entries.push(entry);
        let id32 = u32::try_from(id).expect("fewer than 2^32 shapes");
        self.ids.insert(self.key.as_slice().into(), id32);
        id
    }

    /// Entry `id`, or the error building its task names gave.
    pub fn get(&self, id: usize) -> Result<&ShapeEntry, &BuildError> {
        self.entries[id].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflate::conflate;
    use dagscope_trace::{Job, Status, TaskRecord};

    fn job(name: &str, tasks: &[(&str, u32, f64)]) -> Job {
        Job {
            name: name.into(),
            tasks: tasks
                .iter()
                .map(|&(task, instances, cpu)| TaskRecord {
                    task_name: task.into(),
                    instance_num: instances,
                    job_name: name.into(),
                    task_type: "1".into(),
                    status: Status::Terminated,
                    start_time: 10,
                    end_time: 10 + instances as i64,
                    plan_cpu: cpu,
                    plan_mem: 0.5,
                })
                .collect(),
        }
    }

    /// The table's raw and conflated DAGs of `job`.
    fn through(table: &mut ShapeTable, job: &Job) -> (usize, JobDag, JobDag) {
        let rows = job.tasks.as_slice();
        let id = table.intern(rows);
        let entry = table.get(id).unwrap();
        let raw = entry.raw(job.name.clone(), rows);
        let conflated = entry.conflated(&raw);
        (id, raw, conflated)
    }

    #[test]
    fn equal_names_share_one_shape() {
        let mut table = ShapeTable::new();
        let a = job("a", &[("M1", 2, 0.1), ("M2", 3, 0.2), ("R3_2_1", 1, 0.3)]);
        let b = job("b", &[("M1", 7, 1e16), ("M2", 5, 1.0), ("R3_2_1", 4, -0.0)]);
        let (ia, raw_a, conf_a) = through(&mut table, &a);
        let (ib, raw_b, conf_b) = through(&mut table, &b);
        assert_eq!((ia, ib, table.len()), (0, 0, 1));
        assert!(Arc::ptr_eq(raw_a.shape(), raw_b.shape()));
        assert!(Arc::ptr_eq(conf_a.shape(), conf_b.shape()));
        assert_eq!(table.get(0).unwrap().passes(), 1);
        for (job, raw, conf) in [(&a, raw_a, conf_a), (&b, raw_b, conf_b)] {
            let direct = JobDag::from_job(job).unwrap();
            assert_eq!(raw, direct);
            assert_eq!(conf, conflate(&direct));
            assert_eq!(conf.len(), 2);
        }
    }

    #[test]
    fn row_order_and_name_boundaries_are_part_of_the_key() {
        let mut table = ShapeTable::new();
        let forward = job("f", &[("M1", 1, 1.0), ("R2_1", 2, 2.0)]);
        let backward = job("b", &[("R2_1", 2, 2.0), ("M1", 1, 1.0)]);
        let (i, raw_f, _) = through(&mut table, &forward);
        let (j, raw_b, _) = through(&mut table, &backward);
        assert_ne!(i, j);
        assert_eq!(raw_f.name, "f");
        assert_eq!(raw_f.attrs(), raw_b.attrs(), "attributes follow the rows");
        // "M1" + "R2_1" and "M1R" + "2_1" concatenate to the same bytes.
        let split = job("s", &[("M1R", 1, 1.0), ("2_1", 2, 2.0)]);
        let k = table.intern(split.tasks.as_slice());
        assert_eq!(k, 2);
        assert!(table.get(k).is_err());
    }

    #[test]
    fn errors_are_kept_per_key() {
        let mut table = ShapeTable::new();
        let bad = job("x", &[("M1", 1, 1.0), ("R2_9", 1, 1.0)]);
        let id = table.intern(bad.tasks.as_slice());
        assert_eq!(table.intern(bad.tasks.as_slice()), id);
        assert_eq!(
            table.get(id).unwrap_err(),
            &BuildError::MissingParent { id: 2, parent: 9 }
        );
        let empty: &[TaskRecord] = &[];
        let e = table.intern(empty);
        assert_eq!(table.get(e).unwrap_err(), &BuildError::Empty);
    }

    #[test]
    fn a_fixpoint_shares_the_raw_shape() {
        let mut table = ShapeTable::new();
        let chain = job("c", &[("M1", 1, 1.0), ("R2_1", 1, 1.0), ("R3_2", 1, 1.0)]);
        let (id, raw, conflated) = through(&mut table, &chain);
        assert_eq!(table.get(id).unwrap().passes(), 0);
        assert!(Arc::ptr_eq(raw.shape(), conflated.shape()));
        assert_eq!(raw, conflated);
    }
}
