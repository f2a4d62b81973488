//! A loadable on-disk index of a completed pipeline run.
//!
//! The batch pipeline characterizes a sample once; `dagscope serve` must
//! answer queries about that characterization long after the process that
//! computed it has exited. [`IndexSnapshot`] is the hand-off format: the
//! sampled jobs (as `batch_task`-format rows, so the snapshot reuses the
//! trace CSV codec), the fitted [`GroupModel`], and the per-group summary
//! statistics.
//!
//! The snapshot deliberately stores *jobs*, not derived artifacts like DAGs
//! or WL vectors: every derivation in this workspace is deterministic, so a
//! loader that replays DAG construction → conflation → WL embedding over
//! the same rows reproduces the offline run **bit-identically**, and the
//! format stays robust to internal representation changes.
//!
//! Layout of a snapshot directory:
//!
//! ```text
//! meta.txt         key=value lines (version, kernel, wl_iterations, …)
//! jobs.csv         batch_task rows of the sample, in sample order
//! model.txt        GroupModel text form (see dagscope_cluster::model)
//! groups.csv       per-group summary rows (label, population, medoid, …)
//! shapes.csv       per-job WL shape id + fingerprint (dedup provenance)
//! checksums.txt    CRC64 per section, verified on load
//! ```
//!
//! **Integrity**: every section carries a CRC64 (ECMA-182, reflected)
//! recorded in `checksums.txt` and verified before parsing, so a torn or
//! bit-flipped file is rejected with [`SnapshotError::Corrupt`] naming
//! the damaged section instead of surfacing as a confusing parse error
//! deep in a codec. Saves are **atomic**: sections are staged into a
//! sibling temp directory and renamed into place, so a crashed
//! `snapshot` command never leaves a half-written index where a loader
//! can find it.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use dagscope_cluster::GroupModel;
use dagscope_faults::failpoint;
use dagscope_trace::{csv, Job, Status, TaskRecord};
use dagscope_wl::ShapeDedup;

use crate::{BaseKernel, Report};

/// Snapshot format version this build writes and reads.
/// Version 2 added `checksums.txt`; version 3 added `shapes.csv` (WL
/// shape dedup provenance); version 4 added the clustering-engine and
/// Laplacian-spectrum meta keys. Older snapshots must be regenerated.
const VERSION: u32 = 4;

/// How many leading Laplacian eigenvalues the snapshot records — enough
/// to redraw the eigengap diagnostic, without ever scaling with n.
const SPECTRUM_KEEP: usize = 16;

/// A disposable sibling path of `dir`: `<dir>.<tag>`. Staging and backup
/// directories live next to the target so the final rename stays within
/// one filesystem.
fn sibling(dir: &Path, tag: &str) -> PathBuf {
    let name = dir
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("snapshot");
    dir.with_file_name(format!("{name}.{tag}"))
}

/// Directory rename with an injectable failure (`snapshot.save.rename`;
/// hit 1 is the swap-out to `.old`, hit 2 the commit of staging — pick
/// one with a skip modifier).
fn rename_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    failpoint!("snapshot.save.rename", |_arg: Option<String>| Err(
        std::io::Error::other("injected rename failure")
    ));
    fs::rename(from, to)
}

/// Render `checksums.txt` for the given sections. The
/// `snapshot.save.crc_flip` site simulates bit rot at write time: the
/// recorded checksum of the *last* section gains a flipped low bit, so a
/// later load must reject that section as [`SnapshotError::Corrupt`]
/// rather than serve a silently wrong model.
fn checksum_lines(sections: &[(&'static str, String)]) -> String {
    let mut sums = String::new();
    for (name, data) in sections {
        writeln!(sums, "{name} {:016x}", crc64::checksum(data.as_bytes())).unwrap();
    }
    failpoint!("snapshot.save.crc_flip", |_arg: Option<String>| {
        let mut flipped = sums.clone();
        let idx = flipped.trim_end().len() - 1;
        let digit = flipped.as_bytes()[idx];
        flipped.replace_range(idx..=idx, if digit == b'0' { "1" } else { "0" });
        flipped
    });
    sums
}

/// Errors from snapshot persistence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A section's bytes disagree with the CRC64 recorded at save time.
    Corrupt {
        /// Damaged section file name (e.g. `jobs.csv`).
        section: String,
        /// Checksum recorded in `checksums.txt`.
        expected: u64,
        /// Checksum of the bytes actually on disk.
        found: u64,
    },
    /// An I/O failure, with the path involved.
    Io {
        /// Path that failed.
        path: String,
        /// Stringified OS error.
        detail: String,
    },
    /// A structural or parse problem in an intact (checksum-verified)
    /// snapshot, or an unsupported configuration.
    Format(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Corrupt {
                section,
                expected,
                found,
            } => write!(
                f,
                "snapshot section {section} is corrupt: \
                 crc64 {found:016x} does not match recorded {expected:016x}"
            ),
            SnapshotError::Io { path, detail } => write!(f, "{path}: {detail}"),
            SnapshotError::Format(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// CRC64/ECMA-182 (reflected; the `xz` variant), table-driven.
mod crc64 {
    /// Reflected ECMA-182 polynomial.
    const POLY: u64 = 0xC96C_5795_D787_0F42;

    const fn build_table() -> [u64; 256] {
        let mut table = [0u64; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u64;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    }

    static TABLE: [u64; 256] = build_table();

    /// Checksum of one byte slice.
    pub fn checksum(data: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in data {
            crc = TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[cfg(test)]
    mod tests {
        /// Known-answer test for CRC-64/XZ ("123456789" → 0x995DC9BBDF1939FA).
        #[test]
        fn known_answer() {
            assert_eq!(super::checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
            assert_eq!(super::checksum(b""), 0);
        }
    }
}

/// Run-level metadata carried alongside the index.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// WL refinement iterations used by the offline embedding.
    pub wl_iterations: usize,
    /// Whether the kernel stage ran on conflated DAGs.
    pub conflate: bool,
    /// Seed of the producing run (provenance only).
    pub seed: u64,
    /// Number of groups.
    pub k: usize,
    /// Silhouette of the offline clustering (provenance only).
    pub silhouette: f64,
    /// Clustering engine of the producing run (provenance only): this
    /// build writes `"collapsed"`; snapshots of older builds may read
    /// `"dense"`.
    pub cluster_engine: String,
    /// Leading (smallest) normalized-Laplacian eigenvalues of the
    /// offline clustering, ascending — the eigengap diagnostic.
    pub eigenvalues: Vec<f64>,
}

/// Summary of one group, mirroring [`crate::GroupStats`] minus the bulky
/// per-member distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotGroup {
    /// Group label (`'A'` = most populated).
    pub label: char,
    /// Raw cluster id behind the label.
    pub cluster: usize,
    /// Member count.
    pub population: usize,
    /// Fraction of the sample.
    pub fraction: f64,
    /// Mean job size.
    pub mean_size: f64,
    /// Share of straight-chain jobs.
    pub chain_fraction: f64,
    /// Share of short (≤ 3 task) jobs.
    pub short_fraction: f64,
    /// Medoid job name.
    pub representative: String,
}

/// Per-job WL shape provenance: which deduplicated shape a job's φ
/// vector collapsed to, plus the fingerprint of that shape.
///
/// Shape ids are dense and assigned in **first-appearance order** over
/// the sample, so a loader replaying the embedding can verify its own
/// [`ShapeDedup`] reproduces the offline one exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotShape {
    /// Dense shape id (first-appearance order).
    pub shape: usize,
    /// WL fingerprint of the shape's feature vector.
    pub fingerprint: u64,
}

/// Everything `dagscope serve` needs, in saveable/loadable form.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSnapshot {
    /// Run metadata.
    pub meta: SnapshotMeta,
    /// The sampled jobs in sample order (aligned with the model's
    /// assignment vector).
    pub jobs: Vec<Job>,
    /// Assignments + per-group WL centroids.
    pub model: GroupModel,
    /// Group summaries, ordered by label.
    pub groups: Vec<SnapshotGroup>,
    /// Per-job shape ids + fingerprints, in sample order.
    pub shapes: Vec<SnapshotShape>,
}

impl IndexSnapshot {
    /// Distill a completed [`Report`] into a snapshot.
    ///
    /// Only WL-subtree runs are supported: the online classifier embeds
    /// probes with the WL vectorizer, so centroids from a shortest-path
    /// run would live in the wrong feature space.
    pub fn from_report(report: &Report) -> Result<IndexSnapshot, SnapshotError> {
        if report.config.base_kernel != BaseKernel::WlSubtree {
            return Err(SnapshotError::Format(
                "serve snapshots require the WL subtree base kernel (--base-kernel wl)".to_string(),
            ));
        }
        let jobs: Vec<Job> = report.raw_dags.iter().map(dag_to_job).collect();
        let model = GroupModel::fit(
            &report.groups.assignments,
            report.groups.group_count(),
            &report.wl_features,
        );
        let groups = report
            .groups
            .groups
            .iter()
            .map(|g| SnapshotGroup {
                label: g.label,
                cluster: g.cluster,
                population: g.population,
                fraction: g.fraction,
                mean_size: g.mean_size,
                chain_fraction: g.chain_fraction,
                short_fraction: g.short_fraction,
                representative: g.representative.clone(),
            })
            .collect();
        let dedup = ShapeDedup::from_features(&report.wl_features);
        let shapes = dedup
            .shape_of()
            .iter()
            .map(|&s| SnapshotShape {
                shape: s,
                fingerprint: dedup.fingerprints()[s],
            })
            .collect();
        Ok(IndexSnapshot {
            meta: SnapshotMeta {
                wl_iterations: report.config.wl_iterations,
                conflate: report.config.conflate,
                seed: report.config.seed,
                k: report.groups.group_count(),
                silhouette: report.groups.silhouette,
                cluster_engine: "collapsed".to_string(),
                eigenvalues: report
                    .laplacian_eigenvalues
                    .iter()
                    .take(SPECTRUM_KEEP)
                    .copied()
                    .collect(),
            },
            jobs,
            model,
            groups,
            shapes,
        })
    }

    /// Render every section to its text form, in write order.
    fn render_sections(&self) -> [(&'static str, String); 5] {
        let mut meta = String::new();
        writeln!(meta, "version={VERSION}").unwrap();
        writeln!(meta, "kernel=wl").unwrap();
        writeln!(meta, "wl_iterations={}", self.meta.wl_iterations).unwrap();
        writeln!(meta, "conflate={}", self.meta.conflate as u8).unwrap();
        writeln!(meta, "seed={}", self.meta.seed).unwrap();
        writeln!(meta, "k={}", self.meta.k).unwrap();
        writeln!(meta, "silhouette={}", self.meta.silhouette).unwrap();
        writeln!(meta, "cluster_engine={}", self.meta.cluster_engine).unwrap();
        // `{}` on f64 round-trips exactly through parse.
        let spectrum: Vec<String> = self.meta.eigenvalues.iter().map(f64::to_string).collect();
        writeln!(meta, "eigenvalues={}", spectrum.join(",")).unwrap();

        let mut rows = String::new();
        for job in &self.jobs {
            for t in &job.tasks {
                rows.push_str(&csv::format_task_line(t));
                rows.push('\n');
            }
        }

        let mut groups = String::from(
            "label,cluster,population,fraction,mean_size,chain_fraction,short_fraction,representative\n",
        );
        for g in &self.groups {
            writeln!(
                groups,
                "{},{},{},{},{},{},{},{}",
                g.label,
                g.cluster,
                g.population,
                g.fraction,
                g.mean_size,
                g.chain_fraction,
                g.short_fraction,
                g.representative
            )
            .unwrap();
        }

        let mut shapes = String::from("shape,fingerprint\n");
        for s in &self.shapes {
            writeln!(shapes, "{},{:016x}", s.shape, s.fingerprint).unwrap();
        }

        [
            ("meta.txt", meta),
            ("jobs.csv", rows),
            ("model.txt", self.model.to_text()),
            ("groups.csv", groups),
            ("shapes.csv", shapes),
        ]
    }

    /// Write the snapshot into `dir` (created if absent), atomically.
    ///
    /// Sections and their checksums are staged into a sibling temp
    /// directory, then renamed into place; a crash mid-save leaves the
    /// previous snapshot (or nothing) at `dir`, never a torn one. The
    /// rename sequence swaps any existing snapshot out via a `.old`
    /// sibling, so re-saving over a live directory is safe too. A crash
    /// in the window between swap-out and swap-in leaves only the `.old`
    /// sibling; [`load`](Self::load) heals that case by renaming the
    /// backup into place before reading.
    pub fn save(&self, dir: &Path) -> Result<(), SnapshotError> {
        let io = |path: &Path, e: std::io::Error| SnapshotError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        };
        let staging = sibling(dir, "staging");
        let backup = sibling(dir, "old");
        // A dead process may have left either sibling behind; both are
        // disposable by construction.
        fs::remove_dir_all(&staging).ok();
        fs::remove_dir_all(&backup).ok();
        fs::create_dir_all(&staging).map_err(|e| io(&staging, e))?;
        // `snapshot.save.abort` marks every crash window between the
        // first byte written and the end of the commit sequence; armed
        // with a `panic` action it simulates the process dying right
        // there (no cleanup code below the site runs). The torture test
        // sweeps the skip count over every window.
        failpoint!("snapshot.save.abort");

        let result = (|| {
            let sections = self.render_sections();
            for (name, data) in &sections {
                let path = staging.join(name);
                // A torn section write: half the bytes land, then the
                // writer dies. Only staging is damaged, so recovery must
                // still find the previous snapshot intact at `dir`.
                failpoint!("snapshot.save.torn_section", |_arg: Option<String>| {
                    fs::write(&path, &data.as_bytes()[..data.len() / 2]).ok();
                    Err(io(
                        &path,
                        std::io::Error::other("injected torn section write"),
                    ))
                });
                fs::write(&path, data).map_err(|e| io(&path, e))?;
                failpoint!("snapshot.save.abort");
            }
            let sums = checksum_lines(&sections);
            let sums_path = staging.join("checksums.txt");
            fs::write(&sums_path, &sums).map_err(|e| io(&sums_path, e))?;
            failpoint!("snapshot.save.abort");

            let had_previous = dir.exists();
            if had_previous {
                rename_dir(dir, &backup).map_err(|e| io(dir, e))?;
                failpoint!("snapshot.save.abort");
            }
            if let Err(e) = rename_dir(&staging, dir) {
                if had_previous {
                    // Roll the previous snapshot back into place.
                    fs::rename(&backup, dir).ok();
                }
                return Err(io(&staging, e));
            }
            failpoint!("snapshot.save.abort");
            fs::remove_dir_all(&backup).ok();
            failpoint!("snapshot.save.abort");
            Ok(())
        })();
        if result.is_err() {
            fs::remove_dir_all(&staging).ok();
        }
        result
    }

    /// Load a snapshot previously written with [`save`](Self::save).
    ///
    /// Every section's CRC64 is verified against `checksums.txt` before
    /// its bytes are parsed; damage surfaces as
    /// [`SnapshotError::Corrupt`] naming the section. If a previous save
    /// died between swapping the old snapshot out and the new one in
    /// (`dir` missing, `<dir>.old` present), the backup is first renamed
    /// back into place — the crash-recovery half of save's atomicity
    /// contract.
    pub fn load(dir: &Path) -> Result<IndexSnapshot, SnapshotError> {
        let backup = sibling(dir, "old");
        if !dir.exists() && backup.exists() {
            fs::rename(&backup, dir).map_err(|e| SnapshotError::Io {
                path: backup.display().to_string(),
                detail: e.to_string(),
            })?;
        }
        let read_raw = |name: &str| -> Result<String, SnapshotError> {
            let path = dir.join(name);
            failpoint!("snapshot.load.read_io", |_arg: Option<String>| Err(
                SnapshotError::Io {
                    path: path.display().to_string(),
                    detail: "injected section read failure".to_string(),
                }
            ));
            fs::read_to_string(&path).map_err(|e| SnapshotError::Io {
                path: path.display().to_string(),
                detail: e.to_string(),
            })
        };
        let bad = |msg: String| SnapshotError::Format(msg);

        let sums_text = read_raw("checksums.txt")?;
        let recorded = |name: &str| -> Result<u64, SnapshotError> {
            let hex = sums_text
                .lines()
                .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
                .ok_or_else(|| bad(format!("checksums.txt has no entry for {name}")))?;
            u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| bad(format!("checksums.txt entry for {name}: {e}")))
        };
        let read = |name: &str| -> Result<String, SnapshotError> {
            let data = read_raw(name)?;
            let expected = recorded(name)?;
            let found = crc64::checksum(data.as_bytes());
            if found != expected {
                return Err(SnapshotError::Corrupt {
                    section: name.to_string(),
                    expected,
                    found,
                });
            }
            Ok(data)
        };

        let meta_text = read("meta.txt")?;
        let meta_kv = |key: &str| -> Result<&str, SnapshotError> {
            meta_text
                .lines()
                .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                .ok_or_else(|| SnapshotError::Format(format!("meta.txt missing {key}")))
        };
        let version: u32 = meta_kv("version")?
            .parse()
            .map_err(|e| bad(format!("bad version: {e}")))?;
        if version != VERSION {
            return Err(bad(format!(
                "snapshot version {version} unsupported (this build reads {VERSION})"
            )));
        }
        if meta_kv("kernel")? != "wl" {
            return Err(bad("snapshot built with a non-WL base kernel".to_string()));
        }
        let meta = SnapshotMeta {
            wl_iterations: meta_kv("wl_iterations")?
                .parse()
                .map_err(|e| bad(format!("bad wl_iterations: {e}")))?,
            conflate: meta_kv("conflate")? == "1",
            seed: meta_kv("seed")?
                .parse()
                .map_err(|e| bad(format!("bad seed: {e}")))?,
            k: meta_kv("k")?
                .parse()
                .map_err(|e| bad(format!("bad k: {e}")))?,
            silhouette: meta_kv("silhouette")?
                .parse()
                .map_err(|e| bad(format!("bad silhouette: {e}")))?,
            cluster_engine: {
                let engine = meta_kv("cluster_engine")?;
                if engine != "dense" && engine != "collapsed" {
                    return Err(bad(format!("bad cluster_engine: {engine:?}")));
                }
                engine.to_string()
            },
            eigenvalues: {
                let raw = meta_kv("eigenvalues")?;
                if raw.is_empty() {
                    Vec::new()
                } else {
                    raw.split(',')
                        .map(|v| v.parse().map_err(|e| bad(format!("bad eigenvalue: {e}"))))
                        .collect::<Result<Vec<f64>, _>>()?
                }
            },
        };

        let rows = csv::read_tasks(read("jobs.csv")?.as_bytes()).map_err(|e| bad(e.to_string()))?;
        let jobs = group_rows_in_order(rows);

        let model = GroupModel::from_text(&read("model.txt")?).map_err(bad)?;

        let mut groups = Vec::new();
        for line in read("groups.csv")?.lines().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 8 {
                return Err(bad(format!("bad groups.csv row: {line:?}")));
            }
            let num = |s: &str, what: &str| -> Result<f64, SnapshotError> {
                s.parse().map_err(|e| bad(format!("bad {what}: {e}")))
            };
            groups.push(SnapshotGroup {
                label: f[0]
                    .chars()
                    .next()
                    .ok_or_else(|| bad(format!("empty label in {line:?}")))?,
                cluster: f[1].parse().map_err(|e| bad(format!("bad cluster: {e}")))?,
                population: f[2]
                    .parse()
                    .map_err(|e| bad(format!("bad population: {e}")))?,
                fraction: num(f[3], "fraction")?,
                mean_size: num(f[4], "mean_size")?,
                chain_fraction: num(f[5], "chain_fraction")?,
                short_fraction: num(f[6], "short_fraction")?,
                representative: f[7].to_string(),
            });
        }

        let mut shapes = Vec::new();
        for line in read("shapes.csv")?.lines().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let (shape, fp) = line
                .split_once(',')
                .ok_or_else(|| bad(format!("bad shapes.csv row: {line:?}")))?;
            shapes.push(SnapshotShape {
                shape: shape.parse().map_err(|e| bad(format!("bad shape: {e}")))?,
                fingerprint: u64::from_str_radix(fp.trim(), 16)
                    .map_err(|e| bad(format!("bad fingerprint: {e}")))?,
            });
        }

        let snapshot = IndexSnapshot {
            meta,
            jobs,
            model,
            groups,
            shapes,
        };
        snapshot.validate().map_err(bad)?;
        Ok(snapshot)
    }

    /// Internal consistency checks shared by loaders.
    pub fn validate(&self) -> Result<(), String> {
        if self.model.k() != self.meta.k {
            return Err(format!(
                "model k={} disagrees with meta k={}",
                self.model.k(),
                self.meta.k
            ));
        }
        if self.model.assignments().len() != self.jobs.len() {
            return Err(format!(
                "{} assignments for {} jobs",
                self.model.assignments().len(),
                self.jobs.len()
            ));
        }
        if self.groups.len() != self.meta.k {
            return Err(format!(
                "{} group rows for k={}",
                self.groups.len(),
                self.meta.k
            ));
        }
        let mut covered = vec![false; self.meta.k];
        for g in &self.groups {
            if g.cluster >= self.meta.k || covered[g.cluster] {
                return Err(format!(
                    "group rows do not partition clusters 0..{}",
                    self.meta.k
                ));
            }
            covered[g.cluster] = true;
        }
        if self.shapes.len() != self.jobs.len() {
            return Err(format!(
                "{} shape rows for {} jobs",
                self.shapes.len(),
                self.jobs.len()
            ));
        }
        // Shape ids must be dense in first-appearance order, and every
        // occurrence of a shape must carry the same fingerprint.
        let mut next_shape = 0usize;
        let mut fp_of: Vec<u64> = Vec::new();
        for (i, s) in self.shapes.iter().enumerate() {
            if s.shape > next_shape {
                return Err(format!(
                    "shapes.csv row {i}: shape {} breaks first-appearance order",
                    s.shape
                ));
            }
            if s.shape == next_shape {
                next_shape += 1;
                fp_of.push(s.fingerprint);
            } else if fp_of[s.shape] != s.fingerprint {
                return Err(format!(
                    "shapes.csv row {i}: fingerprint {:016x} disagrees with \
                     shape {}'s {:016x}",
                    s.fingerprint, s.shape, fp_of[s.shape]
                ));
            }
        }
        Ok(())
    }
}

/// Reconstruct a [`Job`]'s task rows from its (pre-conflation) DAG. The
/// dependency structure lives entirely in the task names; attributes the
/// DAG kept are restored, and fields it dropped (status, absolute
/// timestamps, type code) get fixed placeholder values — none of them
/// participate in serving.
fn dag_to_job(dag: &dagscope_graph::JobDag) -> Job {
    let job_name: dagscope_trace::IStr = dag.name.as_str().into();
    let tasks = (0..dag.len())
        .map(|i| {
            let a = dag.attr(i);
            TaskRecord {
                task_name: dag.task_name(i).to_string(),
                instance_num: a.instance_num,
                job_name: job_name.clone(),
                task_type: "1".into(),
                status: Status::Terminated,
                start_time: 1,
                end_time: 1 + a.duration,
                plan_cpu: a.plan_cpu,
                plan_mem: a.plan_mem,
            }
        })
        .collect();
    Job {
        name: dag.name.clone(),
        tasks,
    }
}

/// Group task rows into jobs preserving **first-appearance order** — unlike
/// [`dagscope_trace::JobSet::from_tasks`], which name-sorts. Snapshot rows
/// are written in sample order and the model's assignment vector is aligned
/// with that order, so it must survive the round trip.
fn group_rows_in_order(rows: Vec<TaskRecord>) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut index: std::collections::HashMap<dagscope_trace::IStr, usize> =
        std::collections::HashMap::new();
    for row in rows {
        match index.get(&row.job_name) {
            Some(&i) => jobs[i].tasks.push(row),
            None => {
                index.insert(row.job_name.clone(), jobs.len());
                jobs.push(Job {
                    name: row.job_name.to_string(),
                    tasks: vec![row],
                });
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineConfig};

    fn report() -> Report {
        Pipeline::new(PipelineConfig {
            jobs: 300,
            sample: 25,
            seed: 11,
            ..Default::default()
        })
        .run()
        .unwrap()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dagscope_snap_{tag}_{}", std::process::id()))
    }

    #[test]
    fn round_trip_preserves_everything() {
        let r = report();
        let snap = IndexSnapshot::from_report(&r).unwrap();
        assert_eq!(snap.jobs.len(), 25);
        assert_eq!(snap.model.assignments(), &r.groups.assignments[..]);
        assert_eq!(snap.groups.len(), 5);
        assert_eq!(snap.shapes.len(), 25);

        let dir = tmp_dir("rt");
        snap.save(&dir).unwrap();
        let back = IndexSnapshot::load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(back.meta, snap.meta);
        assert_eq!(back.model, snap.model, "model must round-trip bit-exactly");
        assert_eq!(back.groups, snap.groups);
        assert_eq!(back.shapes, snap.shapes);
        // Job order and structure survive; rebuilt DAGs embed identically.
        assert_eq!(back.jobs.len(), snap.jobs.len());
        for (a, b) in back.jobs.iter().zip(&snap.jobs) {
            assert_eq!(a.name, b.name);
            let da = dagscope_graph::JobDag::from_job(a).unwrap();
            let db = dagscope_graph::JobDag::from_job(b).unwrap();
            let mut wl = dagscope_wl::WlVectorizer::new(3);
            assert_eq!(wl.transform(&da), wl.transform(&db));
        }
    }

    #[test]
    fn rebuilt_dags_match_report_wl_features() {
        // The core bit-identity claim: replaying DAG build → conflate → WL
        // over snapshot rows reproduces the offline feature vectors.
        let r = report();
        let snap = IndexSnapshot::from_report(&r).unwrap();
        let dags: Vec<_> = snap
            .jobs
            .iter()
            .map(|j| dagscope_graph::JobDag::from_job(j).unwrap())
            .collect();
        let kernel_input: Vec<_> = if snap.meta.conflate {
            dags.iter()
                .map(dagscope_graph::conflate::conflate)
                .collect()
        } else {
            dags
        };
        let mut wl = dagscope_wl::WlVectorizer::new(snap.meta.wl_iterations);
        let feats = wl.transform_all_sequential(&kernel_input);
        assert_eq!(feats, r.wl_features);
        // Replayed dedup reproduces the recorded shape provenance.
        let dedup = ShapeDedup::from_features(&feats);
        for (i, s) in snap.shapes.iter().enumerate() {
            assert_eq!(s.shape, dedup.shape_of()[i]);
            assert_eq!(s.fingerprint, dedup.fingerprints()[s.shape]);
        }
    }

    #[test]
    fn meta_records_engine_and_spectrum() {
        let r = report();
        let snap = IndexSnapshot::from_report(&r).unwrap();
        assert_eq!(snap.meta.cluster_engine, "collapsed");
        let eig = &snap.meta.eigenvalues;
        assert!(!eig.is_empty() && eig.len() <= SPECTRUM_KEEP);
        assert!(eig[0].abs() < 1e-8, "Laplacian spectrum starts at 0");
        assert!(eig.windows(2).all(|w| w[0] <= w[1]), "ascending");
        // Exact f64 round-trip through the text form is covered by the
        // meta equality assertion in `round_trip_preserves_everything`.
        // A snapshot an older build wrote with the dense engine still
        // loads; an unknown engine value is rejected.
        let dir = tmp_dir("engine");
        snap.save(&dir).unwrap();
        let meta = std::fs::read_to_string(dir.join("meta.txt")).unwrap();
        for (engine, loads) in [("dense", true), ("bogus", false)] {
            tamper_with_valid_crc(
                &dir,
                "meta.txt",
                &meta.replace(
                    "cluster_engine=collapsed",
                    &format!("cluster_engine={engine}"),
                ),
            );
            match IndexSnapshot::load(&dir) {
                Ok(back) => {
                    assert!(loads, "{engine} loaded");
                    assert_eq!(back.meta.cluster_engine, engine);
                }
                Err(e) => {
                    assert!(!loads, "{engine}: {e}");
                    assert!(matches!(e, SnapshotError::Format(_)));
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sp_kernel_run_is_rejected() {
        let r = Pipeline::new(PipelineConfig {
            jobs: 300,
            sample: 20,
            seed: 3,
            base_kernel: BaseKernel::ShortestPath,
            ..Default::default()
        })
        .run()
        .unwrap();
        assert!(IndexSnapshot::from_report(&r).is_err());
    }

    /// Rewrite one section and refresh its recorded checksum, so the
    /// tamper reaches the parser instead of tripping the CRC gate.
    fn tamper_with_valid_crc(dir: &Path, name: &str, data: &str) {
        std::fs::write(dir.join(name), data).unwrap();
        let sums = std::fs::read_to_string(dir.join("checksums.txt")).unwrap();
        let fixed: String = sums
            .lines()
            .map(|l| {
                if l.starts_with(name) {
                    format!("{name} {:016x}\n", crc64::checksum(data.as_bytes()))
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        std::fs::write(dir.join("checksums.txt"), fixed).unwrap();
    }

    #[test]
    fn load_rejects_corruption() {
        let r = report();
        let snap = IndexSnapshot::from_report(&r).unwrap();
        let dir = tmp_dir("bad");
        snap.save(&dir).unwrap();

        // A bit-flip in any section trips the CRC gate, naming the section.
        let meta = std::fs::read_to_string(dir.join("meta.txt")).unwrap();
        std::fs::write(dir.join("meta.txt"), meta.replace("kernel=wl", "kernel=wL")).unwrap();
        match IndexSnapshot::load(&dir).unwrap_err() {
            SnapshotError::Corrupt { section, .. } => assert_eq!(section, "meta.txt"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::write(dir.join("meta.txt"), meta.clone()).unwrap();
        assert!(IndexSnapshot::load(&dir).is_ok());

        // Wrong version (checksum refreshed so the parser sees it).
        tamper_with_valid_crc(&dir, "meta.txt", &meta.replace("version=4", "version=9"));
        assert!(matches!(
            IndexSnapshot::load(&dir).unwrap_err(),
            SnapshotError::Format(_)
        ));
        tamper_with_valid_crc(&dir, "meta.txt", &meta);
        assert!(IndexSnapshot::load(&dir).is_ok());

        // Truncated model: assignments no longer match the job count.
        let model = std::fs::read_to_string(dir.join("model.txt")).unwrap();
        tamper_with_valid_crc(
            &dir,
            "model.txt",
            &model.replace("assignments ", "assignments 0 "),
        );
        assert!(IndexSnapshot::load(&dir).is_err());
        tamper_with_valid_crc(&dir, "model.txt", &model);
        assert!(IndexSnapshot::load(&dir).is_ok());

        // Torn write: a truncated section is caught by the CRC, not by a
        // codec error deep inside parsing.
        let rows = std::fs::read_to_string(dir.join("jobs.csv")).unwrap();
        std::fs::write(dir.join("jobs.csv"), &rows[..rows.len() / 2]).unwrap();
        match IndexSnapshot::load(&dir).unwrap_err() {
            SnapshotError::Corrupt { section, .. } => assert_eq!(section, "jobs.csv"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::write(dir.join("jobs.csv"), rows).unwrap();

        // Shape ids out of first-appearance order fail validation even
        // with a valid checksum.
        let shapes = std::fs::read_to_string(dir.join("shapes.csv")).unwrap();
        let skipped = shapes.replacen("0,", "7,", 1);
        tamper_with_valid_crc(&dir, "shapes.csv", &skipped);
        assert!(matches!(
            IndexSnapshot::load(&dir).unwrap_err(),
            SnapshotError::Format(_)
        ));
        tamper_with_valid_crc(&dir, "shapes.csv", &shapes);
        assert!(IndexSnapshot::load(&dir).is_ok());

        // checksums.txt missing an entry.
        let sums = std::fs::read_to_string(dir.join("checksums.txt")).unwrap();
        let partial: String = sums.lines().skip(1).map(|l| format!("{l}\n")).collect();
        std::fs::write(dir.join("checksums.txt"), partial).unwrap();
        assert!(matches!(
            IndexSnapshot::load(&dir).unwrap_err(),
            SnapshotError::Format(_)
        ));
        std::fs::write(dir.join("checksums.txt"), sums).unwrap();

        // Missing file.
        std::fs::remove_file(dir.join("groups.csv")).unwrap();
        assert!(matches!(
            IndexSnapshot::load(&dir).unwrap_err(),
            SnapshotError::Io { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_atomic_and_resave_safe() {
        let r = report();
        let snap = IndexSnapshot::from_report(&r).unwrap();
        let dir = tmp_dir("atomic");
        snap.save(&dir).unwrap();
        // Re-saving over a live snapshot must succeed and leave no
        // staging/backup residue.
        snap.save(&dir).unwrap();
        assert!(!sibling(&dir, "staging").exists());
        assert!(!sibling(&dir, "old").exists());
        assert!(IndexSnapshot::load(&dir).is_ok());
        // A stale staging directory from a crashed save is swept.
        std::fs::create_dir_all(sibling(&dir, "staging")).unwrap();
        std::fs::write(sibling(&dir, "staging").join("junk"), "x").unwrap();
        snap.save(&dir).unwrap();
        assert!(!sibling(&dir, "staging").exists());
        assert!(IndexSnapshot::load(&dir).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn first_appearance_grouping_keeps_sample_order() {
        let r = report();
        let snap = IndexSnapshot::from_report(&r).unwrap();
        let names: Vec<&str> = snap.jobs.iter().map(|j| j.name.as_str()).collect();
        let sample: Vec<&str> = r.sample_names.iter().map(String::as_str).collect();
        assert_eq!(names, sample);
    }
}
