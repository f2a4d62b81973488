//! Process-level exit-code audit: every error path of the `dagscope`
//! binary must exit nonzero with a diagnostic on stderr, and every success
//! path must exit zero. Scripts (including the CI smoke test) rely on
//! this contract.

use std::process::{Command, Output};

fn dagscope(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dagscope"))
        .args(args)
        .output()
        .expect("spawn dagscope")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_paths_exit_zero() {
    for args in [&[][..], &["help"][..], &["--help"][..]] {
        let out = dagscope(args);
        assert!(out.status.success(), "{args:?} must exit 0");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    }
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = dagscope(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("frobnicate"));
}

#[test]
fn bad_flag_value_exits_nonzero() {
    let out = dagscope(&["summary", "--jobs", "many"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("jobs"));
}

#[test]
fn unknown_positional_exits_nonzero() {
    let out = dagscope(&["summary", "oops"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("oops"));
}

#[test]
fn unknown_flags_exit_two_naming_the_flag() {
    // A flag no command reads is rejected by name: never silently
    // ignored, and never misreported as a flag missing its value.
    for (args, flag) in [
        (&["summary", "--stream", "--timings"][..], "--stream"),
        (&["summary", "--mmap"][..], "--mmap"),
        (&["summary", "--parser", "scalar"][..], "--parser"),
        (&["summary", "--sampel", "20"][..], "--sampel"),
        (
            &["serve", "--batch-window-us", "100"][..],
            "--batch-window-us",
        ),
        (
            &["summary", "--cluster-engine", "dense"][..],
            "--cluster-engine",
        ),
    ] {
        let out = dagscope(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(flag), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn fewer_shapes_than_groups_exits_zero_with_fewer_groups() {
    // This sample embeds to four distinct WL vectors; clustering assigns
    // whole shapes, so the five asked-for groups become four.
    let out = dagscope(&["summary", "--jobs", "400", "--sample", "20", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let groups: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("== groups"))
        .skip(2)
        .collect();
    assert_eq!(groups.len(), 4, "{stdout}");
    for (line, label) in groups.iter().zip(["A", "B", "C", "D"]) {
        assert!(line.starts_with(label), "{stdout}");
    }
}

#[test]
fn figure_out_of_range_exits_nonzero() {
    // Regression: this used to print "no figure 12" and exit 0.
    let out = dagscope(&["figure", "--n", "12", "--jobs", "100", "--sample", "10"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("available"));

    let out = dagscope(&["figure", "--jobs", "100", "--sample", "10"]);
    assert!(!out.status.success(), "figure without --n/--all must fail");
}

#[test]
fn missing_trace_dir_exits_nonzero() {
    let out = dagscope(&["summary", "--trace", "/no/such/dagscope/trace"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("batch_task.csv"));
}

#[test]
fn trace_job_that_is_not_a_dag_exits_two_naming_it() {
    // Every name of these jobs parses, so they pass integrity and can be
    // sampled, but none forms a DAG: a dangling parent, a repeated id, a
    // cycle. Sampling every job draws them for sure.
    let dir = std::env::temp_dir().join(format!("dagscope_notdag_{}", std::process::id()));
    let out = dagscope(
        &["generate", "--jobs", "1000", "--seed", "42", "--out"]
            .into_iter()
            .chain(dir.to_str())
            .collect::<Vec<_>>(),
    );
    assert!(out.status.success(), "generate: {}", stderr(&out));
    let trace = std::fs::read_to_string(dir.join("batch_task.csv")).expect("read trace");
    for (names, reason) in [
        (["M1", "R2_9"], "missing parent 9"),
        (["M1", "R1"], "duplicate task id 1"),
        (["M1_2", "R2_1"], "cycle"),
    ] {
        let mut bad = trace.clone();
        for (i, name) in names.iter().enumerate() {
            let start = 100 + 100 * i;
            bad.push_str(&format!(
                "{name},1,j_9999999,1,Terminated,{start},{},100,0.5\n",
                start + 100
            ));
        }
        std::fs::write(dir.join("batch_task.csv"), bad).expect("write trace");
        let dir = dir.to_str().expect("utf-8 temp dir");
        for args in [
            &["summary", "--trace", dir, "--sample", "100000"][..],
            &["census", "--trace", dir][..],
        ] {
            let out = dagscope(args);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(2), "{args:?} {names:?}: {err}");
            assert!(
                err.contains("j_9999999") && err.contains(reason),
                "{args:?} {names:?}: {err}"
            );
            assert!(!err.contains("panicked"), "{args:?} {names:?}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove temp trace");
}

#[test]
fn first_non_dag_job_in_sample_order_is_named() {
    // Two jobs whose names parse but dangle: j_9999998 opens the file and
    // j_9999999 closes it. Sizes past the generator's 31 tasks make each
    // the only job of its size, and the sampler's first pass takes one
    // job per size in ascending size, so the 40-task j_9999999 comes
    // first in sample order although it is last in the file.
    let dir = std::env::temp_dir().join(format!("dagscope_notdag2_{}", std::process::id()));
    let out = dagscope(
        &["generate", "--jobs", "1000", "--seed", "42", "--out"]
            .into_iter()
            .chain(dir.to_str())
            .collect::<Vec<_>>(),
    );
    assert!(out.status.success(), "generate: {}", stderr(&out));
    let job = |name: &str, size: usize, dangling: usize| -> String {
        (1..=size)
            .map(|id| {
                let task = match id {
                    1 => "M1".to_string(),
                    _ if id == size => format!("R{id}_{dangling}"),
                    _ => format!("R{id}_{}", id - 1),
                };
                format!("{task},1,{name},1,Terminated,100,200,100,0.5\n")
            })
            .collect()
    };
    let trace = std::fs::read_to_string(dir.join("batch_task.csv")).expect("read trace");
    let bad = job("j_9999998", 41, 97) + &trace + &job("j_9999999", 40, 98);
    std::fs::write(dir.join("batch_task.csv"), bad).expect("write trace");
    let out = dagscope(&[
        "summary",
        "--trace",
        dir.to_str().expect("utf-8 temp dir"),
        "--sample",
        "100000",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("job j_9999999 does not form a DAG") && err.contains("missing parent 98"),
        "{err}"
    );
    assert!(!err.contains("j_9999998"), "{err}");
    std::fs::remove_dir_all(&dir).expect("remove temp trace");
}

#[test]
fn serve_without_snapshot_exits_nonzero() {
    let out = dagscope(&["serve"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--snapshot"));

    let out = dagscope(&["serve", "--snapshot", "/no/such/dagscope/snapshot"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("/no/such/dagscope/snapshot"));
}

#[test]
fn snapshot_with_sp_kernel_exits_nonzero() {
    let out = dagscope(&[
        "snapshot",
        "--jobs",
        "200",
        "--sample",
        "20",
        "--seed",
        "3",
        "--base-kernel",
        "sp",
        "--out",
        "/tmp/dagscope_never_written",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("WL"));
}

#[test]
fn bad_online_spec_exits_nonzero() {
    let out = dagscope(&[
        "schedule", "--jobs", "10", "--seed", "1", "--online", "0.9,0.1",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--online"));
}

#[test]
fn degenerate_cluster_configs_exit_two() {
    // With `--online` each of these used to run forever; without it, a
    // compression of 0, NaN or -3 printed an absurd makespan, and 1e-300
    // (arrivals past the `i64` event clock) impossible metrics.
    let schedule = ["schedule", "--jobs", "20", "--seed", "1"];
    let replay = ["sched-replay", "--jobs", "300", "--seed", "1"];
    let online = ["--online", "0.2,0.5"];
    for (base, extra, problem) in [
        (&schedule, &["--cluster-machines", "0"][..], "machines"),
        (&schedule, &["--compression", "0"][..], "compression"),
        (&schedule, &["--compression", "nan"][..], "compression"),
        (&schedule, &["--compression", "-3"][..], "compression"),
        (&schedule, &["--compression", "1e-300"][..], "compression"),
        (&replay, &["--machines", "0"][..], "machines"),
        (&replay, &["--compression", "0"][..], "compression"),
        (&replay, &["--compression", "1e-300"][..], "compression"),
    ] {
        for with_online in [false, true] {
            let mut args = base.to_vec();
            args.extend_from_slice(extra);
            if with_online {
                args.extend_from_slice(&online);
            }
            let out = dagscope(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert!(stderr(&out).contains(problem), "{args:?}: {}", stderr(&out));
        }
    }
}

#[test]
fn successful_small_run_exits_zero() {
    let out = dagscope(&["summary", "--jobs", "200", "--sample", "20", "--seed", "3"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("== groups"));
}
