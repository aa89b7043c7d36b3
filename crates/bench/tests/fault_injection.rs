//! Failpoint-driven coverage of the bench crate's hardened I/O paths: the
//! shard parser's injected-error path.
//!
//! Failpoint state is process-global, so this test lives in its own
//! integration binary.

use dcn_util::failpoint;

#[test]
fn injected_parse_error_surfaces_through_the_merge_path() {
    let dir = std::env::temp_dir().join(format!("rdcn-parse-inject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let table = dcn_bench::demand_sweep(0.005, 1, dcn_core::sweep::ShardSpec::new(0, 1));
    std::fs::write(
        dir.join(dcn_bench::shard_file_name(
            "inject",
            dcn_core::sweep::ShardSpec::new(0, 1),
        )),
        table.to_json(),
    )
    .expect("write shard");

    // Error-action failpoints surface through `eval` at the parser's
    // entry: the merge must fail with the injected message, file-tagged.
    failpoint::arm(
        "shard.parse",
        failpoint::Action::Error("injected corruption".into()),
        failpoint::Trigger::Always,
    );
    let err = dcn_bench::shard::merge_target_dir(&dir, "inject").expect_err("injected error");
    failpoint::disarm("shard.parse");
    assert!(err.contains("injected corruption"), "{err}");
    assert!(err.contains("BENCH_inject"), "{err}");

    // Disarmed, the same directory merges fine.
    let (merged, _) = dcn_bench::shard::merge_target_dir(&dir, "inject").expect("clean merge");
    assert_eq!(merged.to_json(), table.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}
