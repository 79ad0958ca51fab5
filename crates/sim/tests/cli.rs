//! The `commloc` binary rejects a machine it cannot build with a one-line
//! flag error and exit status 1, before allocating anything for it.

use std::process::Command;

#[test]
fn oversized_contexts_exit_1_with_a_flag_error() {
    // 2^32 + 1 fits `usize`, so only the contexts cap stops the run from
    // allocating billions of contexts per node.
    let out = Command::new(env!("CARGO_BIN_EXE_commloc"))
        .args(["sim", "--contexts", "4294967297"])
        .output()
        .expect("commloc runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: --contexts"), "{stderr}");
}
