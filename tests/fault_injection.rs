//! Crash-safety of checkpoint writes, proved by injected faults.
//!
//! Every save goes through write-temp → fsync → rename → fsync-dir. The
//! [`FaultyIo`] harness fails exactly one of those steps per run; for each
//! possible crash point the invariant is the same: the destination path
//! holds a *complete* checkpoint afterwards — the old one if the fault hit
//! before the rename committed, the new one if it hit after — and corrupt
//! or hostile files always surface as typed errors, never panics.

use std::fs;
use std::path::PathBuf;

use rpt::tensor::serialize::{
    encode, load_train_file, save_train_file, save_train_file_with, staging_path, Checkpoint,
    Fault, FaultyIo,
};
use rpt::tensor::{AdamState, CheckpointError, ParamStore, Tensor, TrainState};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpt-fault-injection-{tag}"));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small store plus a train state whose scalars encode `gen` so old and
/// new checkpoint generations are distinguishable on reload.
fn generation(gen: f32) -> (ParamStore, TrainState) {
    let mut store = ParamStore::new();
    store.register("w", Tensor::from_vec(vec![gen, gen + 0.5], &[2]).unwrap());
    let state = TrainState {
        adam: Some(AdamState {
            t: gen as u64,
            moments: vec![(
                "w".to_string(),
                Tensor::from_vec(vec![gen, gen], &[2]).unwrap(),
                Tensor::from_vec(vec![gen * gen, gen * gen], &[2]).unwrap(),
            )],
        }),
        rng_streams: vec![("model".to_string(), [gen as u64 + 1, 2, 3, 4])],
        steps_done: gen as u64,
        losses: vec![gen; gen as usize],
        corpus: None,
    };
    (store, state)
}

fn load_generation(path: &PathBuf) -> (f32, TrainState) {
    let mut store = ParamStore::new();
    let w = store.register("w", Tensor::zeros(&[2]));
    let state = load_train_file(&mut store, path).expect("checkpoint at path must be complete");
    (store.value(w).data()[0], state)
}

/// Faults striking *before* the rename commits must leave the previous
/// checkpoint untouched and clean up the staging file.
#[test]
fn pre_commit_faults_preserve_the_old_checkpoint() {
    for fault in [Fault::ShortWrite(25), Fault::SyncFile, Fault::Rename] {
        let dir = fresh_dir(&format!("pre-{fault:?}").replace(['(', ')'], "-"));
        let path = dir.join("train_state.json");

        let (old_store, old_state) = generation(3.0);
        save_train_file(&old_store, &old_state, &path).unwrap();

        let (new_store, new_state) = generation(4.0);
        let mut io = FaultyIo::new(fault);
        let err = save_train_file_with(&mut io, &new_store, &new_state, &path).unwrap_err();
        assert!(io.tripped(), "{fault:?} never fired");
        assert!(matches!(err, CheckpointError::Io(_)), "{fault:?}: {err}");
        assert!(
            !staging_path(&path).exists(),
            "{fault:?} left a staging file behind"
        );

        let (gen, state) = load_generation(&path);
        assert_eq!(gen, 3.0, "{fault:?} corrupted the committed checkpoint");
        assert_eq!(state.steps_done, 3);
        assert_eq!(state.losses, vec![3.0; 3]);
        fs::remove_dir_all(&dir).ok();
    }
}

/// A directory-fsync failure happens *after* the rename: the new
/// checkpoint is already committed, and it is the one that must load.
#[test]
fn post_commit_fsync_failure_leaves_the_new_checkpoint() {
    let dir = fresh_dir("post-syncdir");
    let path = dir.join("train_state.json");

    let (old_store, old_state) = generation(3.0);
    save_train_file(&old_store, &old_state, &path).unwrap();

    let (new_store, new_state) = generation(4.0);
    let mut io = FaultyIo::new(Fault::SyncDir);
    let err = save_train_file_with(&mut io, &new_store, &new_state, &path).unwrap_err();
    assert!(io.tripped());
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");

    let (gen, state) = load_generation(&path);
    assert_eq!(gen, 4.0, "rename committed, so the new generation must win");
    assert_eq!(state.steps_done, 4);
    fs::remove_dir_all(&dir).ok();
}

/// A first-ever save (no previous checkpoint) that faults must not leave
/// any file at the destination — "no checkpoint" beats "torn checkpoint".
#[test]
fn faulted_first_save_leaves_nothing_behind() {
    for fault in [Fault::ShortWrite(25), Fault::SyncFile, Fault::Rename] {
        let dir = fresh_dir(&format!("first-{fault:?}").replace(['(', ')'], "-"));
        let path = dir.join("train_state.json");
        let (store, state) = generation(1.0);
        let mut io = FaultyIo::new(fault);
        save_train_file_with(&mut io, &store, &state, &path).unwrap_err();
        assert!(!path.exists(), "{fault:?} left a file at the destination");
        assert!(
            !staging_path(&path).exists(),
            "{fault:?} left a staging file"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

/// Decodes checkpoint bytes into a probe store shaped like `generation`'s.
fn load_probe(bytes: &[u8], shape: &[usize]) -> Result<TrainState, CheckpointError> {
    let mut probe = ParamStore::new();
    probe.register("w", Tensor::zeros(shape));
    Checkpoint::decode(bytes)?.load_train(&mut probe)
}

/// Truncated and garbage files are typed checksum or format errors,
/// never panics.
#[test]
fn truncated_and_garbage_checkpoints_are_typed_errors() {
    let dir = fresh_dir("corrupt");
    let (store, state) = generation(5.0);
    let full = encode(&store, Some(&state), None);

    // every truncation point of a real checkpoint must fail cleanly
    for cut in [1, full.len() / 4, full.len() / 2, full.len() - 1] {
        let err = load_probe(&full[..cut], &[2]).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Checksum { .. } | CheckpointError::Format(_)
            ),
            "cut at {cut}: {err}"
        );
    }

    let path = dir.join("train_state.json");
    fs::write(&path, "\u{0}\u{0}not a checkpoint").unwrap();
    let mut probe = ParamStore::new();
    probe.register("w", Tensor::zeros(&[2]));
    let err = load_train_file(&mut probe, &path).unwrap_err();
    assert!(matches!(err, CheckpointError::Format(_)), "{err}");

    let missing = dir.join("no-such-file.json");
    let err = load_train_file(&mut probe, &missing).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    fs::remove_dir_all(&dir).ok();
}

/// Well-formed checkpoints with inconsistent training state are
/// `Mismatch` errors, in the container and in legacy JSON alike: the
/// loader validates before anything mutates the caller.
#[test]
fn inconsistent_train_state_is_a_mismatch_error() {
    let (store, state) = generation(5.0);
    let mut cases: Vec<(Vec<u8>, &str)> = Vec::new();
    let mut bad = state.clone();
    bad.steps_done = 7;
    cases.push((
        encode(&store, Some(&bad), None),
        "loss count disagreeing with steps_done",
    ));
    let mut bad = state.clone();
    bad.adam.as_mut().unwrap().t = 9;
    cases.push((
        encode(&store, Some(&bad), None),
        "adam step counter disagreeing with steps_done",
    ));
    let mut bad = state.clone();
    bad.rng_streams[0].1 = [0; 4];
    cases.push((
        encode(&store, Some(&bad), None),
        "all-zero (invalid xoshiro) rng state",
    ));

    // The same checks on a legacy JSON train state, plus the cases only a
    // text encoding can express.
    let legacy = fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/train_state_v2.json"),
    )
    .unwrap();
    let words = "[\"0x1\",\"0x2\",\"0x3\",\"0xffffffffffffffff\"]";
    for (from, to, what) in [
        ("\"steps_done\":3", "\"steps_done\":7", "legacy loss count"),
        ("\"t\":3", "\"t\":9", "legacy adam step counter"),
        ("\"0x7\"", "\"oops\"", "legacy non-hex rng state word"),
        (
            words,
            "[\"0x0\",\"0x0\",\"0x0\",\"0x0\"]",
            "legacy all-zero rng state",
        ),
        (
            words,
            "[\"0x1\",\"0x2\",\"0x3\"]",
            "legacy rng state word count",
        ),
    ] {
        let doc = legacy.replace(from, to);
        assert_ne!(doc, legacy, "substitution for {what} did not apply");
        cases.push((doc.into_bytes(), what));
    }
    for (doc, what) in &cases {
        let mut probe = ParamStore::new();
        probe.register("enc.ff1.w", Tensor::zeros(&[2, 3]));
        let err = Checkpoint::decode(doc)
            .and_then(|c| c.load_train(&mut probe))
            .unwrap_err();
        assert!(
            matches!(err, CheckpointError::Mismatch(_)),
            "{what}: expected Mismatch, got {err}"
        );
    }

    // adam moments shaped unlike their parameter
    let err = load_probe(&encode(&store, Some(&state), None), &[3]).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
}

/// The checkpoint written after a tolerated post-commit fault (SyncDir)
/// resumes exactly like one from a clean save: fault injection must not
/// perturb bytes, only durability.
#[test]
fn post_commit_fault_checkpoint_is_byte_identical_to_clean_save() {
    let dir = fresh_dir("bytes");
    let clean = dir.join("clean.json");
    let faulted = dir.join("faulted.json");
    let (store, state) = generation(6.0);

    save_train_file(&store, &state, &clean).unwrap();
    let mut io = FaultyIo::new(Fault::SyncDir);
    save_train_file_with(&mut io, &store, &state, &faulted).unwrap_err();

    assert_eq!(
        fs::read(&clean).unwrap(),
        fs::read(&faulted).unwrap(),
        "fault injection changed checkpoint bytes"
    );
    fs::remove_dir_all(&dir).ok();
}
