//! Byte-identity fixtures for every on-disk format.
//!
//! `tests/fixtures/formats/` holds one file (or store directory) per
//! format, written from the inputs built below: a full session
//! checkpoint, a model-only checkpoint, a dataset file, and paged feature
//! stores at f32 and bf16 with XOR parity width 2. The test loads each
//! fixture and checks its content, then writes the same inputs again and
//! requires byte-equal files, so any change to a magic, a field order, a
//! CRC span or the framing shows up here.

use std::path::{Path, PathBuf};

use betty_data::{load_dataset, save_dataset, Dataset, FeatureStore, Features, PagedFeatures};
use betty_graph::CsrGraph;
use betty_nn::{load_train_state, save_train_state, AdamState, TrainState};
use betty_tensor::{DType, Tensor};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/formats")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("betty-formats-{name}-{}", std::process::id()))
}

/// A session snapshot carrying every section (`PRMS` … `CFGF`), with one
/// parameter that has Adam moments and one that has none.
fn session_state() -> TrainState {
    TrainState {
        params: vec![
            Tensor::from_vec(vec![0.5, -1.25, 3.0, 0.0, 1e-3, -7.5], &[2, 3]).unwrap(),
            Tensor::from_slice(&[2.0, -0.125, 9.75]),
        ],
        adam: Some(AdamState {
            t: 3,
            moments: vec![
                Some((
                    Tensor::from_vec(vec![0.1, 0.2, -0.3, 0.4, -0.5, 0.6], &[2, 3]).unwrap(),
                    Tensor::from_vec(vec![1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4], &[2, 3]).unwrap(),
                )),
                None,
            ],
        }),
        rngs: vec![u128::MAX - 2, 0x1234_5678_9abc_def0_0fed_cba9_8765_4321],
        counters: vec![7, 1234, 3],
        floats: vec![0.875, -1.5e-9],
        history: vec![2.5, 1.25, 0.625],
        fingerprint: Some(0xdead_beef_cafe_f00d),
    }
}

/// A model-only snapshot: just the `PRMS` section.
fn model_state() -> TrainState {
    TrainState {
        params: vec![
            Tensor::from_vec(vec![1.0, -2.0, 0.25, 8.5], &[2, 2]).unwrap(),
            Tensor::from_slice(&[-0.75]),
        ],
        ..TrainState::default()
    }
}

/// A 6-node, 3-feature, 2-class dataset with all three splits.
fn dataset() -> Dataset {
    let edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 5)];
    Dataset {
        name: "fixture".into(),
        graph: CsrGraph::from_edges(6, &edges),
        features: Features::dense(matrix(6, 3)),
        labels: vec![0, 1, 0, 1, 1, 0],
        num_classes: 2,
        train_idx: vec![0, 1, 2],
        val_idx: vec![3, 4],
        test_idx: vec![5],
    }
}

/// A `rows × cols` matrix of distinct, exactly representable values.
fn matrix(rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|i| i as f32 * 0.375 - 4.0).collect();
    Tensor::from_vec(data, &[rows, cols]).unwrap()
}

/// Rows, columns and page size of the paged fixtures: 3 shards, so the
/// width-2 parity groups are one full group and one partial group.
const PAGED: (usize, usize, usize) = (10, 3, 4);
const PARITY: usize = 2;

fn paged_dir(dtype: DType) -> &'static str {
    match dtype {
        DType::F32 => "paged-f32",
        DType::Bf16 => "paged-bf16",
        other => panic!("no fixture for {other}"),
    }
}

/// Writes every fixture into `root` with the current code.
fn write_all(root: &Path) {
    std::fs::create_dir_all(root).unwrap();
    save_train_state(&session_state(), root.join("session.btc")).unwrap();
    save_train_state(&model_state(), root.join("model.btc")).unwrap();
    save_dataset(&dataset(), root.join("dataset.btd")).unwrap();
    let (rows, cols, page_rows) = PAGED;
    for dtype in [DType::F32, DType::Bf16] {
        PagedFeatures::spill_with_parity(
            &matrix(rows, cols),
            root.join(paged_dir(dtype)),
            page_rows,
            usize::MAX,
            dtype,
            PARITY,
        )
        .unwrap();
    }
}

/// Every file under `dir`, as sorted paths relative to it.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.strip_prefix(dir).unwrap().to_path_buf());
            }
        }
    }
    out.sort();
    out
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for name in files(from) {
        std::fs::copy(from.join(&name), to.join(&name)).unwrap();
    }
}

#[test]
fn fixtures_load_with_the_expected_content() {
    let root = fixtures();
    assert_eq!(
        load_train_state(root.join("session.btc")).unwrap(),
        session_state()
    );
    assert_eq!(
        load_train_state(root.join("model.btc")).unwrap(),
        model_state()
    );

    let (loaded, want) = (load_dataset(root.join("dataset.btd")).unwrap(), dataset());
    assert_eq!(loaded.name, want.name);
    assert_eq!(loaded.graph, want.graph);
    assert_eq!(loaded.features, want.features);
    assert_eq!(loaded.labels, want.labels);
    assert_eq!(loaded.num_classes, want.num_classes);
    assert_eq!(
        (loaded.train_idx, loaded.val_idx, loaded.test_idx),
        (want.train_idx, want.val_idx, want.test_idx)
    );

    let (rows, cols, page_rows) = PAGED;
    for dtype in [DType::F32, DType::Bf16] {
        // Opened from a scratch copy: a load path that wrongly repaired
        // a shard must not write into the fixture directory.
        let dir = tmp(&format!("load-{dtype}"));
        copy_dir(&root.join(paged_dir(dtype)), &dir);
        let store = PagedFeatures::open(&dir, usize::MAX).unwrap();
        assert_eq!(store.dtype(), dtype);
        assert_eq!(store.page_rows(), page_rows);
        assert_eq!(store.num_shards(), rows.div_ceil(page_rows));
        assert_eq!(store.parity_width(), PARITY);
        let mut want = matrix(rows, cols);
        dtype.quantize_slice(want.data_mut());
        assert_eq!(store.to_dense(), want, "{dtype} store content");
        assert_eq!(
            store.drain_storage_incidents(),
            vec![],
            "{dtype} store needed repair"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn writing_the_same_inputs_reproduces_every_fixture_byte_for_byte() {
    let root = fixtures();
    let out = tmp("rewrite");
    let _ = std::fs::remove_dir_all(&out);
    write_all(&out);
    let names = files(&root);
    assert_eq!(files(&out), names, "the set of written files changed");
    assert_eq!(names.len(), 3 + 2 * 7, "fixture set is incomplete: {names:?}");
    for name in &names {
        let want = std::fs::read(root.join(name)).unwrap();
        let got = std::fs::read(out.join(name)).unwrap();
        assert!(
            want == got,
            "{} is no longer byte-identical",
            name.display()
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}
