//! Checkpoint fidelity: a `QppNet::to_json` document holds the model's
//! parameters only, and reloading it is lossless. The checks compare whole
//! documents byte-for-byte and predictions bit-for-bit instead of leaning on
//! `QppNet::fingerprint`, which samples only a few weights per layer.

use qpp::net::{QppConfig, QppNet};
use qpp::plansim::prelude::*;
use serde_json::Value;

fn config(epochs: usize) -> QppConfig {
    QppConfig { epochs, ..QppConfig::tiny() }
}

/// A small fitted model plus its train and held-out plans.
fn fitted() -> (Dataset, QppNet) {
    let ds = Dataset::generate(Workload::TpcH, 1.0, 60, 41);
    let split = ds.paper_split(0);
    let mut model = QppNet::new(config(4), &ds.catalog);
    model.fit(&ds.select(&split.train));
    (ds, model)
}

/// Rewrites `v` into the format that also stored each layer's gradient
/// buffers: every dense-layer object (`w`, `b`, `act`) gains `gw` shaped
/// like `w` and `gb` shaped like `b`, filled with non-zero values so a
/// loader that kept them would be caught. Returns the layers rewritten.
fn inject_gradient_buffers(v: &mut Value) -> usize {
    match v {
        Value::Object(m) => {
            let mut n: usize = m.values_mut().map(inject_gradient_buffers).sum();
            if let (Some(w), Some(Value::Array(b)), true) =
                (m.get("w"), m.get("b"), m.contains_key("act"))
            {
                let mut gw = w.clone();
                let Some(Value::Array(data)) = gw.as_object_mut().unwrap().get_mut("data") else {
                    panic!("matrix without a data array")
                };
                data.iter_mut().for_each(|x| *x = Value::Number(0.25));
                let gb = Value::Array(vec![Value::Number(-0.5); b.len()]);
                m.insert("gw".into(), gw);
                m.insert("gb".into(), gb);
                n += 1;
            }
            n
        }
        Value::Array(items) => items.iter_mut().map(inject_gradient_buffers).sum(),
        _ => 0,
    }
}

#[test]
fn reserializing_a_loaded_checkpoint_is_byte_identical() {
    let (_, model) = fitted();
    let doc = model.to_json();
    let back = QppNet::from_json(&doc).unwrap();
    assert_eq!(back.to_json(), doc);
}

#[test]
fn checkpoints_hold_no_gradient_buffers() {
    let (_, model) = fitted();
    let doc = model.to_json();
    assert!(!doc.contains("\"gw\"") && !doc.contains("\"gb\""));
}

#[test]
fn reloaded_model_predicts_held_out_plans_bit_identically() {
    let (ds, model) = fitted();
    let back = QppNet::from_json(&model.to_json()).unwrap();
    let split = ds.paper_split(0);
    let test = ds.select(&split.test);
    assert!(!test.is_empty());
    let bits = |m: &QppNet| -> Vec<u64> {
        m.predict_batch(&test).into_iter().map(f64::to_bits).collect()
    };
    assert_eq!(bits(&back), bits(&model));
}

#[test]
fn checkpoints_that_carry_gradient_buffers_still_load() {
    let (_, model) = fitted();
    let doc = model.to_json();
    let mut tree = serde_json::parse(&doc).unwrap();
    let layers = inject_gradient_buffers(&mut tree);
    let old = serde_json::to_string(&tree).unwrap();
    // One unit per operator family, each several layers deep.
    assert!(layers >= qpp::plansim::operators::OpKind::ALL.len() * 2, "{layers} layers");
    assert!(old.len() > doc.len());
    let back = QppNet::from_json(&old).unwrap();
    assert_eq!(back.to_json(), doc);
}

#[test]
fn warm_start_fit_after_reload_matches_the_original_bit_for_bit() {
    let (ds, model) = fitted();
    let split = ds.paper_split(0);
    let train = ds.select(&split.train);
    // The original still holds the last batch's gradients in its buffers;
    // the reloaded copy starts from zeros. Training zeroes them before it
    // accumulates, so both continue identically.
    let mut original = model.clone();
    let mut restored = QppNet::from_json(&model.to_json()).unwrap();
    original.fit(&train);
    restored.fit(&train);
    assert_eq!(restored.to_json(), original.to_json());
}
