//! Data at rest: the DomYcile box arrangement (micro-SD blob + TPM-held
//! keys) across the stack — seal a contributor's store, power-cycle,
//! unseal, and answer a query from it.

use edgelet_core::prelude::*;
use edgelet_core::store::{synth, CmpOp, Predicate};
use edgelet_core::tee::{seal_store, unseal_store};
use edgelet_core::util::rng::DetRng;
use edgelet_crypto::attest::TrustAnchor;

#[test]
fn sealed_store_survives_a_power_cycle_and_serves_queries() {
    let anchor = TrustAnchor::new([9u8; 32]);
    let device = DeviceId::new(12);
    let mut rng = DetRng::new(5);
    let store = synth::health_store(300, &mut rng);

    // Nightly seal at version 4 (the TPM NV counter's current value).
    let sealed = seal_store(&anchor, device, 4, &store);

    // "Power cycle": all in-memory state gone; unseal from the blob.
    let restored = unseal_store(&anchor, device, 4, &sealed).unwrap();
    assert_eq!(restored.rows(), store.rows());

    // The restored store answers the survey predicate identically.
    let p = Predicate::cmp("age", CmpOp::Gt, Value::Int(65));
    assert_eq!(restored.count(&p).unwrap(), store.count(&p).unwrap());
}

#[test]
fn stolen_sd_card_and_rollback_are_useless() {
    let anchor = TrustAnchor::new([9u8; 32]);
    let owner = DeviceId::new(1);
    let thief = DeviceId::new(2);
    let mut rng = DetRng::new(6);
    let store = synth::health_store(50, &mut rng);

    let old = seal_store(&anchor, owner, 1, &store);
    let current = seal_store(&anchor, owner, 2, &store);

    // Another device cannot open the blob at all.
    assert!(unseal_store(&anchor, thief, 2, &current).is_err());
    // The owner cannot be rolled back to a stale snapshot.
    assert!(unseal_store(&anchor, owner, 2, &old).is_err());
    // The legitimate path works.
    assert!(unseal_store(&anchor, owner, 2, &current).is_ok());
}
