//! Regression tests for library panic paths that once `panic!`ed or
//! `expect`ed on bad input: the sites now return errors (or behave
//! gracefully). Clippy's `unwrap_used`, `expect_used` and `panic` lints,
//! denied at every library crate root, keep new ones out.

use std::sync::Arc;

use svr_core::codec::CodecKind;
use svr_core::long_list::{ListFormat, LongListStore};
use svr_core::types::TermId;
use svr_core::CoreError;
use svr_storage::{MemDisk, Store};

fn store() -> Arc<Store> {
    Arc::new(Store::new(Arc::new(MemDisk::new(512)), 64))
}

/// A put of the wrong list format is an `Unsupported` error, not a panic:
/// the store's format is a runtime property (it comes from the method's
/// catalog record), so misuse must surface as a recoverable error.
#[test]
fn wrong_format_puts_error_instead_of_panicking() {
    let id_store = LongListStore::new(
        store(),
        ListFormat::Id { with_scores: false },
        CodecKind::Bitpacked,
    );
    assert!(matches!(
        id_store.put_chunked_list(TermId(1), &[]),
        Err(CoreError::Unsupported(_))
    ));
    assert!(matches!(
        id_store.put_score_list(TermId(1), &[]),
        Err(CoreError::Unsupported(_))
    ));

    let chunk_store = LongListStore::new(
        store(),
        ListFormat::Chunked { with_scores: false },
        CodecKind::Bitpacked,
    );
    assert!(matches!(
        chunk_store.put_id_list(TermId(1), &[]),
        Err(CoreError::Unsupported(_))
    ));

    // The matching format still works on the same stores.
    id_store.put_id_list(TermId(2), &[]).expect("matching put");
    chunk_store
        .put_chunked_list(TermId(2), &[])
        .expect("matching put");
}
