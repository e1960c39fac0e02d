//! Content fingerprints for incremental reuse.
//!
//! One dual-stream FNV-1a hasher ([`maya_lexer::Fnv2`]) serves every reuse
//! layer. The [`crate::Session`] hashes raw bytes to detect changed files
//! and keys the lex share by a content hash; token trees carry their own
//! memoised fingerprints ([`maya_lexer::TreeSeq::fingerprint`],
//! [`maya_lexer::DelimTree::fingerprint`]), which key the unit,
//! class-body and force caches and feed the persistent outcome key. Spans
//! participate in every tree fingerprint, so two trees with equal
//! fingerprints are interchangeable everywhere downstream, diagnostics
//! included.

use maya_lexer::{Fnv2, LexError, TreeSeq};
use std::rc::Rc;

/// 64-bit byte hash (the cheap first-level change check).
pub(crate) fn hash64(bytes: &[u8]) -> u64 {
    let mut h = Fnv2::new();
    h.bytes(bytes);
    h.finish64()
}

/// 128-bit byte hash — the process-global lex-share key. Both FNV streams
/// are kept because entries are shared across every client of a compile
/// service, a far larger collision surface than one session's files.
pub(crate) fn hash128(bytes: &[u8]) -> u128 {
    let mut h = Fnv2::new();
    h.bytes(bytes);
    h.finish()
}

/// The session's token hash of one lex result: the file's tree
/// fingerprint, or the error's message and span.
pub(crate) fn lex_result_hash(result: &Result<Rc<TreeSeq>, LexError>) -> u128 {
    let mut h = Fnv2::new();
    match result {
        Ok(trees) => {
            h.byte(1);
            h.bytes(&trees.fingerprint().to_le_bytes());
        }
        Err(e) => {
            h.byte(0);
            h.str(&e.message);
            h.span(e.span);
        }
    }
    h.finish()
}
